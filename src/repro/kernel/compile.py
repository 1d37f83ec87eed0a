"""The trace compiler: lower schedules into flat numpy arrays.

The object model steps one :class:`~repro.model.request.Request` at a
time through python dispatch — ideal for validation and introspection,
hopeless as a hot path.  The kernel instead *compiles* a schedule (or
a whole batch of generated replications) into three arrays:

* ``procs``     — ``(B, T)`` int32, the **bit index** of the issuing
  processor within the shared universe (see below);
* ``is_write``  — ``(B, T)`` bool, the request kind;
* ``lengths``   — ``(B,)`` int64, the true length of each trace.

``B`` is the batch size and ``T`` the *horizon* (the longest trace);
shorter traces are padded with ``procs = 0`` / ``is_write = False``
and masked out by ``lengths``.  Padding never contributes cost.

**Universe and bit order.**  All traces of a batch share one
*universe*: the sorted union of every processor appearing in any trace
plus the caller's ``extra_processors`` (initial schemes, primaries).
Bit ``i`` stands for ``universe[i]`` — the convention of
:func:`repro.types.mask_of` / :func:`repro.types.set_of_mask`, so the
kernel's masks and the offline DP's masks are directly comparable.
Processor ids need not be contiguous; compilation maps them to dense
bit indices.  The universe has no size cap: both evaluators work on
``(B, T)`` arrays, and the universe size ``n`` enters only as the
width of the keys the DA evaluator sorts each row by.

**Columns, not requests.**  Compilation reads each schedule's cached
columnar form (:attr:`~repro.model.schedule.Schedule.columns`) rather
than its ``Request`` objects.  The concatenated issuer columns (plus
the extras) are ranked without a sort: when they span no more values
than there are ids, a bool table marks the ids present, and its
running count gives the universe and every request's bit index in
O(N), offsetting the fresh concatenation in place.  Wider, sparse ids
fall back to one ``np.unique`` sort.  When
every trace has the horizon's length, the concatenated columns are
already the rows and a reshape lays them out; a ragged batch takes a
masked copy into zero padding.  A generator may
build its schedules from their columns
(:meth:`~repro.model.schedule.Schedule.from_columns`), and compiling
one then builds no ``Request`` at all; other schedules compute their
columns once, on first compile, so the SA and DA compiles of one batch
walk the requests at most once between them.

The compiled form is immutable and picklable, so engine workers can
receive compiled batches instead of object traces.  What the evaluators
make of it — per-request ``(io, control, data)`` counts, then prices —
is described in :mod:`repro.kernel.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.model.schedule import Schedule
from repro.types import (
    ProcessorId,
    ProcessorUniverse,
    processor_universe,
)


def popcount(array: np.ndarray) -> np.ndarray:
    """Per-element population count of a non-negative integer array.

    Uses :func:`numpy.bitwise_count` when available (numpy >= 2.0) and
    falls back to a byte-table sum otherwise.
    """
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(array).astype(np.int64)
    table = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1
    )
    view = np.ascontiguousarray(array.astype(np.int64)).view(np.uint8)
    return table[view].reshape(*array.shape, 8).sum(axis=-1).astype(np.int64)


@dataclass(frozen=True)
class CompiledBatch:
    """A batch of schedules lowered into flat arrays.

    Instances come from :func:`compile_batch` / :func:`compile_schedule`
    and are consumed by :mod:`repro.kernel.evaluate`.
    """

    universe: ProcessorUniverse
    procs: np.ndarray
    is_write: np.ndarray
    lengths: np.ndarray

    # -- shape accessors ---------------------------------------------------

    @property
    def batch_size(self) -> int:
        return self.procs.shape[0]

    @property
    def horizon(self) -> int:
        """The padded trace length ``T`` (the longest trace)."""
        return self.procs.shape[1]

    @property
    def request_count(self) -> int:
        """Total non-padding requests across the batch."""
        return int(self.lengths.sum())

    def valid(self) -> np.ndarray:
        """``(B, T)`` bool: True at real requests, False at padding."""
        return np.arange(self.horizon)[None, :] < self.lengths[:, None]

    # -- universe mapping ---------------------------------------------------

    def bit_index(self, processor: ProcessorId) -> int:
        """The bit index of a processor id within the universe."""
        try:
            return self.universe.index(processor)
        except ValueError:
            raise ConfigurationError(
                f"processor {processor} is not in the compiled universe "
                f"{self.universe}"
            ) from None

    def bit_flags(self, processors: Iterable[ProcessorId]) -> np.ndarray:
        """``(n,)`` bool: membership of each universe bit in ``processors``."""
        flags = np.zeros(len(self.universe), dtype=bool)
        for processor in processors:
            flags[self.bit_index(processor)] = True
        return flags


def _universe_bits(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of int64 ``ids`` and each id's index
    among them, as :func:`numpy.unique` with ``return_inverse`` gives.

    Ids spanning at most as many values as there are ids (the usual
    small universe) are ranked in O(N) without a sort: a bool table
    marks the ids present, and its running count minus one is each
    value's rank.  Wider spans, such as ``{0, 2**62}``, would need a
    table larger than the input and take the sort instead.  The span is
    computed in Python ints, since ids can reach ``2**63 - 1``.
    ``ids`` is consumed: the table path subtracts ``low`` in place.
    """
    if ids.size:
        low, high = int(ids.min()), int(ids.max())
        if high - low < ids.size:
            ids -= low
            present = np.zeros(high - low + 1, dtype=bool)
            present[ids] = True
            rank = np.cumsum(present, dtype=np.int32) - 1
            return np.flatnonzero(present) + low, rank.take(ids)
    return np.unique(ids, return_inverse=True)


def _padded(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``values`` laid out over the True cells of ``valid``, zero elsewhere."""
    laid = np.zeros(valid.shape, dtype=values.dtype)
    laid[valid] = values
    return laid


def compile_batch(
    schedules: Sequence[Schedule],
    extra_processors: Iterable[ProcessorId] = (),
) -> CompiledBatch:
    """Compile a batch of schedules onto one shared universe.

    ``extra_processors`` widens the universe with ids that issue no
    request but matter to the evaluators (initial allocation schemes,
    DA's primary).  Traces of different lengths are padded to the
    longest; padding is masked by ``lengths``.
    """
    if not schedules:
        raise ConfigurationError("cannot compile an empty batch")
    columns = [schedule.columns for schedule in schedules]
    extra = np.array(processor_universe(extra_processors), dtype=np.int64)
    # The concatenation is fresh, so ``_universe_bits`` may consume it.
    universe_ids, bits = _universe_bits(
        np.concatenate([extra, *(column.processors for column in columns)])
    )
    lengths = np.array(
        [len(column.processors) for column in columns], dtype=np.int64
    )
    horizon = int(lengths.max())
    shape = (len(columns), horizon)
    procs = bits[len(extra):].astype(np.int32, copy=False)
    is_write = np.concatenate([column.is_write for column in columns])
    if procs.size == len(columns) * horizon:
        # Equal lengths: the concatenated columns are already the rows.
        procs, is_write = procs.reshape(shape), is_write.reshape(shape)
    else:
        # Row-major boolean-mask assignment lays the concatenated
        # columns out trace by trace, leaving the padding zero.
        valid = np.arange(horizon)[None, :] < lengths[:, None]
        procs, is_write = (_padded(column, valid) for column in (procs, is_write))
    universe = tuple(universe_ids.tolist())
    procs.setflags(write=False)
    is_write.setflags(write=False)
    lengths.setflags(write=False)
    return CompiledBatch(universe, procs, is_write, lengths)


def compile_schedule(
    schedule: Schedule,
    extra_processors: Iterable[ProcessorId] = (),
) -> CompiledBatch:
    """Compile a single schedule (a batch of one)."""
    return compile_batch([schedule], extra_processors)
