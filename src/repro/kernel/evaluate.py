"""Vectorized SA and DA cost evaluation over compiled batches.

Each algorithm has a *counts* evaluator and a *costs* evaluator.  The
counts evaluator returns :class:`RequestCounts`: three ``(B, T)`` int32
arrays holding every request's I/O operations, control messages and
data messages (zero at padding) — the kernel's form of
:func:`repro.model.costs.request_breakdown`.
:meth:`RequestCounts.priced` prices them per request with one
expression ``io*c_io + control*c_c + data*c_d`` evaluated left to right
exactly like ``CostBreakdown.priced``, so the ``(B, T)`` float64 costs
are *bit-identical*, element for element, to pricing the stepped
algorithm's allocation schedule with
:meth:`repro.model.cost_model.CostModel.request_costs` — the property
suite in ``tests/properties/test_prop_kernel.py`` asserts exact
(``==``) equality, not approximate.  The costs evaluator returns each
trace's total, :func:`schedule_totals`: its summed counts priced once,
exactly as :meth:`CostModel.schedule_cost` prices
``total_breakdown()``.

**SA** is a pure closed form: the scheme ``Q`` never moves, so each
request's counts depend only on (kind, issuer-in-``Q``).

**DA** is evaluated *count first*, from O(B·T) arrays with no factor
of the universe size ``n``.  A write by ``j`` resets the scheme to its
execution set ``F ∪ {x}`` (``x = p`` if ``j ∈ F ∪ {p}``, else
``x = j``) and every saving-read adds its reader, so the scheme before
request ``i`` is::

    F  ∪  {x of the last write before i}  ∪  {readers since that write}

(``x = p`` before the first write).  Its *size* is ``t`` plus the
saving-reads so far in the segment, and whether the issuer ``q`` is a
member needs only: ``q ∈ F``, ``q`` is the segment's ``x``, or
``q``'s previous request in the trace came after the last write (a
write by ``q`` would itself be the last write, so that request was a
read).  The previous request by the same processor comes from a
stable argsort of each row by processor; the last write is one running
maximum; the segment's saving-reads are one running sum.  A write's
invalidations are ``|Y∖X| = |Y| - (t-1) - [x ∈ Y]``, and ``[x ∈ Y]``
for a writer in ``F ∪ {p}`` (``x = p``) takes one more running maximum
over ``p``'s requests.

The stepped path (:class:`~repro.core.base.OnlineDOM`) remains the
reference implementation — it validates legality/availability per
step and supports every algorithm; the kernel handles exactly SA and
DA (see :mod:`repro.kernel.dispatch`).
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.kernel.compile import CompiledBatch
from repro.model.accounting import CostBreakdown
from repro.model.cost_model import CostModel
from repro.types import ProcessorId, ProcessorSet, processor_set

#: The dtype of every count array.
COUNT = np.int32


class RequestCounts(NamedTuple):
    """Per-request ``(io, control, data)`` counts over a compiled batch.

    Each field is a ``(B, T)`` :data:`COUNT` array, zero at padding.
    """

    io: np.ndarray
    control: np.ndarray
    data: np.ndarray

    def priced(self, model: CostModel) -> np.ndarray:
        """``(B, T)`` float64 costs, priced like ``CostBreakdown.priced``
        (``io*c_io + control*c_c + data*c_d``, left to right)."""
        return (
            self.io * model.c_io
            + self.control * model.c_c
            + self.data * model.c_d
        )

    def breakdown(self, row: int) -> CostBreakdown:
        """The summed counts of one trace."""
        return CostBreakdown(
            io_ops=int(self.io[row].sum()),
            control_messages=int(self.control[row].sum()),
            data_messages=int(self.data[row].sum()),
        )


def _check_scheme(
    batch: CompiledBatch, scheme: ProcessorSet, threshold: Optional[int]
) -> None:
    """Mirror :class:`OnlineDOM`'s constructor validation."""
    if threshold is None:
        threshold = len(scheme)
    if threshold < 2:
        raise ConfigurationError(
            f"the availability threshold t must be at least 2, got {threshold}"
        )
    if len(scheme) < threshold:
        raise ConfigurationError(
            f"initial scheme {sorted(scheme)} is smaller than t={threshold}"
        )
    for processor in scheme:
        batch.bit_index(processor)  # raises on a foreign id


def _check_da(
    batch: CompiledBatch,
    initial_scheme: Iterable[ProcessorId],
    primary: Optional[ProcessorId],
    threshold: Optional[int],
) -> tuple[ProcessorSet, ProcessorId]:
    """Mirror :class:`DynamicAllocation`'s constructor validation;
    return the scheme and the primary.  ``F`` is never empty here:
    :func:`_check_scheme` already demands two members."""
    scheme = processor_set(initial_scheme)
    _check_scheme(batch, scheme, threshold)
    if primary is None:
        primary = max(scheme)
    if primary not in scheme:
        raise ConfigurationError(
            f"primary processor {primary} is not in the initial "
            f"scheme {sorted(scheme)}"
        )
    return scheme, primary


def sa_request_counts(
    batch: CompiledBatch,
    initial_scheme: Iterable[ProcessorId],
    threshold: Optional[int] = None,
) -> RequestCounts:
    """Per-request SA counts (read-one-write-all over the fixed ``Q``).

    With ``q = |Q|``:

    ======================  ======  =========  ========
    request                 io      control    data
    ======================  ======  =========  ========
    read by a member        1       0          0
    read by a non-member    1       1          1
    write by a member       ``q``   0          ``q-1``
    write by a non-member   ``q``   0          ``q``
    ======================  ======  =========  ========
    """
    scheme = processor_set(initial_scheme)
    _check_scheme(batch, scheme, threshold)
    q = COUNT(len(scheme))
    is_write, valid = batch.is_write, batch.valid()
    member = batch.bit_flags(scheme).take(batch.procs)
    # Boolean arithmetic, not np.where: several times faster here.
    foreign_read = (valid & ~(is_write | member)).astype(COUNT)
    return RequestCounts(
        io=is_write * (q - 1) + valid,
        control=foreign_read,
        data=is_write * q - (is_write & member) + foreign_read,
    )


def sa_request_costs(
    batch: CompiledBatch,
    initial_scheme: Iterable[ProcessorId],
    model: CostModel,
    threshold: Optional[int] = None,
) -> np.ndarray:
    """SA's ``(B,)`` cost of each trace: :func:`sa_request_counts`,
    summed per trace and priced once."""
    counts = sa_request_counts(batch, initial_scheme, threshold)
    return schedule_totals(counts, model)


def _previous_same_processor(
    procs: np.ndarray, n: int, flat: np.ndarray
) -> np.ndarray:
    """For every cell of ``procs``, the flat position of the previous
    cell of its row holding the same processor (``-1``: none).

    A stable argsort of each row by processor, offset by the row's
    flat start, orders the cells as one global sort on ``row*n + proc``
    keys would, each processor's cells in row order.  Keys of
    ``np.min_scalar_type(n - 1)`` (8 bits up to 256 processors) let
    numpy radix-sort them.  Neighbours in that order that hold the
    same processor are a cell and its previous one, except across a
    row boundary.
    """
    width = procs.shape[1]
    keys = procs.astype(np.min_scalar_type(n - 1))
    order = np.argsort(keys, axis=1, kind="stable").astype(flat.dtype)
    order += flat[:, :1]
    order = order.ravel()
    sorted_keys = keys.ravel().take(order)
    del keys
    same = sorted_keys[1:] == sorted_keys[:-1]
    # The last cell of one row and the first of the next.
    same[width - 1 :: width] = False
    previous = np.empty(flat.size, dtype=flat.dtype)
    previous[order[0]] = -1
    previous[order[1:]] = np.where(same, order[:-1], -1)
    return previous.reshape(flat.shape)


def _last_before(hits: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Flat position of the last hit strictly before each request.

    ``hits`` and ``flat`` span the virtual-write layout of
    :func:`da_request_counts`; column 0 must hit in every row, so the
    running maximum never crosses into the next row.
    """
    last = (hits * flat).ravel()
    np.maximum.accumulate(last, out=last)
    return last.reshape(flat.shape)[:, :-1]


#: Laid-out cells :func:`da_request_counts` evaluates at once: temporaries
#: this small are reused from the heap instead of faulted in fresh.
BLOCK_CELLS = 1 << 16


def da_request_counts(
    batch: CompiledBatch,
    initial_scheme: Iterable[ProcessorId],
    primary: Optional[ProcessorId] = None,
    threshold: Optional[int] = None,
) -> RequestCounts:
    """Per-request DA counts (save-on-read / invalidate-on-write).

    With ``t = |F ∪ {p}|`` and ``Y`` the scheme before the request:

    ======================  =======  ===============  =========
    request                 io       control          data
    ======================  =======  ===============  =========
    read by a member        1        0                0
    read by a non-member    2        1                1
    write by ``j``          ``t``    ``|Y∖X|``        ``t-1``
    ======================  =======  ===============  =========

    with ``X = F ∪ {x}`` the write's execution set.  Since ``F ⊆ Y``
    always holds, ``|Y∖X| = 1 + s - [x ∈ Y]`` where ``s`` counts the
    saving-reads since the last write (``|Y| = t + s``).

    Every trace is laid out behind a *virtual write by p* in column 0:
    it leaves exactly DA's initial scheme ``F ∪ {p}``, so every request
    has a last write before it and no case is special.  Traces are
    independent, so the rows are evaluated in blocks of about
    :data:`BLOCK_CELLS` laid-out cells (one row if a row is longer),
    each written into its rows of the three outputs.
    """
    scheme, primary = _check_da(batch, initial_scheme, primary, threshold)
    size = COUNT(len(scheme))
    batch_size, horizon = batch.procs.shape
    n = len(batch.universe)
    in_fp = batch.bit_flags(scheme)  # F ∪ {p}: DA's initial scheme
    core = batch.bit_flags(scheme - {primary})
    p_idx = batch.bit_index(primary)
    # x: the non-core execution-set member of a write (p for writers
    # in F ∪ {p}).
    x_of = np.where(in_fp, p_idx, np.arange(n)).astype(batch.procs.dtype)

    # The virtual-write layout of a block: request (b, i) at column
    # i+1, numbered by ``flat`` from the block's first cell.
    rows = min(batch_size, max(1, BLOCK_CELLS // (horizon + 1)))
    cells = rows * (horizon + 1)
    position = np.int32 if cells < 2**31 else np.int64
    block_flat = np.arange(cells, dtype=position).reshape(rows, horizon + 1)
    columns = np.arange(horizon)
    # The three outputs share one buffer: one allocation per call.
    counts = RequestCounts(*np.empty((3, *batch.procs.shape), COUNT))
    for start in range(0, batch_size, rows):
        block = slice(start, start + rows)
        procs, is_write = batch.procs[block], batch.is_write[block]
        valid = columns < batch.lengths[block, None]
        flat = block_flat[: len(procs)]
        laid = flat.shape
        # Each array is deleted after its last use, to keep the peak low.
        laid_procs = np.empty(laid, dtype=procs.dtype)
        laid_procs[:, 0] = p_idx
        laid_procs[:, 1:] = procs
        laid_writes = np.empty(laid, dtype=bool)
        laid_writes[:, 0] = True
        laid_writes[:, 1:] = is_write
        last_write = _last_before(laid_writes, flat)
        del laid_writes

        # x at each request and at the last write before it.
        x_before = x_of.take(laid_procs).take(last_write)
        member_self = core.take(procs)
        member_self |= x_before == procs
        # [x ∈ Y] at writes needs p's membership: p is the last write's
        # x, or p's last request came after that write.
        p_in = x_before == p_idx
        del x_before

        previous = _previous_same_processor(laid_procs, n, flat)[:, 1:]
        member_self |= previous > last_write
        del previous
        saving = valid & ~(is_write | member_self)

        p_in |= _last_before(laid_procs == p_idx, flat) > last_write
        del laid_procs
        # [x ∈ Y] at writes: p's membership for writers in F ∪ {p}, the
        # writer's own otherwise.
        primary_writer = in_fp.take(procs)
        x_in = (primary_writer & p_in) | (~primary_writer & member_self)
        del p_in, primary_writer, member_self

        # Saving-reads since the last write: a running sum over the
        # layout, differenced at the request and at the write.
        laid_saving = np.zeros(laid, dtype=bool)
        laid_saving[:, 1:] = saving
        running = np.cumsum(laid_saving.ravel(), dtype=position)
        del laid_saving
        invalidations = running.reshape(laid)[:, :-1] - running.take(last_write)
        del running, last_write
        invalidations += 1
        invalidations -= x_in
        del x_in

        io, control, data = (field[block] for field in counts)
        np.multiply(is_write, size - 1, out=data)
        data += saving
        np.add(data, valid, out=io)
        np.multiply(is_write, invalidations, out=control)
        control += saving
    return counts


def da_request_costs(
    batch: CompiledBatch,
    initial_scheme: Iterable[ProcessorId],
    model: CostModel,
    primary: Optional[ProcessorId] = None,
    threshold: Optional[int] = None,
) -> np.ndarray:
    """DA's ``(B,)`` cost of each trace: :func:`da_request_counts`,
    summed per trace and priced once."""
    counts = da_request_counts(batch, initial_scheme, primary, threshold)
    return schedule_totals(counts, model)


def da_final_schemes(
    batch: CompiledBatch,
    initial_scheme: Iterable[ProcessorId],
    primary: Optional[ProcessorId] = None,
) -> List[ProcessorSet]:
    """The allocation scheme after each trace's last request.

    That is ``F ∪ {x}`` for the trace's last write (``F ∪ {p}`` if it
    has none) plus the readers after it.  Mirrors
    :attr:`OnlineDOM.current_scheme` after
    :meth:`~repro.core.base.OnlineDOM.run`; used by the parity suite.
    """
    scheme, primary = _check_da(batch, initial_scheme, primary, None)
    core = scheme - {primary}
    universe = batch.universe
    procs, is_write = batch.procs, batch.is_write
    position = np.arange(batch.horizon)
    last_write = np.where(is_write, position, -1).max(axis=1, initial=-1)
    readers = batch.valid() & (position > last_write[:, None])
    schemes: List[ProcessorSet] = []
    for row, write_at in enumerate(last_write.tolist()):
        if write_at < 0:
            base = scheme
        else:
            writer = universe[procs[row, write_at]]
            base = core | {primary if writer in scheme else writer}
        joined = np.unique(procs[row][readers[row]]).tolist()
        schemes.append(base | {universe[bit] for bit in joined})
    return schemes


def schedule_totals(counts: RequestCounts, model: CostModel) -> np.ndarray:
    """Per-trace ``(B,)`` totals: each row's counts summed as int64, then
    priced once by :meth:`RequestCounts.priced` — exactly what
    :meth:`CostModel.schedule_cost` does with ``total_breakdown()``, as
    a request's cost is linear in its counts.  No float is folded."""
    sums = RequestCounts(*(field.sum(axis=1, dtype=np.int64) for field in counts))
    return sums.priced(model)
