"""Uniformly random workloads.

The simplest "chaotic" access pattern of the paper's §5.1 discussion:
every request is issued by a uniformly random processor and is a write
with a fixed probability.  Uniform workloads are the backbone of the
empirical region maps (Figures 1 and 2): they exercise both algorithms
without favouring either by construction.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.model.request import read, write
from repro.model.schedule import Schedule
from repro.types import ProcessorId
from repro.engine.seeding import SeedLike, rng_from
from repro.workloads.generator import WorkloadGenerator, validate_write_fraction


class UniformWorkload(WorkloadGenerator):
    """Uniformly random issuer, fixed write fraction."""

    def __init__(
        self,
        processors: Iterable[ProcessorId],
        length: int,
        write_fraction: float = 0.2,
    ) -> None:
        super().__init__(processors, length)
        self.write_fraction = validate_write_fraction(write_fraction)
        # Request code ``2*i + is_write`` for the i-th processor: the
        # table row of its interned request and its columnar entries.
        self._codes = tuple(
            (2 * i, 2 * i + 1) for i in range(len(self.processors))
        )
        self._requests = np.array(
            [
                request
                for processor in self.processors
                for request in (read(processor), write(processor))
            ],
            dtype=object,
        )
        self._processor_ids = np.array(self.processors, dtype=np.int64)

    def generate(self, seed: SeedLike = 0) -> Schedule:
        # Per request: one ``choice`` then one ``random`` draw, as ever
        # (the subscripted call is evaluated before its index).  A
        # ``choice`` over the n code pairs draws exactly the index that
        # ``choice(self.processors)`` would, so the stream is unchanged.
        rng = rng_from(seed)
        choice, random = rng.choice, rng.random
        pairs, write_fraction = self._codes, self.write_fraction
        codes = np.array(
            [choice(pairs)[random() < write_fraction] for _ in range(self.length)],
            dtype=np.int64,
        )
        return Schedule.with_columns(
            tuple(self._requests[codes].tolist()),
            self._processor_ids[codes >> 1],
            (codes & 1).astype(bool),
        )
