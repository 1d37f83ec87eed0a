"""Exact offline-optimal DOM via a vectorized bitmask dynamic program.

Paper §4.1 defines competitiveness against *"an offline t-available
constrained DOM algorithm that produces the minimum cost legal
allocation schedule for any input"*.  The paper never spells this
algorithm out (it exists only inside the omitted proofs); we realize it
exactly, for moderate processor counts, by dynamic programming over
allocation schemes:

* **State** — the allocation scheme (a subset of processors of size at
  least ``t``) after a prefix of the schedule, encoded as an int
  bitmask over the instance's universe (bit ``i`` stands for the
  ``i``-th smallest id — :func:`repro.types.mask_of`).
* **Read transition** — a non-saving read keeps the scheme and
  optimally uses a singleton execution set (``{i}`` if the reader is a
  data processor, else the cheapest single data processor: enlarging
  the execution set only adds cost under non-negative prices).  A
  saving-read additionally stores the object at the reader (one extra
  I/O there) and moves to ``scheme ∪ {reader}``.
* **Write transition** — the new scheme equals the write's execution
  set, which may be *any* subset of size at least ``t``.  Naively this
  is ``O(4^n)`` per write (every mask to every target); we instead
  compute ``min over M of dp[M] + (invalidations of M ∖ T)`` for *all*
  targets at once with an ``O(n·2^n)`` bit-at-a-time min-transform over
  dense numpy arrays, plus a per-target base cost (the write-formula
  terms that do not couple to the predecessor state).

**Price tables.**  A step never consults the cost model; it reads the
tables of the requesting processor ``p``, built once per solve and
memoized.  A read by ``p`` uses

* ``io`` — ``p``'s own I/O price (a local read, a saving-read's store);
* ``fetch[mask]`` — the cheapest ``control + io + data`` remote read
  from any member of ``mask``; ``server[mask]`` is that member (lowest
  id on ties), the witness's execution set;

and a write by ``p`` uses

* ``ctrl[bit]`` — the invalidation ``p`` sends to that processor, ``0``
  at ``p`` itself: a writer never invalidates its own copy, so the
  min-transform for a target without the writer already equals the one
  for the target with it, and ``stale[X]`` sums ``ctrl`` over ``X`` for
  the witness walk;
* ``base[T]`` — a write's I/O and data messages over execution set ``T``.

Either cost model fills them.  A homogeneous
:class:`~repro.model.cost_model.CostModel` uses closed forms
(``|T|·c_io + (|T|-1)·c_d`` and so on); a
:class:`~repro.model.heterogeneous.HeterogeneousCostModel` (paper §6's
per-node and per-link prices) sums its per-processor prices over each
mask's bits.  Two builders rather than one because summing a constant
price ``k`` times is not the same float as multiplying it by ``k``: the
closed forms keep the homogeneous optimum in its exact last bits.

Two further devices keep the DP honest and fast:

* **Lower-bound prune** (homogeneous prices only) — SA's cost
  (evaluated in closed form by the vectorized kernel,
  :mod:`repro.kernel`, which prices homogeneously) is a sound upper
  bound on OPT, and every remaining request costs at least ``c_io``
  (read) or ``t·c_io + (t-1)·c_d`` (write); states whose prefix cost
  plus the remaining lower bound exceed the upper bound can never
  complete an optimal schedule and are dropped.
* **Deterministic witness** — every argmin breaks cost ties toward
  the numerically smallest bitmask (and, for reads, toward the
  saving-read's smaller predecessor), so the witness allocation
  schedule is a pure function of the input rather than an artifact of
  iteration order.

Under homogeneous prices only processors that appear in the schedule or
the initial scheme can ever be useful scheme members (membership helps
only local reads and costs invalidations otherwise), so the DP universe
is ``initial_scheme ∪ schedule.processors``.  Heterogeneous prices keep
that universe: a bystander with cheap links could serve reads for less,
so there the result is the optimum over schemes drawn from the
processors the instance names.  The state space is exponential in the
universe; a guard refuses universes above ``max_processors`` (default
14 — the vectorized transform runs a 14-processor universe in well
under a second).  Cost-only solves (:meth:`optimal_cost`) keep one
``2^n`` float array; witness solves additionally store one such array
per request for the backward reconstruction pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.kernel.compile import compile_schedule, popcount
from repro.kernel.evaluate import sa_request_costs
from repro.model.allocation import AllocationSchedule
from repro.model.cost_model import CostModel
from repro.model.heterogeneous import HeterogeneousCostModel
from repro.model.request import ExecutedRequest, Request
from repro.model.schedule import Schedule
from repro.types import (
    ProcessorId,
    ProcessorSet,
    mask_of,
    processor_set,
    set_of_mask,
)

#: Absolute slack added to the prune's upper bound so float noise can
#: never discard a state on the true optimal path.
_PRUNE_SLACK = 1e-9

#: Either pricing the DP solves under.
Prices = Union[CostModel, HeterogeneousCostModel]


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of the offline DP: minimum cost and a witness schedule."""

    cost: float
    allocation: AllocationSchedule

    @property
    def schedule(self) -> Schedule:
        return self.allocation.schedule()


@dataclass(frozen=True)
class _ReadTables:
    """What a read by one processor costs, per scheme mask."""

    io: float
    fetch: np.ndarray
    server: np.ndarray


@dataclass(frozen=True)
class _WriteTables:
    """What a write by one processor costs: per bit, per target, and
    per set of invalidated processors."""

    ctrl: np.ndarray
    base: np.ndarray
    stale: np.ndarray


def _cheapest(
    prices: Sequence[float], universe: Sequence[ProcessorId]
) -> tuple[np.ndarray, np.ndarray]:
    """Per mask, the least price among its members and the member that
    charges it (the lowest id on ties); an empty mask costs infinity."""
    best = np.array([np.inf])
    server = np.array([universe[0]], dtype=np.int64)
    for processor, price in zip(universe, prices):
        cheaper = price < best
        best = np.concatenate([best, np.where(cheaper, price, best)])
        server = np.concatenate([server, np.where(cheaper, processor, server)])
    return best, server


def _subset_sums(values: Sequence[float]) -> np.ndarray:
    """``sums[mask]`` = the sum of ``values`` over the set bits of mask."""
    sums = np.zeros(1)
    for value in values:
        sums = np.concatenate([sums, sums + value])
    return sums


class _HomogeneousTables:
    """Closed-form tables of a :class:`CostModel`.  Every processor
    reads at the same prices, so one read table serves them all."""

    def __init__(
        self,
        model: CostModel,
        universe: Sequence[ProcessorId],
        masks: np.ndarray,
        pop: np.ndarray,
    ) -> None:
        c_io, c_c, c_d = model.c_io, model.c_c, model.c_d
        self.c_c = c_c
        self.n = len(universe)
        self.masks = masks
        self.pop = pop
        fetch = c_c + c_io + c_d
        _, server = _cheapest([fetch] * self.n, universe)
        # One price from every member: a stride-0 view adds as fast as
        # a scalar.
        self.read_tables = _ReadTables(
            c_io, np.broadcast_to(fetch, masks.shape), server
        )
        # A write's I/O and data for a writer inside / outside T.
        self.base_in = pop * c_io + (pop - 1) * c_d
        self.base_out = pop * (c_io + c_d)

    def reads(self, position: int) -> _ReadTables:
        return self.read_tables

    def writes(self, position: int) -> _WriteTables:
        has_bit = (self.masks & (1 << position)) != 0
        ctrl = np.full(self.n, self.c_c)
        ctrl[position] = 0.0
        base = np.where(has_bit, self.base_in, self.base_out)
        return _WriteTables(ctrl, base, (self.pop - has_bit) * self.c_c)


class _HeterogeneousTables:
    """Per-bit sums of a :class:`HeterogeneousCostModel`'s per-node and
    per-link prices."""

    def __init__(
        self, costs: HeterogeneousCostModel, universe: Sequence[ProcessorId]
    ) -> None:
        self.costs = costs
        self.universe = universe

    def reads(self, position: int) -> _ReadTables:
        costs, universe = self.costs, self.universe
        p = universe[position]
        fetch, server = _cheapest(
            [costs.fetch_cost(p, member) for member in universe], universe
        )
        return _ReadTables(costs.io(p), fetch, server)

    def writes(self, position: int) -> _WriteTables:
        costs, universe = self.costs, self.universe
        p = universe[position]
        ctrl = [
            0.0 if member == p else costs.control(p, member)
            for member in universe
        ]
        base = _subset_sums(
            [
                costs.io(member) + (0.0 if member == p else costs.data(p, member))
                for member in universe
            ]
        )
        return _WriteTables(np.array(ctrl), base, _subset_sums(ctrl))


class OfflineOptimal:
    """Exact minimum-cost offline DOM algorithm (the paper's OPT).

    Parameters
    ----------
    cost_model:
        The pricing under which cost is minimized: a homogeneous
        :class:`CostModel` or a :class:`HeterogeneousCostModel`.
    threshold:
        The availability threshold ``t >= 2``.
    max_processors:
        Upper limit on the DP universe size; the state space is
        ``O(2^n)`` and each write transition ``O(n·2^n)``.
    prune:
        Apply the SA-upper-bound / suffix-lower-bound prune (on by
        default; it never changes the optimal cost, only discards
        provably hopeless states).  Only homogeneous prices have the
        kernel's SA bound, so heterogeneous solves never prune.
    """

    def __init__(
        self,
        cost_model: Prices,
        threshold: int = 2,
        max_processors: int = 14,
        prune: bool = True,
    ) -> None:
        if threshold < 2:
            raise ConfigurationError(
                f"the availability threshold t must be at least 2, got {threshold}"
            )
        self.cost_model = cost_model
        self.threshold = threshold
        self.max_processors = max_processors
        self.prune = prune

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        schedule: Schedule,
        initial_scheme: Iterable[int],
    ) -> OptimalResult:
        """Minimum cost and a witness legal, t-available allocation schedule."""
        initial, universe = self._check(schedule, initial_scheme)
        cost, allocation = self._solve(
            schedule, initial, universe, want_witness=True
        )
        assert allocation is not None
        return OptimalResult(cost, allocation)

    def optimal_cost(
        self, schedule: Schedule, initial_scheme: Iterable[int]
    ) -> float:
        """COST_OPT(I, psi): the minimum cost only (no witness memory)."""
        initial, universe = self._check(schedule, initial_scheme)
        cost, _ = self._solve(schedule, initial, universe, want_witness=False)
        return cost

    def _check(
        self, schedule: Schedule, initial_scheme: Iterable[int]
    ) -> tuple[ProcessorSet, list[int]]:
        initial = processor_set(initial_scheme)
        if len(initial) < self.threshold:
            raise ConfigurationError(
                f"initial scheme {sorted(initial)} is smaller than "
                f"t={self.threshold}"
            )
        universe = sorted(initial | schedule.processors)
        if len(universe) > self.max_processors:
            raise ConfigurationError(
                f"DP universe has {len(universe)} processors; the exact "
                f"offline optimum is limited to {self.max_processors} "
                "(use repro.core.offline_bounds for larger instances)"
            )
        return initial, universe

    # -- dynamic programming ---------------------------------------------------

    def _solve(
        self,
        schedule: Schedule,
        initial: ProcessorSet,
        universe: list[int],
        want_witness: bool,
    ) -> tuple[float, Optional[AllocationSchedule]]:
        size = 1 << len(universe)
        masks = np.arange(size, dtype=np.int64)
        pop = popcount(masks)
        invalid_target = pop < self.threshold
        if isinstance(self.cost_model, HeterogeneousCostModel):
            prices = _HeterogeneousTables(self.cost_model, universe)
        else:
            prices = _HomogeneousTables(self.cost_model, universe, masks, pop)
        reads = functools.cache(prices.reads)
        writes = functools.cache(prices.writes)

        bounds = self._prune_bounds(schedule, initial)

        dp = np.full(size, np.inf)
        dp[mask_of(initial, universe)] = 0.0
        history: List[np.ndarray] = []

        for step, request in enumerate(schedule):
            if want_witness:
                history.append(dp)
            position = universe.index(request.processor)
            if request.is_read:
                dp = self._read_step(dp, masks, 1 << position, reads(position))
            else:
                dp = self._write_step(dp, writes(position), invalid_target)
            if bounds is not None:
                suffix_bound, upper_bound = bounds
                hopeless = (
                    dp + suffix_bound[step + 1] > upper_bound + _PRUNE_SLACK
                )
                dp = np.where(hopeless, np.inf, dp)

        best_mask = int(np.argmin(dp))  # first minimum == smallest mask
        best_cost = float(dp[best_mask])
        if not want_witness:
            return best_cost, None
        steps = self._reconstruct(
            schedule, history, best_mask, universe, masks, reads, writes
        )
        allocation = AllocationSchedule(initial, tuple(steps))
        return best_cost, allocation

    def _prune_bounds(
        self, schedule: Schedule, initial: ProcessorSet
    ) -> Optional[tuple[np.ndarray, float]]:
        """Suffix lower bounds per position and SA's cost as an upper bound.

        ``suffix_bound[k]`` under-approximates the cheapest possible
        cost of requests ``k..end`` from *any* state: a read costs at
        least one local I/O and a write at least ``t`` I/Os plus
        ``t - 1`` data messages (execution sets have size >= t).  SA
        over the full initial scheme is legal and t-available, so its
        closed-form kernel cost bounds OPT from above.  ``None`` when
        nothing is pruned: the prune is off, the schedule is empty, or
        the prices are heterogeneous.
        """
        model = self.cost_model
        if not (self.prune and isinstance(model, CostModel) and len(schedule)):
            return None
        t = self.threshold
        lb_read = model.c_io
        lb_write = t * model.c_io + (t - 1) * model.c_d
        suffix = np.zeros(len(schedule) + 1)
        running = 0.0
        for position in range(len(schedule) - 1, -1, -1):
            running += lb_write if schedule[position].is_write else lb_read
            suffix[position] = running
        batch = compile_schedule(schedule, initial)
        costs = sa_request_costs(batch, initial, model, t)
        return suffix, float(costs.sum())

    @staticmethod
    def _read_step(
        dp: np.ndarray, masks: np.ndarray, bit: int, tables: _ReadTables
    ) -> np.ndarray:
        has_reader = (masks & bit) != 0
        # Member: local read.  Non-member: on-demand non-saving fetch.
        fetched = dp + tables.fetch
        new_dp = np.where(has_reader, dp + tables.io, fetched)
        # Saving-read: mask -> mask | bit at one extra I/O.  Sources
        # map injectively onto targets, so a plain minimum suffices.
        sources = ~has_reader
        targets = masks[sources] | bit
        saving = fetched[sources] + tables.io
        new_dp[targets] = np.minimum(new_dp[targets], saving)
        return new_dp

    @staticmethod
    def _write_step(
        dp: np.ndarray, tables: _WriteTables, invalid_target: np.ndarray
    ) -> np.ndarray:
        """All write transitions at once via the O(n·2^n) min-transform.

        ``transform[T] = min over M of dp[M] + ctrl·(M ∖ T)`` — bits of
        the predecessor outside the target each cost one invalidation.
        Processing one bit position at a time: a target containing bit
        ``b`` absorbs predecessors with or without ``b`` for free; a
        target without it pays ``ctrl[b]`` to absorb predecessors with
        it.  The writer's ``ctrl`` is 0: it is never invalidated.
        """
        transform = dp.copy()
        for position, ctrl in enumerate(tables.ctrl):
            shaped = transform.reshape(-1, 2, 1 << position)
            low = shaped[:, 0, :]
            high = shaped[:, 1, :]
            # In place: the new low half reads the old high half.
            new_low = np.minimum(low, high + ctrl)
            np.minimum(high, low, out=high)
            low[...] = new_low
        new_dp = transform + tables.base
        new_dp[invalid_target] = np.inf
        return new_dp

    # -- witness reconstruction ------------------------------------------------

    def _reconstruct(
        self,
        schedule: Schedule,
        history: List[np.ndarray],
        final_mask: int,
        universe: list[int],
        masks: np.ndarray,
        reads: Callable[[int], _ReadTables],
        writes: Callable[[int], _WriteTables],
    ) -> List[ExecutedRequest]:
        """Walk backward from the best final mask, recomputing each
        step's candidate costs and taking deterministic argmins
        (smallest predecessor mask on ties)."""
        steps: List[ExecutedRequest] = []
        mask = final_mask
        for step in range(len(schedule) - 1, -1, -1):
            request = schedule[step]
            position = universe.index(request.processor)
            tables = (reads if request.is_read else writes)(position)
            mask, executed = self._reconstruct_step(
                request, history[step], mask, 1 << position,
                universe, masks, tables,
            )
            steps.append(executed)
        steps.reverse()
        return steps

    @staticmethod
    def _reconstruct_step(
        request: Request,
        dp_prev: np.ndarray,
        mask: int,
        bit: int,
        universe: list[int],
        masks: np.ndarray,
        tables: Union[_ReadTables, _WriteTables],
    ) -> tuple[int, ExecutedRequest]:
        if request.is_read:
            if mask & bit:
                saving_pred = mask & ~bit
                saving_value = (
                    dp_prev[saving_pred] + tables.fetch[saving_pred]
                ) + tables.io
                local_value = dp_prev[mask] + tables.io
                # Tie-break toward the smaller predecessor mask — the
                # saving-read's source (mask minus the reader's bit).
                if saving_value <= local_value:
                    server = int(tables.server[saving_pred])
                    executed = ExecutedRequest(
                        request, frozenset({server}), saving=True
                    )
                    return saving_pred, executed
                executed = ExecutedRequest(
                    request, frozenset({request.processor})
                )
                return mask, executed
            server = int(tables.server[mask])
            return mask, ExecutedRequest(request, frozenset({server}))
        # Write: the scheme after the request IS the execution set; any
        # predecessor is possible, priced by its invalidations.
        candidates = dp_prev + (tables.base[mask] + tables.stale[masks & ~mask])
        predecessor = int(np.argmin(candidates))  # smallest mask on ties
        executed = ExecutedRequest(request, set_of_mask(mask, universe))
        return predecessor, executed


def optimal_cost(
    schedule: Schedule,
    initial_scheme: Iterable[int],
    cost_model: Prices,
    threshold: int = 2,
    max_processors: int = 14,
) -> float:
    """Convenience wrapper: COST of the optimal offline DOM algorithm."""
    solver = OfflineOptimal(cost_model, threshold, max_processors)
    return solver.optimal_cost(schedule, initial_scheme)


def optimal_allocation(
    schedule: Schedule,
    initial_scheme: Iterable[int],
    cost_model: Prices,
    threshold: int = 2,
    max_processors: int = 14,
) -> AllocationSchedule:
    """Convenience wrapper: a witness optimal allocation schedule."""
    solver = OfflineOptimal(cost_model, threshold, max_processors)
    return solver.solve(schedule, initial_scheme).allocation
