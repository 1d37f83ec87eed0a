"""Uniformly random workloads.

The simplest "chaotic" access pattern of the paper's §5.1 discussion:
every request is issued by a uniformly random processor and is a write
with a fixed probability.  Uniform workloads are the backbone of the
empirical region maps (Figures 1 and 2): they exercise both algorithms
without favouring either by construction.

The stream is defined by the per-request loop of
:func:`generate_stepwise`: one ``choice`` over the processors, then one
``random()`` compared with the write fraction.  :func:`generate_decoded`
produces the identical trace without a Python call per request.  It
relies on how CPython's ``random.Random`` (3.11 to 3.13) spends its
32-bit MT19937 words:

* ``choice`` over n items takes the top ``k = n.bit_length()`` bits of
  one word, and draws again while that value is ``>= n``;
* ``random()`` takes two words ``a`` and ``b`` and returns
  ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
* ``getrandbits(32 * m)`` packs the next m words into one integer, the
  first word least significant.

The decoder draws words in bulk with ``getrandbits`` and replays the
first two rules over whole arrays of them.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

import numpy as np

from repro.model.request import read, write
from repro.model.schedule import Schedule
from repro.types import ProcessorId
from repro.engine.seeding import SeedLike, rng_from
from repro.workloads.generator import WorkloadGenerator, validate_write_fraction

#: Most MT19937 words the decoder draws at once.  It bounds the
#: decoder's working memory (about 2 MB) whatever the trace length.
CHUNK_WORDS = 1 << 16


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
        # Row ``2*i + is_write`` is the i-th processor's interned request.
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
        # ``SystemRandom`` keeps no state to decode, and a subclass may
        # redefine ``random()``: only exact ``Random`` streams decode.
        if isinstance(seed, random.Random) and type(seed) is not random.Random:
            return generate_stepwise(self, seed)
        return generate_decoded(self, seed)

    def _schedule(self, index: np.ndarray, is_write: np.ndarray) -> Schedule:
        """The schedule of processor positions ``index`` and kinds."""
        rows = 2 * index.astype(np.intp) + is_write
        return Schedule.with_columns(
            tuple(self._requests[rows].tolist()),
            self._processor_ids[index],
            is_write,
        )


def generate_stepwise(workload: UniformWorkload, seed: SeedLike) -> Schedule:
    """The reference stream: per request, one ``choice`` over the
    processor positions, then one ``random()`` against the write
    fraction (the left operand of ``+`` is drawn first)."""
    rng = rng_from(seed)
    choice, random_ = rng.choice, rng.random
    positions = range(len(workload.processors))
    write_fraction = workload.write_fraction
    codes = np.array(
        [
            2 * choice(positions) + (random_() < write_fraction)
            for _ in range(workload.length)
        ],
        dtype=np.int64,
    )
    return workload._schedule(codes >> 1, (codes & 1).astype(bool))


def generate_decoded(workload: UniformWorkload, seed: SeedLike) -> Schedule:
    """:func:`generate_stepwise`'s schedule, decoded from the MT19937
    words of ``seed`` in chunks of at most :data:`CHUNK_WORDS` words.

    A caller-owned ``random.Random`` ends in the state the stepwise
    loop leaves it in.
    """
    rng = rng_from(seed)
    n = len(workload.processors)
    shift = 32 - n.bit_length()
    # Expected words per request: 2**k / n per choice, two per random().
    # Each draw asks for a little more than the requests still owed
    # need, so one draw usually finishes a trace shorter than a chunk.
    words_per_request = 2 + 2 ** n.bit_length() / n
    index = np.empty(workload.length, np.min_scalar_type(n - 1))
    is_write = np.empty(workload.length, bool)
    tail = np.empty(0, dtype=np.uint32)
    done = 0
    while done < workload.length:
        remaining = workload.length - done
        before = rng.getstate()
        count = min(CHUNK_WORDS, math.ceil(remaining * words_per_request * 1.01) + 64)
        fresh = np.frombuffer(
            rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4"
        )
        words = np.concatenate((tail, fresh))
        chosen = _choice_words((words >> shift) < n, remaining)
        filled = slice(done, done + chosen.size)
        index[filled] = words[chosen] >> shift
        high, low = words[chosen + 1] >> 5, words[chosen + 2] >> 6
        floats = (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)
        is_write[filled] = floats < workload.write_fraction
        done += chosen.size
        tail = words[chosen[-1] + 3 :] if chosen.size else words
    if isinstance(seed, random.Random) and workload.length:
        # Replay the last draw only up to the last word a request used.
        rng.setstate(before)
        rng.getrandbits(32 * (fresh.size - tail.size))
    return workload._schedule(index, is_write)


def _choice_words(accepted: np.ndarray, limit: int) -> np.ndarray:
    """Word positions of the ``choice`` draws of the first requests
    (at most ``limit``) that start at word 0 and end inside the buffer.

    ``accepted`` marks the words a ``choice`` would keep.  A request
    starting at word s chooses at the first accepted word c >= s and
    the next request starts at c + 3, after the two ``random()`` words.
    The chain is followed by pointer doubling: ``jump`` maps a
    candidate to its 2**m-th successor, and each round appends the
    images of the chain so far, doubling it.
    """
    # A choice word is usable only with both random() words after it.
    candidates = np.flatnonzero(accepted[: accepted.size - 2])
    end = candidates.size
    if not end:
        return candidates
    # Candidates are distinct words, so the first one at least 3 words
    # on is one of the next three.
    ahead = np.append(candidates, (candidates[-1] + 3, candidates[-1] + 3))
    jump = np.arange(1, end + 2)
    jump[:end] += ahead[1:-1] - candidates < 3
    jump[:end] += ahead[2:] - candidates < 3
    jump[end] = end
    chain = np.zeros(1, dtype=np.intp)
    while chain.size < limit and chain[-1] != end:
        chain = np.concatenate((chain, jump[chain]))
        jump = jump[jump]
    chain = chain[:limit]
    return candidates[chain[chain != end]]
