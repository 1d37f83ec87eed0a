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
* the words come from the 624-word key and position that ``getstate()``
  exposes, exactly as ``numpy.random.MT19937`` spends the same state.

The decoder copies the ``Random``'s state into one shared
``numpy.random.MT19937``, draws its words in bulk as uint32 and
replays the first two rules over whole arrays of them; the first word
of a ``random()`` alone decides ``random() < wf`` but for rare ties.  A
caller-owned ``Random`` is then set to the state after the last word a
request used, its cached ``gauss`` value kept.  The schedule the
decoder returns is held as its two columns
(:meth:`Schedule.from_columns`); its ``Request`` tuple is built from an
interned table only if something reads it, which the kernel never
does.
"""

from __future__ import annotations

import math
import random
import threading
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

        def build() -> tuple:
            rows = 2 * index.astype(np.intp) + is_write
            return tuple(self._requests[rows].tolist())

        return Schedule.from_columns(self._processor_ids[index], is_write, build)


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

    A caller-owned ``Random`` ends in the state the stepwise loop
    leaves it in.
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
    done = drawn = 0
    with _BITS_LOCK:
        _copy_state(rng)
        while done < workload.length:
            remaining = workload.length - done
            count = min(
                CHUNK_WORDS, math.ceil(remaining * words_per_request * 1.01) + 64
            )
            fresh = _WORDS.integers(0, 1 << 32, count, dtype=np.uint32)
            drawn += count
            words = np.concatenate((tail, fresh)) if tail.size else fresh
            top = words >> shift
            chosen = _choice_words(top < n, remaining)
            filled = slice(done, done + chosen.size)
            index[filled] = top[chosen]
            is_write[filled] = _write_test(words, chosen, workload.write_fraction)
            done += chosen.size
            tail = words[chosen[-1] + 3 :] if chosen.size else words
        if isinstance(seed, random.Random):
            _advance(rng, drawn - tail.size)
    return workload._schedule(index, is_write)


#: The bit generator every decode draws its words from.  Building one
#: costs more than copying a state into it, so the decoders share it,
#: one at a time under :data:`_BITS_LOCK`.  (Its own ``lock`` is taken
#: inside each call; holding it across calls would need it to be
#: re-entrant, which numpy does not promise.)
_BITS = np.random.MT19937(0)
_BITS_LOCK = threading.Lock()
#: Draws :data:`_BITS`'s words as uint32: over the full 32-bit range,
#: ``integers`` spends one ``next_uint32``, the ``random_raw`` word, a value.
_WORDS = np.random.Generator(_BITS)


def _write_test(
    words: np.ndarray, chosen: np.ndarray, write_fraction: float
) -> np.ndarray:
    """``random() < write_fraction`` for the requests whose ``choice``
    words are at ``chosen``, the ``random()`` words ``a`` and ``b``
    after each.  ``random()`` is below the fraction exactly when its 53
    bits ``(a >> 5) << 26 | b >> 6`` are below ``ceil(write_fraction *
    2**53)``, so ``a`` alone decides unless ``a >> 5`` equals that
    bound's top 27 bits, ``tie``.  Only those ties (probability
    ``2**-27``) gather ``b`` and take ``random()``'s float formula.  At
    a fraction of 1.0, ``tie << 5`` is ``2**32``: every request writes."""
    tie = math.ceil(write_fraction * 2**53) >> 26
    first = words[chosen + 1]
    writes = first < tie << 5
    ties = np.flatnonzero(first >> 5 == tie)
    high, low = first[ties] >> 5, words[chosen[ties] + 2] >> 6
    floats = (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)
    writes[ties] = floats < write_fraction
    return writes


def _copy_state(rng: random.Random) -> None:
    """Copy ``rng``'s MT19937 key and position into :data:`_BITS`, whose
    ``random_raw(m)`` then gives, as uint32, the m words that
    ``rng.getrandbits(32 * m)`` would pack (first word least
    significant).  The caller holds :data:`_BITS_LOCK`; ``rng`` is not
    advanced."""
    internal = rng.getstate()[1]
    _BITS.state = {
        "bit_generator": "MT19937",
        "state": {"key": internal[:-1], "pos": internal[-1]},
    }


def _advance(rng: random.Random, words: int) -> None:
    """Advance ``rng`` by ``words`` 32-bit words, as ``getrandbits(32 *
    words)`` would, keeping its cached ``gauss`` value.  The caller
    holds :data:`_BITS_LOCK`; :data:`_BITS` is left in the new state."""
    _copy_state(rng)
    _BITS.random_raw(words, output=False)
    state = _BITS.state["state"]
    version, _, gauss_next = rng.getstate()
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))


def _choice_words(accepted: np.ndarray, limit: int) -> np.ndarray:
    """Word positions of the ``choice`` draws of the first requests
    (at most ``limit``) that start at word 0 and end inside the buffer.

    ``accepted`` marks the words a ``choice`` would keep.  A request
    starting at word s chooses at the first accepted word c >= s and
    the next request starts at c + 3, after the two ``random()`` words:
    a three-state automaton (:data:`_SEEK`, then two skips) that
    chooses only on an accepted word in :data:`_SEEK`.  The words are
    packed eight to a byte; each byte's transition map comes from a
    table, a parallel prefix composes the maps to give every byte its
    entry state, and a second table gives the words each byte chooses.
    """
    # A choice word is usable only with both random() words after it;
    # the zero bits that pad the last byte choose nothing.
    packed = np.packbits(accepted[: max(accepted.size - 2, 0)], bitorder="little")
    if not packed.size:
        return np.empty(0, dtype=np.intp)
    maps = _BYTE_MAP.take(packed)
    entry = np.zeros(packed.size, dtype=np.uint16)
    # A map's image of _SEEK is its low base-3 digit.
    entry[1:] = _prefix(maps[:-1]) % 3
    chosen = _BYTE_CHOSEN.take(entry * 256 + packed)
    return np.flatnonzero(np.unpackbits(chosen, bitorder="little").view(bool))[:limit]


def _prefix(maps: np.ndarray) -> np.ndarray:
    """Inclusive prefix compositions of the map codes ``maps``: entry i
    is ``maps[i]`` after ... after ``maps[0]``.  Work-efficient: each
    level composes neighbouring pairs, recurses on the half as long
    array of pairs, then fills in the even positions."""
    if maps.size < 2:
        return maps
    pairs = _COMPOSE.take(maps[0 : maps.size - 1 : 2] * np.uint16(27) + maps[1::2])
    odd = _prefix(pairs)
    out = np.empty_like(maps)
    out[0] = maps[0]
    out[1::2] = odd
    out[2::2] = _COMPOSE.take(odd[: (maps.size - 1) // 2] * np.uint16(27) + maps[2::2])
    return out


#: The automaton's states: seek a choice word, skip the first
#: ``random()`` word, skip the second.
_SEEK, _SKIP_FIRST, _SKIP_SECOND = range(3)


def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan's three tables, built once at import (1.7 kB).

    A map on the three states is coded as its images in base 3, the
    image of :data:`_SEEK` lowest, so there are 27 codes.
    """
    # Every (entry state, byte) pair at once, eight words in turn,
    # least significant bit first.
    state = np.repeat(np.arange(3), 256)
    byte = np.tile(np.arange(256), 3)
    chosen = np.zeros(3 * 256, dtype=np.uint8)
    for bit in range(8):
        choose = (state == _SEEK) & (byte >> bit & 1 == 1)
        chosen |= choose.astype(np.uint8) << bit
        state = np.where(state == _SEEK, choose * _SKIP_FIRST, (state + 1) % 3)
    byte_map = (state.reshape(3, 256).T @ [1, 3, 9]).astype(np.uint8)
    # images[code, s]: where the map ``code`` sends state s.
    images = np.arange(27)[:, None] // 3 ** np.arange(3) % 3
    # then after first: images[then, images[first, s]].
    composed = images[np.arange(27)[None, :, None], images[:, None, :]]
    compose = (composed @ [1, 3, 9]).astype(np.uint8).reshape(-1)
    return byte_map, chosen, compose


#: ``_BYTE_MAP[byte]``: the byte's transition map, as a code in 0..26.
#: ``_BYTE_CHOSEN[256 * state + byte]``: the words the byte chooses
#: when entered in ``state``, as a bit mask.
#: ``_COMPOSE[27 * first + then]``: the code of ``then`` after ``first``.
_BYTE_MAP, _BYTE_CHOSEN, _COMPOSE = _byte_tables()
