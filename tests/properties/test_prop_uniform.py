"""Property tests: the decoded uniform stream is the stepwise stream.

:func:`~repro.workloads.uniform.generate_decoded` replays CPython's
``choice``/``random()`` word rules over arrays of MT19937 words in
chunks.  It must give exactly what the per-request loop
:func:`~repro.workloads.uniform.generate_stepwise` gives — the same
requests, the same columns — and leave a caller-owned ``Random`` in
the same state.  Tiny chunks make every trace cross chunk boundaries.
The word source — a ``Random``'s state copied into numpy's MT19937 —
is checked on its own against ``getrandbits``, and under threads that
share it.  The chain of ``choice`` words inside one buffer is checked
on its own against a word-by-word loop, and the one-word write test
against ``random()``'s float formula on hand-built words.
"""

from __future__ import annotations

import math
import random
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import uniform
from repro.workloads.uniform import (
    UniformWorkload,
    generate_decoded,
    generate_stepwise,
)

#: 1 to 70 processors, with the rejection edge cases 1, 2, 2**m and
#: 2**m + 1 drawn often.  At 2**m - 1 nearly every word is accepted,
#: so the choice chain runs long stretches without resynchronizing.
PROCESSOR_COUNTS = st.one_of(
    st.sampled_from(
        [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 1023, 1024, 1025]
    ),
    st.integers(min_value=1, max_value=70),
)
WRITE_FRACTIONS = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)
LENGTHS = st.one_of(st.sampled_from([0, 1]), st.integers(min_value=0, max_value=300))


def assert_same(workload, rng, chunk_words):
    """Decode from a copy of ``rng``'s state and compare with stepping."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    expected = generate_stepwise(workload, rng)
    with mock.patch.object(uniform, "CHUNK_WORDS", chunk_words):
        decoded = generate_decoded(workload, twin)
    assert decoded.requests == expected.requests
    assert np.array_equal(decoded.columns.processors, expected.columns.processors)
    assert np.array_equal(decoded.columns.is_write, expected.columns.is_write)
    assert decoded.columns.processors.dtype == np.int64
    assert decoded.columns.is_write.dtype == bool
    assert twin.getstate() == rng.getstate()


@settings(max_examples=200, deadline=None)
@given(
    count=PROCESSOR_COUNTS,
    write_fraction=WRITE_FRACTIONS,
    length=LENGTHS,
    chunk_words=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**64),
    skip=st.integers(min_value=0, max_value=700),
    gauss=st.booleans(),
)
def test_decoded_stream_is_the_stepwise_stream(
    count, write_fraction, length, chunk_words, seed, skip, gauss
):
    workload = UniformWorkload(range(10, 10 + count), length, write_fraction)
    rng = random.Random(seed)
    # Start anywhere in the 624-word block, with or without a cached gauss.
    rng.getrandbits(32 * skip)
    if gauss:
        rng.gauss()
    assert_same(workload, rng, chunk_words)


@settings(max_examples=20, deadline=None)
@given(
    count=PROCESSOR_COUNTS,
    write_fraction=WRITE_FRACTIONS,
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_int_seed_matches_stepping_across_default_chunks(count, write_fraction, seed):
    """Long enough for several full-size chunks of the default size."""
    workload = UniformWorkload(range(count), 40_000, write_fraction)
    assert workload.generate(seed) == generate_stepwise(workload, seed)


def state_at(seed, pos, gauss_next):
    """``Random(seed)``'s key with its position set to ``pos`` (0 to
    624; 624 regenerates the key before the next word)."""
    version, internal, _ = random.Random(seed).getstate()
    rng = random.Random()
    rng.setstate((version, internal[:-1] + (pos,), gauss_next))
    return rng


#: Draw sizes that end just before, on and just after the chunk size.
DRAWS = [
    (1,),
    (uniform.CHUNK_WORDS - 1, 1),
    (uniform.CHUNK_WORDS, 3),
    (2, uniform.CHUNK_WORDS + 1),
]


@pytest.mark.parametrize("pos", [0, 1, 623, 624])
@pytest.mark.parametrize("gauss_next", [None, 0.25], ids=["no-gauss", "gauss"])
@pytest.mark.parametrize("draws", DRAWS, ids=["one", "chunk-1", "chunk", "chunk+1"])
@pytest.mark.parametrize("unused", [0, 1, 5])
def test_word_source_is_getrandbits(pos, gauss_next, draws, unused):
    """The shared bit generator draws the words ``getrandbits`` packs,
    both as ``random_raw`` (which ``_advance`` spends) and as the
    decoder's uint32 ``integers``, and advancing the source by the
    words used leaves it where ``getrandbits`` over those words leaves
    it, its gauss kept."""
    seed = 2**200 + pos
    rng, twin = state_at(seed, pos, gauss_next), state_at(seed, pos, gauss_next)
    with uniform._BITS_LOCK:
        uniform._copy_state(rng)
        words = np.concatenate([uniform._BITS.random_raw(m) for m in draws])
        uniform._copy_state(rng)
        drawn = np.concatenate(
            [uniform._WORDS.integers(0, 1 << 32, m, dtype=np.uint32) for m in draws]
        )
        assert rng.getstate() == twin.getstate()
        used = max(words.size - unused, 0)
        uniform._advance(rng, used)
    total = sum(draws)
    packed = twin.getrandbits(32 * total).to_bytes(4 * total, "little")
    expected = np.frombuffer(packed, "<u4").tolist()
    assert words.astype(np.uint32).tolist() == expected
    assert drawn.dtype == np.uint32 and drawn.tolist() == expected
    twin = state_at(seed, pos, gauss_next)
    if used:
        twin.getrandbits(32 * used)
    assert rng.getstate() == twin.getstate()
    assert rng.getstate()[2] == gauss_next
    assert rng.random() == twin.random()


#: Write fractions at the edges of the 53-bit grid and inside it.
EDGE_FRACTIONS = [0.0, 2**-53, 0.2, 0.5, 1 - 2**-53, 1.0]


@pytest.mark.parametrize("write_fraction", EDGE_FRACTIONS)
def test_write_test_is_the_float_formula(write_fraction):
    """The one-word write test, on first words just below, at the
    bottom and top of, and just above the tie range of ``a >> 5 ==
    bound >> 26``, each with second words around the bound's low 26
    bits: it must be ``random() < write_fraction``, with ``random()``
    CPython's ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``."""
    bound = math.ceil(write_fraction * 2**53)
    tie, low = bound >> 26, bound % 2**26
    firsts = [(tie << 5) - 1, tie << 5, (tie << 5) + 31, (tie + 1) << 5]
    seconds = [0, (low - 1) << 6, (low << 6) - 1, low << 6, (low + 1) << 6, 2**32 - 1]
    pairs = [
        (a, b)
        for a in firsts
        for b in seconds
        if 0 <= a < 2**32 and 0 <= b < 2**32
    ]
    # Each request is a choice word (unread here) and its two words.
    words = np.array([w for a, b in pairs for w in (7, a, b)], dtype=np.uint32)
    chosen = np.arange(0, words.size, 3)
    expected = [
        ((a >> 5) * 67108864.0 + (b >> 6)) / 9007199254740992.0 < write_fraction
        for a, b in pairs
    ]
    writes = uniform._write_test(words, chosen, write_fraction)
    assert writes.dtype == bool
    assert writes.tolist() == expected
    if write_fraction == 1.0:
        assert all(expected)


def test_threads_share_the_word_source():
    """Decodes on several threads take turns with the one shared bit
    generator: each gets its own stream, and each caller-owned
    ``Random`` ends where stepping leaves it."""
    workload = UniformWorkload(range(5), 3_000, 0.3)
    expected = {seed: generate_stepwise(workload, seed) for seed in range(8)}
    after = {}
    for seed in expected:
        stepped = random.Random(seed)
        generate_stepwise(workload, stepped)
        after[seed] = stepped.getstate()
    failures = []

    def decode(seeds):
        for _ in range(5):
            for seed in seeds:
                owned = random.Random(seed)
                if generate_decoded(workload, owned) != expected[seed]:
                    failures.append(("owned", seed))
                if owned.getstate() != after[seed]:
                    failures.append(("state", seed))
                if generate_decoded(workload, seed) != expected[seed]:
                    failures.append(("int", seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=decode, args=([i, i + 4],)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def first_words(seed, count):
    """The first ``count`` 32-bit words of ``Random(seed)``."""
    bits = random.Random(seed).getrandbits(32 * count)
    return [bits >> 32 * i & 0xFFFFFFFF for i in range(count)]


def test_choice_word_last_in_its_chunk():
    """The first request chooses at the last word of the first chunk."""
    count, chunk_words = 5, 4
    cutoff = count << (32 - count.bit_length())
    for seed in range(10_000):
        accepted = [word < cutoff for word in first_words(seed, chunk_words)]
        if accepted == [False, False, False, True]:
            break
    else:
        raise AssertionError("no seed chooses at word 3")
    for length in (1, 2, 5):
        workload = UniformWorkload(range(count), length, 0.5)
        assert_same(workload, random.Random(seed), chunk_words)


def reference_choice_words(accepted, limit):
    """Word by word: a word is chosen iff it is accepted, neither of the
    two words before it was chosen, and both its ``random()`` words are
    inside the buffer; the first ``limit`` are kept."""
    chosen = []
    for word, keep in enumerate(accepted.tolist()):
        if keep and word + 2 < accepted.size and not (chosen and chosen[-1] > word - 3):
            chosen.append(word)
    return chosen[:limit]


@st.composite
def choice_buffers(draw):
    """``(accepted, limit)``: runs of words, each with its own acceptance
    density from 0 to 1, so long clusters with gaps of 1 and 2 occur
    next to sparse stretches.  Short runs sit around the edges of the
    8-word bytes the scan packs the words into."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    runs = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.one_of(
                    st.integers(0, 3),
                    st.integers(6, 10),
                    st.integers(14, 18),
                    st.integers(0, 400),
                ),
            ),
            max_size=4,
        )
    )
    accepted = np.array(
        [rng.random() < density for density, size in runs for _ in range(size)],
        dtype=bool,
    )
    return accepted, draw(st.integers(min_value=0, max_value=accepted.size))


@settings(max_examples=200, deadline=None)
@given(buffer=choice_buffers())
def test_choice_words_match_the_word_loop(buffer):
    accepted, limit = buffer
    chosen = uniform._choice_words(accepted, limit)
    assert chosen.tolist() == reference_choice_words(accepted, limit)


#: Leading words that enter the next word in each automaton state: a
#: chosen word is followed by its two ``random()`` words.
ENTRY_PREFIXES = {
    uniform._SEEK: [],
    uniform._SKIP_FIRST: [True],
    uniform._SKIP_SECOND: [True, False],
}


def test_byte_tables_match_the_word_loop():
    """For every entry state and byte, the scan's tables agree with
    :func:`reference_choice_words` run over the byte's eight words."""
    for state, prefix in ENTRY_PREFIXES.items():
        for byte in range(256):
            bits = [bool(byte >> bit & 1) for bit in range(8)]
            # Two trailing words let a choice at the byte's last word count.
            accepted = np.array(prefix + bits + [False, False], dtype=bool)
            chosen = reference_choice_words(accepted, accepted.size)
            if prefix:
                assert chosen[0] == 0
            mask = sum(
                1 << word - len(prefix) for word in chosen if word >= len(prefix)
            )
            assert uniform._BYTE_CHOSEN[256 * state + byte] == mask
            # The state entering the word after the byte.
            last = chosen[-1] - len(prefix) if chosen else -3
            after = 8 - last if 8 - last < 3 else uniform._SEEK
            code = int(uniform._BYTE_MAP[byte])
            assert code // 3**state % 3 == after


def test_compose_table_composes():
    def image(code, state):
        return code // 3**state % 3

    for first in range(27):
        for then in range(27):
            code = int(uniform._COMPOSE[27 * first + then])
            for state in range(3):
                assert image(code, state) == image(then, image(first, state))
