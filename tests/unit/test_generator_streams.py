"""Pinned generator streams: golden digests of generated traces.

Every cached sweep result and published figure is keyed by a seed and
assumes the generator turns that seed into the same trace forever.  Any
change to a stream — the order of RNG draws, how a draw maps to a
processor, the request kinds — changes a digest here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.workloads.hotspot import ReaderWriterWorkload, ZipfWorkload
from repro.workloads.markov import MarkovWorkload
from repro.workloads.mobility import MobileLocationWorkload
from repro.workloads.uniform import UniformWorkload

SEEDS = (0, 1, 20240607)

GENERATORS = {
    "uniform": lambda: UniformWorkload(range(1, 9), 400, 0.3),
    "uniform-sparse": lambda: UniformWorkload((2, 5, 11, 40, 97), 400, 0.2),
    # The live workloads' shape, long enough to span several decode chunks.
    "uniform-live": lambda: UniformWorkload(range(1, 9), 200_000, 0.2),
    "zipf": lambda: ZipfWorkload(range(1, 9), 400, 0.2, exponent=1.2),
    "reader-writer": lambda: ReaderWriterWorkload(range(3, 9), (1, 2), 400, 0.25),
    "markov": lambda: MarkovWorkload(range(1, 7), 400, 0.2, 0.9, 0.7),
    "mobility": lambda: MobileLocationWorkload((1, 2, 3, 4), (5, 6, 7, 8, 9), 400, 0.3),
}

#: SHA-256 of ``str(generate(seed))`` per (generator, seed).
GOLDEN = {
    ("markov", 0): "70d979921e79e52d999b03ff996133f5e277374d49a9fdfe9ab27069b5dfab41",
    ("markov", 1): "b7aa292eb1072ae5921d8901caedbbbeea411535abad61e1fec5e8777e459d3e",
    ("markov", 20240607): "7cfa129a9d23def2287e4c661ed15f210a2618020fd67d6b4336be31e34a7c84",
    ("mobility", 0): "04d1257e572d04862dc4c6556df96421f4adf97098eac27b0b051b6809ff9931",
    ("mobility", 1): "24b20049819b7de702695ac36e97ea9c42d56c07ded3dc3739da0e282e9f3db5",
    ("mobility", 20240607): "a349b28a51de3d4179bb2fd651ccfebfece71a928a38a8e657438276f63ab596",
    ("reader-writer", 0): "ca74753f05cb57334be5a83d8cdb1802cd9184c8a9127df9a9b434c172b449e2",
    ("reader-writer", 1): "62d39e5f599a631cb3492d79617444264aa21faf5a8f0175150a4f5739f0299c",
    ("reader-writer", 20240607): "45aa45a3fbb9bc90de07040eb3eeda3ead76ff23db38753c6214d9d486706b8d",
    ("uniform", 0): "d8850cb1f1d317e09755fd65b2f95528362b24170034d398453d0cc7f2999784",
    ("uniform", 1): "c88099584ea123c446200e4bd0fa02b2508f2c601249fa245d666643c58f91ff",
    ("uniform", 20240607): "75337703cd45231d9e928dc82712bb6dc2f711e7586ec8b00975e8bea172705e",
    ("uniform-live", 0): "915259bf97c8c2dc69c6b500858f60906c421f8cf25441ecac0723e9d8a4f8f4",
    ("uniform-live", 1): "4009dff230acd9dfada18ed0dd72314fca754ccee8c09478f0c59b6ea6e7712e",
    ("uniform-live", 20240607): "d94bea00f9f035b8c0ae2247e64e04d86b1ec7ae41a3eb43d05feb5f1778dd54",
    ("uniform-sparse", 0): "e7d588a546688e25b7be9dfcc061a9d95056d9879ffd2f8254ef6888cc571198",
    ("uniform-sparse", 1): "05c09b9bf12e2661de092e9e46d33a1eea3af79dee7b577be28d4300350a47bd",
    ("uniform-sparse", 20240607): "051a4abff28b03d2e857041d319bfe09f747ebab893f29612b03d9061fa66c0b",
    ("zipf", 0): "e86cc7688f14c49b6bb772487d6e4efc9f1af86f109bec85ebe93b7023982f53",
    ("zipf", 1): "7cf5eab178f158b3f22e34c66efbc2c1f2ae9ead820062be3d4a8e36cb0f8155",
    ("zipf", 20240607): "e16aeb8809cffe7802a9c783e166192943f37ec8a0ad6072042d64f51d70f56d",
}

#: SHA-256 of the newline-joined ``batch_independent(4, root_seed=7)``.
GOLDEN_UNIFORM_BATCH = "cb9701917f7fd29e41a4112a6b7f35f674fffa7cf4574102bc92f58e1189a5a9"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("seed", SEEDS)
def test_generator_stream_is_pinned(name, seed):
    schedule = GENERATORS[name]().generate(seed)
    assert digest(str(schedule)) == GOLDEN[name, seed]


def test_uniform_independent_batch_is_pinned():
    batch = GENERATORS["uniform"]().batch_independent(4, root_seed=7)
    assert digest("\n".join(str(schedule) for schedule in batch)) == GOLDEN_UNIFORM_BATCH
