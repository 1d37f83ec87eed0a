"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.model.cost_model import mobile, stationary
from repro.model.heterogeneous import HeterogeneousCostModel
from repro.model.request import read, write
from repro.model.schedule import Schedule

#: Processors 1..6 — small enough for the exact DP, large enough for
#: joins, evictions and multi-reader segments.
PROCESSORS = st.integers(min_value=1, max_value=6)


@st.composite
def requests(draw):
    processor = draw(PROCESSORS)
    if draw(st.booleans()):
        return read(processor)
    return write(processor)


@st.composite
def schedules(draw, max_length: int = 12):
    items = draw(st.lists(requests(), min_size=1, max_size=max_length))
    return Schedule(tuple(items))


#: Feasible (c_c <= c_d) price pairs on a coarse lattice: exact floats
#: keep cost comparisons free of spurious rounding noise.
PRICE = st.integers(min_value=0, max_value=8).map(lambda n: n / 4.0)


@st.composite
def feasible_prices(draw):
    c_c = draw(PRICE)
    c_d = draw(PRICE.filter(lambda value: value >= c_c))
    return c_c, c_d


@st.composite
def stationary_models(draw):
    c_c, c_d = draw(feasible_prices())
    return stationary(c_c, c_d)


@st.composite
def mobile_models(draw):
    c_c, c_d = draw(feasible_prices())
    return mobile(c_c, c_d)


#: Ordered links between two distinct processors.
LINKS = st.tuples(PROCESSORS, PROCESSORS).filter(
    lambda link: link[0] != link[1]
)


@st.composite
def heterogeneous_models(draw):
    """Per-node I/O and per-link message prices, ``c_c <= c_d`` on every
    link: an overridden link gets a feasible pair of its own."""
    c_c, c_d = draw(feasible_prices())
    links = draw(st.dictionaries(LINKS, feasible_prices(), max_size=12))
    return HeterogeneousCostModel(
        default_io=draw(PRICE),
        default_c_c=c_c,
        default_c_d=c_d,
        io_costs=draw(st.dictionaries(PROCESSORS, PRICE)),
        control_costs={link: pair[0] for link, pair in links.items()},
        data_costs={link: pair[1] for link, pair in links.items()},
    )
