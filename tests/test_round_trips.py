"""Hypothesis round trips: realization, surgery traces, dissection JSON, friezes."""

import itertools
import json
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from quiddity import (
    Dissection,
    build_frieze,
    enumerate_dissections,
    m_product_mod,
    realize_dissection,
    realize_triangulation,
    reduce_to_base,
    replay_trace,
    trace_from_json_dict,
    trace_to_json_dict,
    validate_frieze,
)


def _shortest_words():
    """The shortest 0/1 word with each mod-2 product, keyed by the product."""
    words = {}
    for length in range(1, 7):
        for word in itertools.product((0, 1), repeat=length):
            m = m_product_mod(word, 2)
            words.setdefault((m.a, m.b, m.c, m.d), word)
    return words


_WORDS = _shortest_words()


def _complete(word):
    """Append the shortest tail that makes ``word`` a mod-2 solution."""
    m = m_product_mod(word, 2)
    # the inverse of (a, b, c, d) in SL(2, F2) is (d, b, c, a)
    return tuple(word) + _WORDS[(m.d, m.b, m.c, m.a)]


solutions = st.lists(st.integers(0, 1), min_size=3, max_size=200).map(_complete)


@lru_cache(maxsize=None)
def _enumerated(n, kind):
    return tuple(enumerate_dissections(n, kind))


dissections = st.tuples(
    st.integers(3, 9), st.sampled_from(("all", "triangulation", "34", "3d"))
).flatmap(lambda nk: st.sampled_from(_enumerated(*nk)))
triangulations = st.integers(3, 10).flatmap(lambda n: st.sampled_from(_enumerated(n, "triangulation")))


@settings(max_examples=60, deadline=None)
@given(solutions)
def test_realize_then_read_parities_back(seq):
    assert realize_dissection(seq).quiddity_mod2() == seq
    if 1 in seq:
        assert realize_triangulation(seq).quiddity_mod2() == seq


@settings(max_examples=60, deadline=None)
@given(solutions)
def test_trace_through_json_replays_the_input(seq):
    trace = reduce_to_base(seq).trace
    data = json.loads(json.dumps(trace_to_json_dict(trace)))
    assert trace_from_json_dict(data) == trace
    assert replay_trace(trace_from_json_dict(data)) == seq


@settings(max_examples=60, deadline=None)
@given(dissections)
def test_dissection_through_json(d):
    assert Dissection.from_json(d.to_json()) == d
    assert Dissection.from_json_dict(json.loads(json.dumps(d.to_json_dict()))) == d


@settings(max_examples=60, deadline=None)
@given(triangulations)
def test_frieze_of_a_triangulation_quiddity_validates(d):
    pattern = build_frieze(d.quiddity_cc())
    validate_frieze(pattern)
    assert pattern.n == d.n
