"""The cell walk and the pruned enumeration against the frozen copies in ``seed_cells``."""

import random

import pytest

import seed_cells as seed
from test_surgery_differential import long_fans
from quiddity import (
    Dissection,
    enumerate_dissections,
    is_gamma2_solution,
    realize_dissection,
    realize_triangulation,
)

KINDS = ("all", "triangulation", "34", "3d")


def _readings(d):
    return d.cells(), d.classify(), d.quiddity_cc(), d.quiddity_mod2()


def _seed_readings(d):
    return seed.cells(d), seed.classify(d), seed.quiddity_cc(d), seed.quiddity_mod2(d)


@pytest.mark.parametrize("n", range(3, 11))
def test_cell_readings_match_reference_on_every_dissection(n):
    every = list(seed.enumerate_dissections(n))
    readings = [_seed_readings(d) for d in every]
    for d, want in zip(every, readings):
        assert _readings(d) == want, d
    for kind in KINDS:
        # the reference filter, applied to the reference stream
        want = [d for d, (_, flags, _, _) in zip(every, readings) if seed.kind_ok(flags, kind)]
        assert list(enumerate_dissections(n, kind)) == want, (n, kind)


def test_enumeration_matches_reference_stream_at_n11():
    # one pass of the reference stream serves all four kinds
    want = {kind: [] for kind in KINDS}
    for d in seed.enumerate_dissections(11):
        flags = seed.classify(d)
        for kind in KINDS:
            if seed.kind_ok(flags, kind):
                want[kind].append(d.diagonals)
    for kind in KINDS:
        assert [d.diagonals for d in enumerate_dissections(11, kind)] == want[kind], kind


def _random_solution(n, seed_value):
    rng = random.Random(seed_value)
    while True:
        seq = tuple(rng.randint(0, 1) for _ in range(n))
        if is_gamma2_solution(seq) and 1 in seq:
            return seq


@pytest.mark.parametrize("realize", [realize_dissection, realize_triangulation])
@pytest.mark.parametrize("seed_value", [3, 4])
def test_cell_readings_match_reference_on_large_realizations(realize, seed_value):
    d = realize(_random_solution(2000, seed_value))
    assert d.n == 2000
    assert _readings(d) == _seed_readings(d)


def test_cell_readings_match_reference_on_long_fans():
    # runs of 9 to 40 equal left ends, past the exhaustive range's 7
    for d in long_fans(6):
        assert _readings(d) == _seed_readings(d), d


def test_cells_return_on_crossing_diagonals():
    d = Dissection._trusted(6, ((1, 4), (2, 5)))
    assert len(d.cells()) == len(d.diagonals) + 1
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(4, 12)
        proper = [(i, j) for i in range(1, n - 1) for j in range(i + 2, n + 1) if (i, j) != (1, n)]
        d = Dissection._trusted(n, tuple(sorted(rng.sample(proper, rng.randint(1, len(proper))))))
        assert len(d.cells()) == len(d.diagonals) + 1
