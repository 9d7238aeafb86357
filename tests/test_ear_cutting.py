"""Realization by ear cutting against the two-pass construction it replaced.

The oracle takes the reduction's (k, pos) steps, glues one (k + 2)-gon per
step, last step first, onto a cyclic list of stable vertex ids, and only
then labels each id by its final position.  The realizers read each
cell's chord off the reduction instead; both must give the same
diagonals.
"""

import itertools
import random

import pytest

from quiddity import is_gamma2_solution, realize_dissection, realize_triangulation, solutions_gamma2
from quiddity import surgery

REALIZERS = {False: realize_dissection, True: realize_triangulation}


def _glue(base_len, steps):
    """Insert k fresh ids at 1-based ``pos`` per (k, pos) step; return the order and each step's edge."""
    r = list(range(base_len - 1, -1, -1))  # reversed: 0-based position i is r[m - 1 - i]
    edges = []
    m = base_len
    for k, pos in steps:
        at = m + 1 - pos
        edges.append((r[at if at < m else 0], r[at - 1]))
        for v in range(m, m + k):
            r.insert(at, v)
        m += k
    r.reverse()
    return r, edges


def two_pass(seq, triangulate):
    """(n, diagonals) by the reduction's steps, gluing on stable ids, then relabelling."""
    steps, base = surgery._reduce(tuple(seq), keep_odd=triangulate)
    assert base == (1, 1, 1) or (base == (0, 0) and not triangulate), base
    # base (0, 0): the last step removed the final 0,0 pair of a quadrilateral
    n0, steps = (3, steps) if base == (1, 1, 1) else (4, steps[:-1])
    order, edges = _glue(n0, reversed(steps))
    label = [0] * len(order)
    for position, v in enumerate(order, 1):
        label[v] = position
    pairs = sorted(tuple(sorted((label[a], label[b]))) for a, b in edges)
    return len(order), tuple(pairs)


def _random_solution(rng, n, density):
    while True:
        seq = tuple(int(rng.random() < density) for _ in range(n))
        if is_gamma2_solution(seq) and 1 in seq:
            return seq


def test_oracle_glues_the_documented_examples():
    assert two_pass((1, 1, 1), False) == (3, ())
    assert two_pass((0, 0, 0, 0), False) == (4, ())
    assert two_pass((0, 1, 0, 1), True) == (4, ((1, 3),))
    assert two_pass((1, 0, 1, 0), True) == (4, ((2, 4),))
    # triangles 2,3,4 / 2,4,5 / 1,2,5, and quadrilaterals 3,4,5,6 / 1,2,3,6
    assert two_pass((1, 1, 1, 0, 0), False) == (5, ((2, 4), (2, 5)))
    assert two_pass((0,) * 6, False) == (6, ((3, 6),))


@pytest.mark.parametrize("triangulate", [False, True])
def test_realizers_match_the_two_pass_construction_to_n_12(triangulate):
    realize = REALIZERS[triangulate]
    count = 0
    for n in range(3, 13):
        for s in solutions_gamma2(n):
            if triangulate and 1 not in s:
                continue
            d = realize(s)
            assert (d.n, d.diagonals) == two_pass(s, triangulate), s
            count += 1
    assert count > 1000


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_realizers_match_the_two_pass_construction_on_long_solutions(n):
    rng = random.Random(n)
    words = [_random_solution(rng, n, density) for density in (0.5, 0.05, 0.95)]
    for s, triangulate in itertools.product(words, (False, True)):
        d = REALIZERS[triangulate](s)
        assert (d.n, d.diagonals) == two_pass(s, triangulate), (len(s), triangulate)
    zeros = (0,) * n
    d = realize_dissection(zeros)
    assert (d.n, d.diagonals) == two_pass(zeros, False)


@pytest.mark.parametrize("triangulate", [False, True])
def test_realizers_match_the_two_pass_construction_from_the_scan_cut_off(triangulate):
    # every solution from the length where the reduction starts to scan to four past it
    realize = REALIZERS[triangulate]
    for n in range(surgery._SCAN_MIN, surgery._SCAN_MIN + 5):
        for s in solutions_gamma2(n):
            if triangulate and 1 not in s:
                continue
            d = realize(s)
            assert (d.n, d.diagonals) == two_pass(s, triangulate), s


@pytest.mark.parametrize("ones", [4, 5, 6])
def test_realizers_match_the_two_pass_construction_with_few_ones(ones):
    # few enough ones that with keep_odd a run's wrapping cut may leave none, and
    # solutions whose zeros run on to the last entry; a solution has as many
    # ones as entries, mod 2
    rng = random.Random(ones)
    words = []
    for n in (300, 1000, 300, 1000):
        while True:
            seq = [0] * (n + ones % 2)
            for i in rng.sample(range(len(seq)), ones):
                seq[i] = 1
            if is_gamma2_solution(seq):
                words.append(tuple(seq))
                break
    while len(words) < 7:
        seq = _random_solution(rng, ones * 20, 0.5)[:-1] + (1,) + (0,) * 500
        if is_gamma2_solution(seq):
            words.append(seq)
    for s, triangulate in itertools.product(words, (False, True)):
        d = REALIZERS[triangulate](s)
        assert (d.n, d.diagonals) == two_pass(s, triangulate), (len(s), triangulate)
