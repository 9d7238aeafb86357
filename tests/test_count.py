"""The count engine of ``_Counts`` against the walk and against closed forms.

One table per kind and modulus serves every n up to its top, as in a
sweep.  A class is the n-gon's product M(q) of a quiddity q with the sum of
q: over Z of the cc quiddity, mod 2 of the parity quiddity.  Both must
reproduce the walk's histogram exactly, and the totals must equal counts
that do not come from the root-cell decomposition.
"""

import functools
from math import comb

import pytest

from quiddity import enumerate_dissections, jacobsthal_count
from quiddity.algebra import _MOD2_STEPS, _fold
from quiddity.dissections import _CELL_RULES, _OVER_F2, _OVER_Z, _Counts

KINDS = ("all", "triangulation", "34", "3d")


def _histograms(n, kind):
    """The walk's classes over Z and mod 2, each a sorted (key, count) list."""
    over_z, over_f2 = {}, {}
    for d in enumerate_dissections(n, kind, n):
        q = d.quiddity_cc()
        key = _fold(q), sum(q)
        over_z[key] = over_z.get(key, 0) + 1
        p = d.quiddity_mod2()
        key = _fold(p, 2), sum(p) % 2
        over_f2[key] = over_f2.get(key, 0) + 1
    return sorted(over_z.items()), sorted(over_f2.items())


@pytest.mark.parametrize("kind", KINDS)
def test_count_classes_over_z_and_f2_are_the_walk_histograms(kind):
    over_z, over_f2 = _Counts(kind, _OVER_Z, 11), _Counts(kind, _OVER_F2, 11)
    for n in range(3, 12):
        assert (over_z.classes(n), over_f2.classes(n)) == _histograms(n, kind), n


def test_count_table_counts_only_the_polygons_it_was_made_for():
    counts = _Counts("3d", _OVER_Z, 6)
    for n in (2, 7):
        with pytest.raises(ValueError, match="3..6 vertices"):
            counts.classes(n)


def _catalan(m):
    return comb(2 * m, m) // (m + 1)


def _schroeder(n):
    # Kirkman-Cayley: the n-gon has comb(n-3, k) comb(n+k-1, k) / (k+1)
    # dissections with k diagonals
    return sum(comb(n - 3, k) * comb(n + k - 1, k) // (k + 1) for k in range(n - 2))


def _lagrange(n, rule):
    """Dissections of the n-gon whose cell sizes pass ``rule``, by Lagrange inversion.

    A segment of L sides has the generating function F = x * phi(F), with
    phi(u) = 1 / (1 - sum of u^(s - 2) over the allowed sizes s), so the
    n-gon, a segment of L = n - 1 sides, has [u^(L-1)] phi(u)^L / L.
    """
    length = n - 1
    phi = [1] + [0] * (length - 1)
    for d in range(1, length):
        phi[d] = sum(phi[d - j] for j in range(1, d + 1) if rule(j + 2))
    power = [1] + [0] * (length - 1)
    for _ in range(length):
        power = [sum(power[i] * phi[d - i] for i in range(d + 1)) for d in range(length)]
    total, rest = divmod(power[length - 1], length)
    assert rest == 0
    return total


# the most closed states of one length over Z, as
# test_count_differential.py::test_closed_states_per_length_are_few bounds them
_MOST_OVER_Z = {"triangulation": 1, "3d": 8}


@functools.cache
def _table(kind, modulus, top):
    """The table of ``kind`` by ``modulus``, grown to the ``top``-gon.

    It grows one length at a time, and a table over Z must keep within its
    bound on the states of a length before it grows further, so that a
    table whose states multiply fails instead of exhausting memory.
    """
    counts = _Counts(kind, modulus, top)
    for n in range(3, top + 1):
        counts.classes(n)
        if modulus == _OVER_Z:
            assert len(counts._segments[n - 1]) <= _MOST_OVER_Z[kind], (kind, n)
    return counts


def _totals(kind, modulus, top):
    counts = _table(kind, modulus, top)
    return [sum(count for _, count in counts.classes(n)) for n in range(3, top + 1)]


def test_count_totals_match_closed_forms():
    ns = range(3, 31)
    totals = {kind: _totals(kind, _OVER_F2, 30) for kind in KINDS}
    for kind in KINDS:
        assert totals[kind] == [_lagrange(n, _CELL_RULES.get(kind, lambda s: True)) for n in ns], kind
    assert totals["triangulation"] == [_catalan(n - 2) for n in ns]
    assert totals["all"] == [_schroeder(n) for n in ns]
    assert totals["3d"][:10] == [1, 2, 5, 15, 49, 168, 595, 2160, 7997, 30083]
    # the tables of thm2 and thm3, as far as the README runs those sweeps
    assert _totals("triangulation", _OVER_Z, 30) == totals["triangulation"]
    assert _totals("3d", _OVER_Z, 20) == totals["3d"][:18]


@pytest.mark.parametrize("kind", KINDS)
def test_mod2_table_holds_at_most_48_states_per_length(kind):
    # a state mod 2 is two corner bits, an element of SL(2, F2) and a sum
    # bit; a value left unreduced leaves the classes as they are but grows
    # the table with n
    segments = _table(kind, _OVER_F2, 30)._segments
    assert max(map(len, segments.values())) <= 2 * 2 * 6 * 2


@pytest.mark.parametrize("kind, count", [
    ("triangulation", lambda n: _catalan(n - 2)),
    ("all", _schroeder),
    ("3d", lambda n: _lagrange(n, _CELL_RULES["3d"])),
])
def test_enumeration_lengths_match_closed_forms(kind, count):
    for n in range(3, 11):
        assert len(list(enumerate_dissections(n, kind))) == count(n), n


def test_six_state_transfer_count_is_jacobsthal():
    # ways[s]: the 0/1 words so far whose mod-2 product is state s
    ways = [1, 0, 0, 0, 0, 0]
    for n in range(1, 1001):
        step = [0] * 6
        for s, w in enumerate(ways):
            for e in (0, 1):
                step[_MOD2_STEPS[s][e]] += w
        ways = step
        assert ways[0] == jacobsthal_count(n), n


@pytest.mark.parametrize("kind, modulus", [("34", _OVER_F2), ("triangulation", _OVER_Z)])
def test_count_table_work_grows_quadratically(kind, modulus, monkeypatch):
    # runs of t segments are kept only up to the largest cell of their weight,
    # so doubling n about quadruples the joins; keeping every t <= n makes
    # the table cubic (8x).  3d over Z keeps every t by design, so it is left out.
    join = _Counts._join
    calls = []

    def counted(self, *args):
        calls.append(None)
        return join(self, *args)

    monkeypatch.setattr(_Counts, "_join", counted)
    joins = []
    for n in (30, 60):
        calls.clear()
        _Counts(kind, modulus, n).classes(n)
        joins.append(len(calls))
    assert joins[1] <= 5 * joins[0], joins
