"""Realization and the dissection walk build through the unchecked ``Dissection._trusted``.

The realized object must be the one the checked constructor builds, and
its single ``validate``, which also requires strictly increasing pairs,
must catch a faulty chord list from the reduction.  The walk yields sets that need no check,
so it runs neither ``__init__`` nor ``validate``.  Also: ``cells`` walks
once per object.
"""

import pytest

from quiddity import dissections, surgery
from quiddity import Dissection, enumerate_dissections, realize_dissection, realize_triangulation, solutions_gamma2
from quiddity.dissections import CrossingDiagonals, DissectionError, SideAsDiagonal

REALIZERS = [realize_dissection, realize_triangulation]
KINDS = ("all", "triangulation", "34", "3d")


def _realizations(realize, n_hi):
    for n in range(3, n_hi + 1):
        for s in solutions_gamma2(n):
            if realize is realize_dissection or 1 in s:
                yield s, realize(s)


@pytest.mark.parametrize("realize", REALIZERS)
def test_realized_object_is_the_checked_one(realize):
    count = 0
    for s, d in _realizations(realize, 12):
        checked = Dissection(d.n, d.diagonals)
        assert d == checked and checked == d, s
        assert hash(d) == hash(checked), s
        assert repr(d) == repr(checked), s
        assert type(d.diagonals) is tuple
        assert all(type(p) is tuple and len(p) == 2 for p in d.diagonals), s
        assert all(type(x) is int for p in d.diagonals for x in p), s
        assert list(d.diagonals) == sorted(set(d.diagonals)), s
        assert type(d.n) is int and d.n == len(s)
        count += 1
    assert count > 1000


@pytest.mark.parametrize("realize", REALIZERS)
def test_each_realization_validates_once_and_never_runs_init(realize, monkeypatch):
    validated, built = [], []
    validate, init = Dissection.validate, Dissection.__init__

    def counted_validate(self):
        validated.append(self)
        return validate(self)

    def counted_init(self, *args, **kwargs):
        built.append(args)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(Dissection, "validate", counted_validate)
    monkeypatch.setattr(Dissection, "__init__", counted_init)
    for s, d in _realizations(realize, 10):
        assert validated == [d], s
        assert built == [], s
        validated.clear()


def test_the_walk_runs_neither_init_nor_validate(monkeypatch):
    calls = []
    monkeypatch.setattr(Dissection, "validate", lambda self: calls.append("validate"))
    monkeypatch.setattr(Dissection, "__init__", lambda self, *args: calls.append("__init__"))
    walked = {(n, kind): list(enumerate_dissections(n, kind)) for n in range(3, 10) for kind in KINDS}
    assert calls == []
    monkeypatch.undo()
    assert sum(map(len, walked.values())) == 10_630
    for (n, kind), sets in walked.items():
        for d in sets:
            assert all(p < q for p, q in zip(d.diagonals, d.diagonals[1:])), (n, kind, d)
            assert d == Dissection(n, d.diagonals) and d.n == n, (n, kind, d)


# the last solution of length 9 with an odd entry, realized with several diagonals
SEQ = next(s for s in reversed(solutions_gamma2(9)) if 1 in s)


def _mutant_chords(monkeypatch, extra):
    """Replace ``_reduce`` by one that adds ``extra(n, chords)`` to the chords it hands ``_realize``."""
    reduce = surgery._reduce

    def mutant(bits, keep_odd, chords=False):
        out, rest = reduce(bits, keep_odd, chords)
        return (out + extra(len(bits), out) if chords else out), rest

    monkeypatch.setattr(surgery, "_reduce", mutant)


def _a_crossing_chord(n, chords):
    """The first chord in lexicographic order that crosses one of ``chords``."""
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            if any(a < i < b < j or i < a < j < b for a, b in chords):
                return [(i, j)]
    raise AssertionError("no crossing chord")


MUTANTS = {
    "repeat": (lambda n, chords: [chords[-1]], DissectionError),
    "reversed repeat": (lambda n, chords: [chords[0][::-1]], DissectionError),
    "crossing": (_a_crossing_chord, CrossingDiagonals),
    "side": (lambda n, chords: [(1, 2)], SideAsDiagonal),
    "closing side": (lambda n, chords: [(1, n)], SideAsDiagonal),
}


@pytest.mark.parametrize("realize", REALIZERS)
@pytest.mark.parametrize("name", MUTANTS)
def test_a_faulty_glue_raises_instead_of_returning(realize, name, monkeypatch):
    """A fault in the chords the reduction hands ``_realize`` raises; no dissection is returned."""
    assert len(realize(SEQ).diagonals) >= 3
    extra, error = MUTANTS[name]
    _mutant_chords(monkeypatch, extra)
    with pytest.raises(error):
        realize(SEQ)


REPEAT = "diagonals must be strictly increasing, with no repeat"


def test_validate_rejects_pairs_that_do_not_strictly_increase():
    for diagonals in [((1, 3), (1, 3)), ((1, 4), (1, 3)), ((2, 4), (1, 3), (1, 4))]:
        d = Dissection._trusted(6, diagonals)
        assert d.diagonals is diagonals
        with pytest.raises(DissectionError, match=REPEAT):
            d.validate()


@pytest.mark.parametrize("n, diagonals", [
    (2, ((1, 3), (1, 3))),  # too few vertices
    (6, ((1, 9), (1, 9))),  # out of range
    (6, ((1, 2), (1, 2))),  # a side
    (6, ((1, 4), (2, 5), (2, 5))),  # crossing
])
def test_validate_names_a_repeat_before_any_other_fault(n, diagonals):
    with pytest.raises(DissectionError, match=REPEAT) as err:
        Dissection._trusted(n, diagonals).validate()
    assert type(err.value) is DissectionError


def test_trusted_build_is_checked_by_validate():
    d = Dissection._trusted(6, ((1, 3), (1, 4)))
    d.validate()
    assert d == Dissection(6, [(4, 1), (1, 3)])
    crossing, side = Dissection._trusted(6, ((1, 4), (2, 5))), Dissection._trusted(6, ((1, 2),))
    with pytest.raises(CrossingDiagonals):
        crossing.validate()
    with pytest.raises(SideAsDiagonal):
        side.validate()


def test_cells_walks_once_and_leaves_identity_alone(monkeypatch):
    d = realize_dissection(SEQ)
    fresh = Dissection(d.n, d.diagonals)
    walks = []

    def counted_sorted(*args, **kwargs):  # the walk sorts the diagonals by span, once
        walks.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(dissections, "sorted", counted_sorted, raising=False)
    assert d.classify().is_34 and d.quiddity_mod2() == SEQ
    assert len(walks) == 1
    cells = d.cells()
    assert d.cells() is cells
    assert d.classify() == fresh.classify()
    assert d.quiddity_mod2() == fresh.quiddity_mod2() == SEQ
    assert d.cells() is cells
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
    assert len({d, fresh}) == 1
