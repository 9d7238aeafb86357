"""Dissection validation, cells, quiddities, and enumeration."""

import itertools
import json
import re

import pytest

import quiddity.dissections as dissections_module
from quiddity import (
    CapExceeded,
    CrossingDiagonals,
    DiagonalOutOfRange,
    Dissection,
    DissectionError,
    SideAsDiagonal,
    enumerate_dissections,
    min_rotation,
)

# Independent count oracles.
CATALAN = {3: 1, 4: 2, 5: 5, 6: 14, 7: 42, 8: 132}       # triangulations of the n-gon
SUPER_CATALAN = {3: 1, 4: 3, 5: 11, 6: 45, 7: 197, 8: 903}  # all dissections


def test_validate_examples():
    Dissection(4).validate()
    Dissection(5, [(1, 3)]).validate()
    with pytest.raises(CrossingDiagonals) as err:
        Dissection(4, [(1, 3), (2, 4)])
    assert err.value.first == (1, 3) and err.value.second == (2, 4)


def test_validate_names_one_crossing_pair_among_20000_diagonals():
    # 19,998 nested diagonals around a crossing pair deep inside; the
    # pairwise scan would test about 2 * 10^8 pairs
    m = 19_998
    n = 2 * m + 16
    nested = [(k, n - k) for k in range(1, m + 1)]
    with pytest.raises(CrossingDiagonals) as err:
        Dissection(n, [*nested, (m + 2, m + 5), (m + 4, m + 8)])
    assert (err.value.first, err.value.second) == ((m + 2, m + 5), (m + 4, m + 8))


def test_validate_rejects_bad_diagonals():
    with pytest.raises(DiagonalOutOfRange):
        Dissection(5, [(1, 6)])
    with pytest.raises(DiagonalOutOfRange):
        Dissection(5, [(0, 2)])
    with pytest.raises(DiagonalOutOfRange):
        Dissection(5, [(3, 3)])
    with pytest.raises(SideAsDiagonal):
        Dissection(5, [(2, 3)])
    with pytest.raises(SideAsDiagonal):
        Dissection(5, [(1, 5)])
    with pytest.raises(DissectionError):
        Dissection(2)


@pytest.mark.parametrize("item", [5, None, (1, 2, 3), {1: 0, 3: 0}, {1, 3}, (v for v in (1, 3))])
@pytest.mark.parametrize("crossing", [True, False])
def test_constructor_rejects_a_diagonal_that_is_not_a_pair(item, crossing):
    # every pair is read before validate runs, so a crossing does not hide the bad item
    others = [(1, 3), (2, 4)] if crossing else [(1, 3)]
    with pytest.raises(DissectionError, match=re.escape(f"diagonal {item!r} is not a pair")):
        Dissection(5, [*others, item])


def test_diagonals_are_normalized():
    d = Dissection(6, [(4, 1), (1, 3)])
    assert d.diagonals == ((1, 3), (1, 4))
    assert Dissection(6, [(1, 3), (3, 1)]).diagonals == ((1, 3),)


def test_cells_examples():
    assert Dissection(4).cells() == ((1, 2, 3, 4),)
    assert Dissection(4, [(1, 3)]).cells() == ((1, 2, 3), (1, 3, 4))
    assert Dissection(5, [(1, 3)]).cells() == ((1, 2, 3), (1, 3, 4, 5))
    assert Dissection(5, [(1, 3), (1, 4)]).cells() == ((1, 2, 3), (1, 3, 4), (1, 4, 5))
    assert Dissection(3).cells() == ((1, 2, 3),)


def test_cells_structure_exhaustive():
    # every side in exactly one cell, every diagonal in exactly two,
    # d+1 cells whose (size - 2) values sum to n - 2
    for n in range(3, 8):
        sides = {(v, v + 1) for v in range(1, n)} | {(1, n)}
        for d in enumerate_dissections(n):
            cells = d.cells()
            assert len(cells) == len(d.diagonals) + 1
            assert sum(len(c) - 2 for c in cells) == n - 2
            edge_count: dict = {}
            for cell in cells:
                for a, b in zip(cell, cell[1:] + cell[:1]):
                    e = (min(a, b), max(a, b))
                    edge_count[e] = edge_count.get(e, 0) + 1
            for e in sides:
                assert edge_count.get(e) == 1, (d, e)
            for e in d.diagonals:
                assert edge_count.get(e) == 2, (d, e)
            assert set(edge_count) == sides | set(d.diagonals)


def test_classify_examples():
    assert Dissection(5, [(1, 3), (1, 4)]).classify() == (True, True, True)
    assert Dissection(4).classify() == (False, True, False)
    assert Dissection(6).classify() == (False, False, True)
    assert Dissection(7, [(1, 3)]).classify() == (False, False, True)


def test_quiddity_cc_examples():
    assert Dissection(3).quiddity_cc() == (1, 1, 1)
    assert Dissection(4, [(2, 4)]).quiddity_cc() == (1, 2, 1, 2)
    assert Dissection(5, [(2, 4), (2, 5)]).quiddity_cc() == (1, 3, 1, 2, 2)
    # same quiddity up to rotation for a relabeled pentagon triangulation
    rotated = Dissection(5, [(1, 3), (3, 5)]).quiddity_cc()
    assert min_rotation(rotated) == min_rotation((1, 3, 1, 2, 2))
    assert Dissection(5, [(1, 3), (1, 4)]).quiddity_cc() == (3, 1, 2, 2, 1)


def test_quiddity_cc_3d_examples():
    assert Dissection(7, [(1, 3)]).quiddity_cc() == (2, 1, 2, 1, 1, 1, 1)
    assert Dissection(10, [(1, 6)]).quiddity_cc() == (2, 1, 1, 1, 1, 2, 1, 1, 1, 1)


def test_quiddity_mod2_examples():
    assert Dissection(4).quiddity_mod2() == (0, 0, 0, 0)
    assert Dissection(4, [(1, 3)]).quiddity_mod2() == (0, 1, 0, 1)
    assert Dissection(5, [(1, 3)]).quiddity_mod2() == (1, 1, 1, 0, 0)
    assert Dissection(6, [(1, 4)]).quiddity_mod2() == (0, 0, 0, 0, 0, 0)
    ten = Dissection(10, [(1, 7), (2, 5), (2, 7), (3, 5), (7, 10)])
    assert min_rotation(ten.quiddity_mod2()) == min_rotation(
        (0, 1, 0, 0, 0, 0, 0, 1, 0, 0)
    )


def test_quiddity_mod2_matches_cc_on_triangulations():
    for n in range(3, 9):
        for d in enumerate_dissections(n, kind="triangulation"):
            cc = d.quiddity_cc()
            assert d.quiddity_mod2() == tuple(c % 2 for c in cc)


def test_triangulation_quiddity_sum():
    for n in range(3, 9):
        for d in enumerate_dissections(n, kind="triangulation"):
            assert sum(d.quiddity_cc()) == 3 * n - 6


def _relabel(d: Dissection, perm) -> Dissection:
    return Dissection(d.n, [(perm[a], perm[b]) for a, b in d.diagonals])


def test_quiddity_commutes_with_dihedral_relabeling():
    samples = [
        Dissection(5, [(1, 3), (1, 4)]),
        Dissection(7, [(1, 3)]),
        Dissection(6, [(1, 4)]),
        Dissection(10, [(1, 7), (2, 5), (2, 7), (3, 5), (7, 10)]),
    ]
    for d in samples:
        n = d.n
        q_cc, q_m2 = d.quiddity_cc(), d.quiddity_mod2()
        perms = [
            {v: (v - 1 + k) % n + 1 for v in range(1, n + 1)} for k in range(n)
        ] + [{v: n + 1 - v for v in range(1, n + 1)}]
        for perm in perms:
            r = _relabel(d, perm)
            r_cc, r_m2 = r.quiddity_cc(), r.quiddity_mod2()
            for v in range(1, n + 1):
                assert r_cc[perm[v] - 1] == q_cc[v - 1]
                assert r_m2[perm[v] - 1] == q_m2[v - 1]


def test_enumerate_counts():
    for n, expected in CATALAN.items():
        assert sum(1 for _ in enumerate_dissections(n, kind="triangulation")) == expected
    for n, expected in SUPER_CATALAN.items():
        assert sum(1 for _ in enumerate_dissections(n)) == expected


def test_enumerate_34_examples():
    listed = [d.diagonals for d in enumerate_dissections(4, kind="34")]
    assert listed == [(), ((1, 3),), ((2, 4),)]
    assert sum(1 for _ in enumerate_dissections(5, kind="34")) == 10


def test_enumerate_3d_counts():
    # hexagon: 14 triangulations plus the bare hexagon; heptagon: 42
    # triangulations plus the 7 triangle-and-hexagon splits
    assert sum(1 for _ in enumerate_dissections(6, kind="3d")) == 15
    assert sum(1 for _ in enumerate_dissections(7, kind="3d")) == 49


def test_enumerate_is_lexicographic_and_unique():
    for n in (5, 6):
        seen = [d.diagonals for d in enumerate_dissections(n)]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))


def test_enumerate_caps():
    with pytest.raises(CapExceeded):
        list(enumerate_dissections(13))
    with pytest.raises(DissectionError):
        list(enumerate_dissections(2))
    with pytest.raises(ValueError):
        list(enumerate_dissections(5, kind="pentagons"))
    assert next(enumerate_dissections(13, cap=13)) == Dissection(13)


def test_enumerate_is_lazy_and_builds_only_what_it_yields(monkeypatch):
    built = []

    class Counted(Dissection):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

        @classmethod
        def _trusted(cls, *args):  # the walk's build path
            built.append(args)
            return super()._trusted(*args)

    monkeypatch.setattr(dissections_module, "Dissection", Counted)
    # the first triangulation in lex order is the fan from vertex 1
    fan = Dissection(13, [(1, j) for j in range(3, 13)])
    assert next(enumerate_dissections(13, "triangulation", cap=13)) == fan
    assert len(built) == 1
    for kind in ("all", "triangulation", "34", "3d"):
        built.clear()
        assert sum(1 for _ in enumerate_dissections(9, kind)) == len(built)


@pytest.mark.parametrize("n", [5.0, 5.5, "5", 2.5, 13.0])
def test_enumerate_rejects_non_integer_n(n):
    with pytest.raises(TypeError):
        next(enumerate_dissections(n))


def test_json_round_trip():
    d = Dissection(5, [(1, 3), (1, 4)])
    data = d.to_json_dict()
    assert data == {"schema": 1, "n": 5, "diagonals": [[1, 3], [1, 4]]}
    assert Dissection.from_json(d.to_json()) == d
    assert Dissection.from_json('{"n": 4, "diagonals": [[1, 3]]}') == Dissection(4, [(1, 3)])


def test_json_rejects_bad_input():
    with pytest.raises(DissectionError):
        Dissection.from_json("not json")
    with pytest.raises(DissectionError):
        Dissection.from_json('{"n": 4}')
    with pytest.raises(DissectionError):
        Dissection.from_json('{"schema": 2, "n": 4, "diagonals": []}')
    with pytest.raises(DissectionError, match=re.escape("diagonal [1, 2, 3] is not a pair")):
        Dissection.from_json('{"n": 4, "diagonals": [[1, 2, 3]]}')
    with pytest.raises(DissectionError, match="must be a list"):
        Dissection.from_json('{"n": 4, "diagonals": {"1": 3}}')
    with pytest.raises(CrossingDiagonals):
        Dissection.from_json('{"n": 4, "diagonals": [[1, 3], [2, 4]]}')


@pytest.mark.parametrize("schema", ["true", "1.0"])
def test_json_accepts_only_the_int_schema_1(schema):
    with pytest.raises(DissectionError, match=f"unsupported schema {schema.title()}$"):
        Dissection.from_json(f'{{"schema": {schema}, "n": 4, "diagonals": []}}')


NON_INTEGER_JSON = {
    "float n": '{"n": 5.7, "diagonals": [[1, 3]]}',
    "string n": '{"n": "5", "diagonals": [[1, 3]]}',
    "bool n": '{"n": true, "diagonals": []}',
    "float endpoint": '{"n": 5, "diagonals": [[1.9, 3]]}',
    "string endpoint": '{"n": 5, "diagonals": [[1, "3"]]}',
    "bool endpoint": '{"n": 5, "diagonals": [[true, 3]]}',
}


@pytest.mark.parametrize("text", NON_INTEGER_JSON.values(), ids=NON_INTEGER_JSON.keys())
def test_json_rejects_non_integer_values(text):
    with pytest.raises(DissectionError, match="must be an integer|must be integers"):
        Dissection.from_json(text)


@pytest.mark.parametrize("text", NON_INTEGER_JSON.values(), ids=NON_INTEGER_JSON.keys())
@pytest.mark.parametrize("crossing", [True, False])
def test_constructor_rejects_non_integer_values(text, crossing):
    data = json.loads(text)
    others = [[1, 3], [2, 4]] if crossing else []
    with pytest.raises(DissectionError, match="must be an integer|must be integers"):
        Dissection(data["n"], [*others, *data["diagonals"]])


def test_to_dot():
    d = Dissection(4, [(1, 3)])
    dot = d.to_dot()
    assert "1 -- 2;" in dot and "4 -- 1;" in dot and "1 -- 3;" in dot
    assert "pos=" not in dot
    pinned = d.to_dot(geometry="circle")
    assert '1 [pos="1.0000,0.0000!"];' in pinned
    assert dot == d.to_dot()  # deterministic
    with pytest.raises(ValueError):
        d.to_dot(geometry="spiral")
