"""Frieze construction, validation, and the total-positivity boundary."""

import itertools
from fractions import Fraction

import pytest

from quiddity import (
    BorderViolation,
    DiamondViolation,
    FriezeError,
    FriezePattern,
    MatClass,
    NonPositiveEntry,
    build_frieze,
    classify_pm_identity,
    coxeter_row_check,
    enumerate_dissections,
    frieze_to_json_dict,
    m_product,
    render_text,
    sum_condition,
    validate_frieze,
)

GOLDEN_ROWS = (
    (1, 1, 1, 1, 1),
    (1, 3, 1, 2, 2),
    (2, 2, 1, 3, 1),
    (1, 1, 1, 1, 1),
)


def test_build_golden_pentagon_pattern():
    f = build_frieze((1, 3, 1, 2, 2))
    assert f.n == 5
    assert f.rows == GOLDEN_ROWS


def test_build_triangle_pattern():
    f = build_frieze((1, 1, 1))
    assert f.rows == ((1, 1, 1), (1, 1, 1))


def test_build_square_pattern():
    f = build_frieze((1, 2, 1, 2))
    assert f.rows == ((1, 1, 1, 1), (1, 2, 1, 2), (1, 1, 1, 1))


def test_build_failures():
    with pytest.raises(NonPositiveEntry) as err:
        build_frieze((1, 1, 1, 1))
    assert (err.value.row, err.value.value) == (3, 0)
    with pytest.raises(BorderViolation):
        build_frieze((2, 2, 2))
    with pytest.raises(ValueError):
        build_frieze((1, 1))
    with pytest.raises(ValueError):
        build_frieze((1, 0, 1))


def test_validate_golden_and_perturbations():
    f = build_frieze((1, 3, 1, 2, 2))
    validate_frieze(f)

    rows = [list(r) for r in GOLDEN_ROWS]
    rows[1][1] = 4
    with pytest.raises(DiamondViolation):
        validate_frieze(FriezePattern(5, tuple(tuple(r) for r in rows)))

    rows = [list(r) for r in GOLDEN_ROWS]
    rows[0][2] = 2
    with pytest.raises(BorderViolation):
        validate_frieze(FriezePattern(5, tuple(tuple(r) for r in rows)))

    rows = [list(r) for r in GOLDEN_ROWS]
    rows[2][0] = -2
    with pytest.raises(NonPositiveEntry):
        validate_frieze(FriezePattern(5, tuple(tuple(r) for r in rows)))

    with pytest.raises(FriezeError):
        validate_frieze(FriezePattern(5, GOLDEN_ROWS[:3]))
    validate_frieze(FriezePattern(3, ((1, 1, 1), (1, 1, 1))))


def test_sum_condition():
    assert sum_condition((1, 3, 1, 2, 2))
    assert sum_condition((1, 1, 1))
    assert not sum_condition((2, 1, 2, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        sum_condition((1, 1))


def test_coxeter_row_check():
    f = build_frieze((1, 3, 1, 2, 2))
    assert coxeter_row_check(f)
    assert m_product(f.rows[1]) == m_product((1, 3, 1, 2, 2))
    assert m_product(f.rows[f.n - 3]) == m_product((2, 2, 1, 3, 1))
    assert coxeter_row_check(build_frieze((1, 1, 1)))


def test_build_succeeds_on_every_triangulation_quiddity():
    for n in range(3, 10):
        for d in enumerate_dissections(n, kind="triangulation"):
            f = build_frieze(d.quiddity_cc())
            validate_frieze(f)
            assert f.rows[1] == d.quiddity_cc()
            assert coxeter_row_check(f)


def test_build_success_implies_minus_id_and_sum_condition():
    # bounded converse: any sequence the construction accepts is a -Id
    # solution satisfying the quiddity-sum law
    for n in range(3, 8):
        cap = max(1, n - 2)
        for seq in itertools.product(range(1, cap + 1), repeat=n):
            try:
                f = build_frieze(seq)
            except FriezeError:
                continue
            validate_frieze(f)
            assert classify_pm_identity(m_product(seq)) is MatClass.MINUS_ID
            assert sum_condition(seq)


def test_render_text_golden():
    text = render_text(build_frieze((1, 3, 1, 2, 2)))
    lines = text.splitlines()
    assert lines[0] == "  1   1   1   1   1"
    assert lines[1] == "1   3   1   2   2"
    assert lines[2] == "  2   2   1   3   1"
    assert lines[3] == "1   1   1   1   1"


def test_json_dict():
    data = frieze_to_json_dict(build_frieze((1, 2, 1, 2)))
    assert data == {
        "schema": 1,
        "n": 4,
        "rows": [[1, 1, 1, 1], [1, 2, 1, 2], [1, 1, 1, 1]],
    }


def test_validate_frieze_rejects_a_short_period():
    with pytest.raises(FriezeError, match="period must be at least 3, got 2"):
        validate_frieze(FriezePattern(2, ((1, 1),)))


def test_validate_frieze_rejects_a_row_of_the_wrong_length():
    pattern = FriezePattern(4, ((1, 1, 1, 1), (1, 2, 1), (1, 1, 1, 1)))
    with pytest.raises(FriezeError, match="row 2 has period 3, expected 4") as err:
        validate_frieze(pattern)
    assert err.value.row == 2


def _rational_rows(q):
    """Rows by the diamond rule over the rationals, up to the first non-positive entry.

    Returns the rows and the first non-positive entry as (row, pos, value),
    or None; every entry computed is checked to be an integer on the way.
    """
    n = len(q)
    rows = [(1,) * n, q]
    while len(rows) < n - 1:
        prev, cur = rows[-2], rows[-1]
        new = []
        for k in range(n):
            value = Fraction(cur[k] * cur[(k + 1) % n] - 1, prev[(k + 1) % n])
            assert value.denominator == 1, (q, len(rows) + 1, k + 1, value)
            if value <= 0:
                return rows, (len(rows) + 1, k + 1, int(value))
            new.append(int(value))
        rows.append(tuple(new))
    return rows, None


def test_diamond_division_is_exact_on_every_small_sequence():
    # the entries are continuants, so Desnanot-Jacobi makes every division
    # exact, and build_frieze's continuant recurrence gives the same rows
    seen = 0
    for n in range(3, 8):
        for q in itertools.product(range(1, 5), repeat=n):
            seen += 1
            rows, bad = _rational_rows(q)
            if bad is not None:
                with pytest.raises(NonPositiveEntry) as err:
                    build_frieze(q)
                assert (err.value.row, err.value.pos, err.value.value) == bad
            elif any(value != 1 for value in rows[-1]):
                with pytest.raises(BorderViolation):
                    build_frieze(q)
            else:
                assert build_frieze(q).rows == tuple(rows)
    assert seen == 21_824
