"""The continuant-recurrence frieze code against the frozen diamond-rule code.

``seed_frieze`` builds each entry by dividing by its north and validates by
multiplying out every diamond; ``quiddity.frieze`` runs the three-term
continuant recurrence for both.  On every input both must return the same
pattern or raise the same error at the same (row, pos), with the same
value and message.
"""

import itertools
import random
from collections import Counter

import pytest

import seed_frieze as seed
from quiddity import (
    MAT_MINUS_IDENTITY,
    BorderViolation,
    DiamondViolation,
    FriezePattern,
    NonPositiveEntry,
    build_frieze,
    enumerate_dissections,
    frieze,
    m_product,
    validate_frieze,
)


def _outcome(fn, arg):
    """What ``fn(arg)`` returns, or the type, coordinates, value and text of its error."""
    try:
        return fn(arg)
    except ValueError as exc:  # FriezeError is one
        return type(exc), getattr(exc, "row", None), getattr(exc, "pos", None), getattr(exc, "value", None), str(exc)


def _same_build(q):
    got = _outcome(build_frieze, q)
    assert got == _outcome(seed.build_frieze, q), q
    return got


def _same_validation(f):
    got = _outcome(validate_frieze, f)
    assert got == _outcome(seed.validate_frieze, f), f
    return got


def _perturbed(rows, r, k, value, as_list=False):
    """``rows`` with entry ``k`` of row ``r`` (0-based) set to ``value``."""
    new = [list(row) for row in rows]
    new[r][k] = value
    return new if as_list else tuple(map(tuple, new))


def _bumps(value):
    return {value + 1, value - 1, value + 2, value - 2, 0, -1} - {value}


def _triangulation_quiddity(rng, n):
    """The quiddity of a random triangulation of the n-gon, grown by gluing ears."""
    q = [1, 1, 1]
    while len(q) < n:
        i = rng.randrange(len(q))
        q[i] += 1
        q[(i + 1) % len(q)] += 1
        q.insert(i + 1, 1)
    return tuple(q)


def test_build_matches_seed_on_every_small_sequence():
    outcomes = {"pattern": 0, "error": 0}
    for n in range(3, 8):
        for q in itertools.product(range(1, 5), repeat=n):
            got = _same_build(q)
            outcomes["pattern" if isinstance(got, FriezePattern) else "error"] += 1
    assert sum(outcomes.values()) == 21_824
    # the triangulation quiddities build; most sequences fail
    assert 0 < outcomes["pattern"] < outcomes["error"]


@pytest.mark.parametrize("n", range(3, 10))
def test_validate_matches_seed_on_every_single_entry_change(n):
    raised = set()
    for d in enumerate_dissections(n, "triangulation", n):
        rows = build_frieze(d.quiddity_cc()).rows
        assert _same_validation(FriezePattern(n, rows)) is None
        for r, k in itertools.product(range(n - 1), range(n)):
            for value in _bumps(rows[r][k]):
                got = _same_validation(FriezePattern(n, _perturbed(rows, r, k, value)))
                assert got is not None, (rows, r, k, value)
                raised.add(got[0])
    # a triangle's frieze has its two borders and no diamond
    want = {NonPositiveEntry, BorderViolation} | ({DiamondViolation} if n > 3 else set())
    assert raised == want


@pytest.mark.parametrize("period, seed_value", [(200, 1), (200, 2), (500, 3)])
def test_build_and_validate_match_seed_at_large_periods(period, seed_value):
    rng = random.Random(seed_value)
    q = _triangulation_quiddity(rng, period)
    f = _same_build(q)
    assert isinstance(f, FriezePattern) and f.rows[-1] == (1,) * period
    assert _same_validation(f) is None
    for _ in range(3):
        # raising an entry raises every continuant, so only the last row
        # fails; lowering one makes some entry non-positive
        k = rng.randrange(period)
        for step in (1, -1):
            bumped = q[:k] + (q[k] + step,) + q[k + 1:]
            if min(bumped) > 0:
                assert _same_build(bumped)[0] is (BorderViolation if step > 0 else NonPositiveEntry)
        r, pos = rng.randrange(period - 1), rng.randrange(period)
        value = f.rows[r][pos] + rng.choice((-1, 1))
        assert _same_validation(FriezePattern(period, _perturbed(f.rows, r, pos, value))) is not None


def test_rows_given_as_lists_match_seed():
    for n in range(3, 8):
        for d in enumerate_dissections(n, "triangulation", n):
            q = list(d.quiddity_cc())
            rows = build_frieze(q).rows
            assert _same_build(q) == _same_build(tuple(q))
            listed = [list(row) for row in rows]
            assert _same_validation(FriezePattern(n, listed)) is None
            for r, k in itertools.product(range(n - 1), range(n)):
                for value in _bumps(rows[r][k]):
                    f = FriezePattern(n, _perturbed(listed, r, k, value, as_list=True))
                    assert _same_validation(f) == _same_validation(FriezePattern(n, _perturbed(rows, r, k, value)))


def _glide_image(rows, n, t):
    """Row n - 2 - t rotated right by n - 1 - t: row t of a closed frieze."""
    row, s = rows[n - 2 - t], (t + 1) % n
    return row[s:] + row[:s]


def test_glide_images_of_half_a_non_closed_frieze_match_seed():
    # rows 0..n // 2 are the continuant rows of q and the rest their glide
    # images; q is not closed, so the seam between the two halves fails and
    # validation must raise exactly where the seed does
    rng = random.Random(22)
    raised = Counter()
    for n in range(4, 12):
        for _ in range(300):
            q = tuple(rng.randint(1, 4) for _ in range(n))
            if m_product(q) == MAT_MINUS_IDENTITY:
                continue
            rows = [(1,) * n, q]
            for t in range(2, n // 2 + 1):
                rows.append(tuple(q[(k + t - 1) % n] * rows[t - 1][k] - rows[t - 2][k] for k in range(n)))
            rows += [_glide_image(rows, n, t) for t in range(n // 2 + 1, n - 1)]
            got = _same_validation(FriezePattern(n, tuple(rows)))
            assert got is not None, q
            raised[got[0]] += 1
    # most fakes are positive with borders of ones and fail a diamond past the seam
    assert raised[DiamondViolation] > 800 and set(raised) == {DiamondViolation, NonPositiveEntry, BorderViolation}


def test_glide_symmetric_perturbations_match_seed():
    # an entry and its glide image changed together keep the rows past the
    # middle equal to their images, so only the seam and the recurrence see it
    rng = random.Random(23)
    for n in range(4, 11):
        ds = list(enumerate_dissections(n, "triangulation", n))
        for d in rng.sample(ds, min(len(ds), 8)):
            rows = build_frieze(d.quiddity_cc()).rows
            for t, k in itertools.product(range(n - 1), range(n)):
                for value in _bumps(rows[t][k]):
                    new = _perturbed(rows, t, k, value, as_list=True)
                    new[n - 2 - t][(k + t + 1) % n] = value
                    assert _same_validation(FriezePattern(n, tuple(map(tuple, new)))) is not None, (rows, t, k, value)


def test_sampled_builds_match_seed():
    rng = random.Random(24)
    raised = set()
    for n in range(8, 13):
        for _ in range(400):
            raised.add(_same_build(tuple(rng.randint(1, 5) for _ in range(n)))[0])
        for _ in range(20):
            q = _triangulation_quiddity(rng, n)
            assert isinstance(_same_build(q), FriezePattern)
            k = rng.randrange(n)
            for step in (1, -1):
                _same_build(q[:k] + (q[k] + step,) + q[k + 1:])
    assert raised == {NonPositiveEntry, BorderViolation}


def test_closed_friezes_compute_half_the_rows(monkeypatch):
    calls = []
    row_kernel = frieze._next_row
    monkeypatch.setattr(frieze, "_next_row", lambda *args: calls.append(args[-1]) or row_kernel(*args))
    n = 200
    q = _triangulation_quiddity(random.Random(25), n)
    f = _same_build(q)
    assert isinstance(f, FriezePattern) and 0 < len(calls) <= n // 2
    calls.clear()
    assert _same_validation(f) is None and 0 < len(calls) <= n // 2
    # a raised entry leaves no seam: every row is computed, the last one fails
    calls.clear()
    assert _same_build((q[0] + 1,) + q[1:])[0] is BorderViolation
    assert len(calls) == n - 3
