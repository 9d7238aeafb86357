"""Frozen reference copies of the quadratic/cubic surgery core.

These are the original implementations of the reduction, both
realizations and the pairwise crossing check, kept verbatim in behaviour
so the linear-time engine in ``quiddity.surgery`` and the stack-based
``Dissection.validate`` can be compared against them.  Test use only.
"""

from quiddity import Dissection
from quiddity.algebra import as_mod2_seq, format_seq
from quiddity.dissections import (
    CrossingDiagonals,
    DiagonalOutOfRange,
    DissectionError,
    SideAsDiagonal,
)
from quiddity.surgery import AllEven, NotASolution, SurgeryError, TooShort


def pairwise_validate(d: Dissection) -> None:
    """Check every pair of diagonals for a crossing, O(d^2)."""
    n = d.n
    if n < 3:
        raise DissectionError(f"a polygon needs at least 3 vertices, got n={n}")
    for i, j in d.diagonals:
        if not (1 <= i < j <= n):
            raise DiagonalOutOfRange((i, j))
        if j - i < 2 or (i == 1 and j == n):
            raise SideAsDiagonal((i, j))
    ds = d.diagonals
    for x in range(len(ds)):
        for y in range(x + 1, len(ds)):
            a, b = ds[x]
            c, e = ds[y]
            if a < c < b < e or c < a < e < b:
                raise CrossingDiagonals(ds[x], ds[y])


def unchecked(n: int, diagonals) -> Dissection:
    """The pairs as (min, max), sorted with no repeat, as ``Dissection(n, diagonals)`` has them, not validated."""
    return Dissection._trusted(n, tuple(sorted({(min(p), max(p)) for p in diagonals})))


def _checked(n: int, diagonals) -> Dissection:
    d = unchecked(n, diagonals)
    pairwise_validate(d)
    return d


def _inv_a(s, i):
    n = len(s)
    t = list(s)
    t[(i - 2) % n] ^= 1
    t[i % n] ^= 1
    del t[i - 1]
    return tuple(t)


def reduce_to_base(seq):
    """Smallest-1 pivot, else the 0,0 pair at index 1.

    Returns ``(accepted, remainder, steps)`` with steps as (kind, index).
    """
    s = as_mod2_seq(seq)
    steps = []
    while len(s) > 3:
        if 1 in s:
            pivot = s.index(1) + 1
            steps.append(("InvA", pivot))
            s = _inv_a(s, pivot)
        else:
            steps.append(("InvB", 1))
            s = s[2:]
    return s == (0, 0) or s == (1, 1, 1), s, steps


def trace_json(seq):
    """The trace JSON object of an accepted sequence, or None."""
    accepted, base, steps = reduce_to_base(seq)
    if not accepted:
        return None
    return {
        "schema": 1,
        "base": format_seq(base),
        "steps": [{"kind": kind, "index": index} for kind, index in steps],
    }


def _glue_triangle(d: Dissection, pos: int) -> Dissection:
    m = d.n
    diagonals = [(a + (a >= pos), b + (b >= pos)) for a, b in d.diagonals]
    if pos == 1:
        diagonals.append((2, m + 1))
    elif pos == m + 1:
        diagonals.append((1, m))
    else:
        diagonals.append((pos - 1, pos + 1))
    return _checked(m + 1, diagonals)


def _glue_quadrilateral(d: Dissection, pos: int) -> Dissection:
    m = d.n
    diagonals = [(a + 2 * (a >= pos), b + 2 * (b >= pos)) for a, b in d.diagonals]
    if pos == 1:
        diagonals.append((3, m + 2))
    elif pos == m + 1:
        diagonals.append((1, m))
    else:
        diagonals.append((pos - 1, pos + 2))
    return _checked(m + 2, diagonals)


def realize_dissection(seq) -> Dissection:
    s = as_mod2_seq(seq)
    if len(s) < 3:
        raise TooShort(f"need length >= 3 to realize a polygon, got {len(s)}")
    accepted, base, steps = reduce_to_base(s)
    if not accepted:
        raise NotASolution(base)
    if base == (1, 1, 1):
        d = _checked(3, ())
    else:
        d = _checked(4, ())
        steps = steps[:-1]
    for kind, index in reversed(steps):
        if kind == "InvA":
            d = _glue_triangle(d, index)
        else:
            d = _glue_quadrilateral(d, index)
    return d


def realize_triangulation(seq) -> Dissection:
    s = as_mod2_seq(seq)
    if len(s) < 3:
        raise TooShort(f"need length >= 3 to realize a polygon, got {len(s)}")
    accepted, remainder, _ = reduce_to_base(s)
    if not accepted:
        raise NotASolution(remainder)
    if 1 not in s:
        raise AllEven(f"{format_seq(s)} has no odd entry; no triangulation exists")

    pivots = []
    t = s
    while len(t) > 3:
        pivot = None
        for i in range(1, len(t) + 1):
            if t[i - 1] != 1:
                continue
            candidate = _inv_a(t, i)
            if any(candidate):
                pivot = i
                t = candidate
                break
        if pivot is None:
            raise SurgeryError(f"no usable pivot in {format_seq(t)}")
        pivots.append(pivot)
    if t != (1, 1, 1):
        raise SurgeryError(f"descent ended at {format_seq(t)} instead of 1,1,1")

    d = _checked(3, ())
    for pivot in reversed(pivots):
        d = _glue_triangle(d, pivot)
    return d
