"""Frozen reference copy of the diamond-rule frieze construction and check.

These are ``build_frieze`` and ``validate_frieze`` as they computed each
entry by the diamond rule west * east - north * south = 1: construction
divides by the north entry, validation multiplies out every diamond.  They
are kept verbatim in behaviour so the continuant-recurrence versions in
``quiddity.frieze`` can be compared against them.  Test use only.
"""

from quiddity.algebra import as_int_seq
from quiddity.frieze import (
    BorderViolation,
    DiamondViolation,
    FriezeError,
    FriezePattern,
    NonPositiveEntry,
)


def build_frieze(quiddity) -> FriezePattern:
    """Grow the pattern from a quiddity row; raise a FriezeError on failure."""
    q = as_int_seq(quiddity)
    n = len(q)
    if n < 3:
        raise ValueError(f"period must be at least 3, got {n}")
    rows: list[tuple[int, ...]] = [(1,) * n, q]
    while len(rows) < n - 1:
        prev, cur = rows[-2], rows[-1]
        r = len(rows) + 1
        new = []
        for k in range(n):
            north = prev[(k + 1) % n]  # positive, as every stored entry is
            # exact: entries are continuants, and Desnanot-Jacobi is this rule
            value = (cur[k] * cur[(k + 1) % n] - 1) // north
            if value <= 0:
                raise NonPositiveEntry(r, k + 1, value)
            new.append(value)
        rows.append(tuple(new))
    for k, value in enumerate(rows[-1]):
        if value != 1:
            raise BorderViolation(n - 1, k + 1)
    return FriezePattern(n, tuple(rows))


def validate_frieze(f: FriezePattern) -> None:
    """Check borders, positivity, periodicity, and every stored diamond."""
    n = f.n
    if n < 3:
        raise FriezeError(f"period must be at least 3, got {n}")
    if len(f.rows) != n - 1:
        raise FriezeError(f"expected {n - 1} rows, got {len(f.rows)}")
    for r, row in enumerate(f.rows, start=1):
        if len(row) != n:
            raise FriezeError(f"row {r} has period {len(row)}, expected {n}", row=r)
        for k, value in enumerate(row):
            if value <= 0:
                raise NonPositiveEntry(r, k + 1, value)
    for r in (1, n - 1):
        for k, value in enumerate(f.rows[r - 1]):
            if value != 1:
                raise BorderViolation(r, k + 1)
    for r in range(2, n - 1):
        prev, cur, nxt = f.rows[r - 2], f.rows[r - 1], f.rows[r]
        for k in range(n):
            west, east = cur[k], cur[(k + 1) % n]
            north, south = prev[(k + 1) % n], nxt[k]
            if west * east - north * south != 1:
                raise DiamondViolation(r, k + 1)
