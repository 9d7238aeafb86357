"""Frieze patterns: construction from a quiddity row and validation.

A pattern of period n has n - 1 rows, the first and last all 1's, stored
one period per row.  Rows drift southeast: the diamond whose west and east
entries are ``rows[r][k]`` and ``rows[r][k+1]`` has its north at
``rows[r-1][k+1]`` and its south at ``rows[r+1][k]``, and must satisfy
west * east - north * south = 1.  Construction fills row 1 with ones, row 2
with the quiddity, and each later entry by the diamond rule

    south = (west * east - 1) / north,

failing with a structured error on a non-positive entry or a last row that
is not all ones.  Such failures witness that the input is not the quiddity
of a triangulation.  Every division is exact: the entries are the
continuants K(i..j) of runs c_i, ..., c_j of the quiddity, and the
Desnanot-Jacobi identity K(i..j) K(i+1..j+1) - K(i..j+1) K(i+1..j) = 1 is
the diamond rule, so a positive north always divides west * east - 1.
"""

from dataclasses import dataclass

from .algebra import (
    IntSeq,
    MAT_MINUS_IDENTITY,
    as_int_seq,
    m_product,
)

__all__ = [
    "FriezeError",
    "NonPositiveEntry",
    "BorderViolation",
    "DiamondViolation",
    "FriezePattern",
    "build_frieze",
    "validate_frieze",
    "sum_condition",
    "coxeter_row_check",
    "render_text",
    "frieze_to_json_dict",
]


class FriezeError(ValueError):
    """Invalid frieze pattern; carries 1-based (row, pos) coordinates."""

    def __init__(self, message: str, row: int | None = None, pos: int | None = None):
        self.row = row
        self.pos = pos
        super().__init__(message)


class NonPositiveEntry(FriezeError):
    def __init__(self, row: int, pos: int, value: int):
        super().__init__(f"entry {value} at row {row}, position {pos} is not positive", row, pos)
        self.value = value


class BorderViolation(FriezeError):
    def __init__(self, row: int, pos: int):
        super().__init__(f"border row {row} is not all 1's (position {pos})", row, pos)


class DiamondViolation(FriezeError):
    def __init__(self, row: int, pos: int):
        super().__init__(f"diamond at row {row}, position {pos} violates the unimodular rule", row, pos)


@dataclass(frozen=True, slots=True)
class FriezePattern:
    """Period n and the n - 1 stored rows, one period each."""

    n: int
    rows: tuple[tuple[int, ...], ...]


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


def sum_condition(seq) -> bool:
    """True iff the entries sum to 3n - 6."""
    s = as_int_seq(seq)
    if len(s) < 3:
        raise ValueError(f"need length >= 3, got {len(s)}")
    return sum(s) == 3 * len(s) - 6


def coxeter_row_check(f: FriezePattern) -> bool:
    """True iff rows 2 and n - 2 both multiply to -Id."""
    validate_frieze(f)
    return (
        m_product(f.rows[1]) == MAT_MINUS_IDENTITY
        and m_product(f.rows[f.n - 3]) == MAT_MINUS_IDENTITY
    )


def render_text(f: FriezePattern) -> str:
    """Staggered text layout; odd rows are indented half a column."""
    width = max(len(str(e)) for row in f.rows for e in row)
    half = " " * ((width + 3) // 2)
    lines = []
    for r, row in enumerate(f.rows, start=1):
        body = ("   ").join(str(e).rjust(width) for e in row)
        lines.append(((half if r % 2 == 1 else "") + body).rstrip())
    return "\n".join(lines) + "\n"


def frieze_to_json_dict(f: FriezePattern) -> dict:
    return {"schema": 1, "n": f.n, "rows": [list(row) for row in f.rows]}
