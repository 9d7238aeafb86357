"""Frieze patterns: construction from a quiddity row and validation.

A pattern of period n has n - 1 rows, the first and last all 1's, stored
one period per row.  Rows drift southeast: the diamond whose west and east
entries are ``rows[r][k]`` and ``rows[r][k+1]`` has its north at
``rows[r-1][k+1]`` and its south at ``rows[r+1][k]``, and must satisfy
west * east - north * south = 1.  Entry k of row r + 1 is the continuant
K(k..k+r-1) of the run c_k, ..., c_{k+r-1} of the quiddity c (row 1 is the
empty run, row 2 the quiddity), so each row follows from the two above it
by the continuant recurrence

    K(k..k+r) = c_{k+r} * K(k..k+r-1) - K(k..k+r-2),

with no division.  Construction fails with a structured error on a
non-positive entry or a last row that is not all ones; such failures
witness that the input is not the quiddity of a triangulation.  Validation
checks each row against the recurrence applied to the two rows above.  Once
the entries are positive this is the diamond rule, diamond for diamond: by
Desnanot-Jacobi, K(i..j) K(i+1..j+1) - K(i..j+1) K(i+1..j) = 1, so
continuants satisfy the rule, and a positive north fixes its south.  If
every earlier diamond holds, the rows above are continuant rows and a
diamond fails exactly where its south differs from the recurrence's.

A closed frieze (M(c) = -Id) is invariant under a glide reflection: with
0-based rows, row t is row n - 2 - t rotated right by n - 1 - t places.
Glide images of continuant rows satisfy the diamond rule too, so once rows
h - 1 and h (h = n // 2) equal their images, a positive north fixes every
later south and the rows past h are the images of the rows above, positive
and ending in ones.  Construction computes rows 0..h and copies the rest
when this seam holds; validation checks rows 2..h by the recurrence and
the rest against their images.  A valid frieze always has the seam; on any
mismatch both fall back to the row-by-row loop, which raises every error.
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


def _next_row(q, prev, cur, r: int) -> tuple:
    """Row r + 1 of the frieze of ``q`` from rows r - 1 and r (1-based)."""
    s = (r - 1) % len(q)
    return tuple([c * x - y for c, x, y in zip(q[s:] + q[:s], cur, prev)])


def _glide(rows, n: int, t: int):
    """Image of row t under the glide: row n - 2 - t rotated right by n - 1 - t."""
    row, s = rows[n - 2 - t], (t + 1) % n
    return row[s:] + row[:s]


def _seam(rows, n: int) -> bool:
    """True iff rows h - 1 and h, h = n // 2, equal their glide images."""
    return all(rows[t] == _glide(rows, n, t) for t in (n // 2 - 1, n // 2))


def build_frieze(quiddity) -> FriezePattern:
    """Grow the pattern from a quiddity row; raise a FriezeError on failure."""
    q = as_int_seq(quiddity)
    n = len(q)
    if n < 3:
        raise ValueError(f"period must be at least 3, got {n}")
    ones = (1,) * n
    rows: list[tuple[int, ...]] = [ones, q]
    for r in range(2, n - 1):
        if r == n // 2 + 1 and _seam(rows, n):
            rows += [_glide(rows, n, t) for t in range(r, n - 1)]
            break
        new = _next_row(q, rows[-2], rows[-1], r)
        if min(new) <= 0:
            k = next(k for k, value in enumerate(new) if value <= 0)
            raise NonPositiveEntry(r + 1, k + 1, new[k])
        rows.append(new)
    if rows[-1] != ones:
        raise BorderViolation(n - 1, next(k for k, value in enumerate(rows[-1]) if value != 1) + 1)
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
        if min(row) <= 0:
            k = next(k for k, value in enumerate(row) if value <= 0)
            raise NonPositiveEntry(r, k + 1, row[k])
    for r in (1, n - 1):
        for k, value in enumerate(f.rows[r - 1]):
            if value != 1:
                raise BorderViolation(r, k + 1)
    # with positive entries and ones on the borders, a row equal to the
    # recurrence's is one whose diamonds all hold (see the module docstring)
    q, rows = f.rows[1], f.rows
    for r in range(2, n - 1):
        if r == n // 2 + 1 and _seam(rows, n) and all(rows[t] == _glide(rows, n, t) for t in range(r, n - 1)):
            return
        nxt = tuple(rows[r])
        want = _next_row(q, rows[r - 2], rows[r - 1], r)
        if nxt != want:
            raise DiamondViolation(r, next(k for k in range(n) if nxt[k] != want[k]) + 1)


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
