"""Convex polygon dissections by pairwise non-crossing diagonals.

Vertices are labeled 1..n counterclockwise in convex position.  A diagonal
is an unordered pair {i, j} with j - i >= 2 and (i, j) != (1, n); two
diagonals (a, b) and (c, d) written with a < b, c < d cross exactly when
a < c < b < d or c < a < d < b.  Because the vertices are convex, each
diagonal (i, j) cuts off one cell on the vertices i..j once every diagonal
nested inside it has cut off its own, so the cells come out of one walk
over the diagonals, innermost first, with no planar embedding machinery.

Quiddities read the dissection back off as a sequence: ``quiddity_cc``
counts the cells meeting each vertex (one more than the number of
diagonals there), ``quiddity_mod2`` the parity of the number of triangle
cells meeting each vertex.
"""

import json
import math
import operator
from typing import Iterator, NamedTuple

from .algebra import Mod2Seq, IntSeq

__all__ = [
    "DEFAULT_POLYGON_CAP",
    "DissectionError",
    "DiagonalOutOfRange",
    "SideAsDiagonal",
    "CrossingDiagonals",
    "CapExceeded",
    "DissectionFlags",
    "Dissection",
    "enumerate_dissections",
]

DEFAULT_POLYGON_CAP = 12


class DissectionError(ValueError):
    """Invalid dissection data."""


class DiagonalOutOfRange(DissectionError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"diagonal {pair} is not a pair of distinct vertices in range")


class SideAsDiagonal(DissectionError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"{pair} is a side of the polygon, not a diagonal")


class CrossingDiagonals(DissectionError):
    def __init__(self, first, second):
        self.first = first
        self.second = second
        super().__init__(f"diagonals {first} and {second} cross")


class CapExceeded(ValueError):
    """An enumeration was requested beyond its configured size cap."""


class DissectionFlags(NamedTuple):
    is_triangulation: bool
    is_34: bool
    is_3d: bool


# Cell-size rule of each kind, in the field order of DissectionFlags.
_CELL_RULES = {
    "triangulation": lambda s: s == 3,
    "34": lambda s: s in (3, 4),
    "3d": lambda s: s % 3 == 0,
}
_KINDS = ("all", *_CELL_RULES)


def _crosses(p: tuple[int, int], q: tuple[int, int]) -> bool:
    a, b = p
    c, d = q
    return a < c < b < d or c < a < d < b


class Dissection:
    """A convex n-gon with a set of pairwise non-crossing diagonals."""

    __slots__ = ("_n", "_diagonals")

    def __init__(self, n: int, diagonals=(), check: bool = True):
        if type(n) is not int:
            raise DissectionError(f"'n' must be an integer, got {n!r}")
        pairs = set()
        for p in diagonals:
            a, b = p
            if type(a) is not int or type(b) is not int:
                raise DissectionError(f"diagonal endpoints must be integers, got {p!r}")
            pairs.add((a, b) if a < b else (b, a))
        self._n = n
        self._diagonals = tuple(sorted(pairs))
        if check:
            self.validate()

    @property
    def n(self) -> int:
        return self._n

    @property
    def diagonals(self) -> tuple[tuple[int, int], ...]:
        return self._diagonals

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dissection):
            return NotImplemented
        return self._n == other._n and self._diagonals == other._diagonals

    def __hash__(self) -> int:
        return hash((self._n, self._diagonals))

    def __repr__(self) -> str:
        return f"Dissection(n={self._n}, diagonals={list(self._diagonals)})"

    def validate(self) -> None:
        """Check all invariants; raise a DissectionError subclass on failure.

        Non-crossing diagonals nest like parentheses: sorted by left end
        ascending and right end descending, each must close before, or
        inside, the innermost one still open.  That is O(n + d log d); on a
        failure the pairwise scan names the first crossing pair.
        """
        if self._n < 3:
            raise DissectionError(f"a polygon needs at least 3 vertices, got n={self._n}")
        for i, j in self._diagonals:
            if not (1 <= i < j <= self._n):
                raise DiagonalOutOfRange((i, j))
            if j - i < 2 or (i == 1 and j == self._n):
                raise SideAsDiagonal((i, j))
        ds = self._diagonals
        open_rights: list[int] = []
        for a, b in sorted(ds, key=lambda p: (p[0], -p[1])):
            while open_rights and open_rights[-1] <= a:
                open_rights.pop()
            if open_rights and open_rights[-1] < b:
                break
            open_rights.append(b)
        else:
            return
        for x in range(len(ds)):
            for y in range(x + 1, len(ds)):
                if _crosses(ds[x], ds[y]):
                    raise CrossingDiagonals(ds[x], ds[y])

    def cells(self) -> tuple[tuple[int, ...], ...]:
        """The sub-polygons of the dissection, each as an ascending vertex tuple.

        Walks the diagonals innermost first (by span j - i), then the side
        (1, n).  ``nxt[v]`` is the next vertex after v on the part of the
        polygon not yet cut off, so diagonal (i, j) cuts off the cell
        reached from i along ``nxt`` up to j and then sets ``nxt[i] = j``.
        ``nxt[v] > v`` always holds, so the walk ends on any input.
        """
        n = self._n
        nxt = list(range(1, n + 2))
        out = []
        for i, j in [*sorted(self._diagonals, key=lambda p: p[1] - p[0]), (1, n)]:
            cell = [i]
            while cell[-1] < j:
                cell.append(nxt[cell[-1]])
            nxt[i] = j
            out.append(tuple(cell))
        out.sort()
        return tuple(out)

    def classify(self) -> DissectionFlags:
        """Cell-size flags: all triangles / all in {3,4} / all multiples of 3."""
        sizes = {len(c) for c in self.cells()}
        return DissectionFlags(*(all(map(rule, sizes)) for rule in _CELL_RULES.values()))

    def quiddity_cc(self) -> IntSeq:
        """Entry i = number of cells having vertex i as a corner: 1 + its diagonals."""
        counts = [1] * self._n
        for i, j in self._diagonals:
            counts[i - 1] += 1
            counts[j - 1] += 1
        return tuple(counts)

    def quiddity_mod2(self) -> Mod2Seq:
        """Entry i = parity of the number of triangle cells at vertex i."""
        counts = [0] * self._n
        for cell in self.cells():
            if len(cell) == 3:
                for v in cell:
                    counts[v - 1] ^= 1
        return tuple(counts)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self._n,
            "diagonals": [list(pair) for pair in self._diagonals],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Dissection":
        if not isinstance(data, dict):
            raise DissectionError("dissection JSON must be an object")
        if data.get("schema", 1) != 1:
            raise DissectionError(f"unsupported schema {data.get('schema')!r}")
        try:
            n = data["n"]
            diagonals = data["diagonals"]
        except KeyError as exc:
            raise DissectionError(f"dissection JSON missing key {exc}") from None
        if not isinstance(diagonals, list) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in diagonals
        ):
            raise DissectionError("'diagonals' must be a list of vertex pairs")
        return cls(n, diagonals)

    @classmethod
    def from_json(cls, text: str) -> "Dissection":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DissectionError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(data)

    def to_dot(self, geometry: str | None = None) -> str:
        """DOT graph with one edge per polygon side and per diagonal.

        ``geometry="circle"`` pins vertex k to the unit circle at angle
        2*pi*(k-1)/n so renders are reproducible; otherwise layout is left
        to the renderer.
        """
        if geometry not in (None, "circle"):
            raise ValueError(f"unknown geometry {geometry!r}")
        n = self._n
        lines = ["graph dissection {"]
        if geometry == "circle":
            for v in range(1, n + 1):
                angle = 2.0 * math.pi * (v - 1) / n
                lines.append(f'  {v} [pos="{math.cos(angle):.4f},{math.sin(angle):.4f}!"];')
        for v in range(1, n):
            lines.append(f"  {v} -- {v + 1};")
        lines.append(f"  {n} -- 1;")
        for i, j in self._diagonals:
            lines.append(f"  {i} -- {j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def enumerate_dissections(
    n: int, kind: str = "all", cap: int = DEFAULT_POLYGON_CAP
) -> Iterator[Dissection]:
    """Yield every dissection of the labeled n-gon whose cells match ``kind``.

    ``kind`` is one of ``"all"``, ``"triangulation"``, ``"34"``, ``"3d"``.
    The stream is the depth-first preorder of the non-crossing diagonal
    sets, each set followed by its extensions with lexicographically larger
    diagonals, so it is deterministic and sorted lexicographically on the
    (sorted) diagonal sets, starting with the empty set.  Only the sets of
    the requested kind are built.

    The walk goes vertex by vertex.  A stack holds the open diagonals, the
    side (1, n) at the bottom, each with its right end and the number of
    vertices its cell has so far.  At vertex v the candidates are (v, j)
    for ascending j up to the right end of the innermost open diagonal
    covering v (n - 1 at v = 1), so none of them crosses a chosen one.
    Stepping to vertex v + 1 closes the cells of the diagonals ending
    there and adds v + 1 to the innermost cell still open; a subtree is
    cut off as soon as a closed cell breaks the kind's rule or an open one
    outgrows the kind's largest cell.  A set is yielded when every open
    cell, completed with no more diagonals, keeps the rule.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    n = operator.index(n)
    if n < 3:
        raise DissectionError(f"a polygon needs at least 3 vertices, got n={n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the polygon cap {cap}")

    rule = _CELL_RULES.get(kind, lambda s: True)
    # a cell never loses a vertex, so one past this size is a dead end
    largest = max(s for s in range(3, n + 1) if rule(s))
    chosen: list[tuple[int, int]] = []
    rights = [n]
    sizes = [2]

    def completes(v: int) -> bool:
        # vertices v + 1 .. right - 1 not under an inner cell join each cell
        inner = v + 1
        for k in range(len(rights) - 1, -1, -1):
            if not rule(sizes[k] + rights[k] - inner):
                return False
            inner = rights[k]
        return True

    def rec(v: int, j: int, base: int) -> Iterator[Dissection]:
        # ``chosen`` ends at (v, j - 1); its diagonals from v sit at
        # rights[base:], the innermost (shortest) on top
        if completes(v):
            yield Dissection(n, tuple(chosen), check=False)
        passed = []
        while True:
            hi = rights[base - 1] if v > 1 else n - 1
            for w in range(j, hi + 1):
                chosen.append((v, w))
                rights.insert(base, w)
                sizes.insert(base, 2)
                yield from rec(v, w + 1, base)
                chosen.pop()
                del rights[base], sizes[base]
            v += 1
            if v > n - 2:
                break
            closed = []
            while rights[-1] == v:
                rights.pop()
                closed.append(sizes.pop())
            sizes[-1] += 1
            passed.append((v, closed))
            if sizes[-1] > largest or not all(map(rule, closed)):
                break
            j, base = v + 2, len(rights)
        for u, closed in reversed(passed):
            sizes[-1] -= 1
            for size in reversed(closed):
                rights.append(u)
                sizes.append(size)

    yield from rec(1, 3, 1)
