"""Convex polygon dissections by pairwise non-crossing diagonals.

Vertices are labeled 1..n counterclockwise in convex position.  A diagonal
is an unordered pair {i, j} with j - i >= 2 and (i, j) != (1, n); two
diagonals (a, b) and (c, d) written with a < b, c < d cross exactly when
a < c < b < d or c < a < d < b.  Because the vertices are convex, each
diagonal (i, j) cuts off one cell on the vertices i..j once every diagonal
nested inside it has cut off its own, so the cells come out of one walk
over the diagonals, innermost first, with no planar embedding machinery.
``Dissection.validate`` checks that nesting in O(d log d) for d diagonals,
with a min-heap of the right ends still open.

Quiddities read the dissection back off as a sequence: ``quiddity_cc``
counts the cells meeting each vertex (one more than the number of
diagonals there), ``quiddity_mod2`` the parity of the number of triangle
cells meeting each vertex.
One count engine, ``_Counts``, sorts the dissections of a kind into
classes without listing them, by the product and the entry sum of their cc
quiddity over Z, or of their parity quiddity mod 2: a dynamic program over
the root cell of each segment, keyed by the product and sum of the polygon
the segment cuts off, of which each theorem allows one product.
"""

import json
import math
import operator
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Iterator, NamedTuple

from .algebra import IntSeq, Mod2Seq, _mul

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


def _check_cap(n: int, what: str, cap: int) -> None:
    cap = operator.index(cap)
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the {what} cap {cap}")


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
    """A convex n-gon with non-crossing diagonals: checked, sorted and validated, unless ``_trusted``."""

    __slots__ = ("_n", "_diagonals", "_cells")

    def __init__(self, n: int, diagonals=()):
        if type(n) is not int:
            raise DissectionError(f"'n' must be an integer, got {n!r}")
        pairs = set()
        for p in diagonals:
            if not isinstance(p, (tuple, list)) or len(p) != 2:
                raise DissectionError(f"diagonal {p!r} is not a pair of vertices")
            a, b = p
            if type(a) is not int or type(b) is not int:
                raise DissectionError(f"diagonal endpoints must be integers, got {p!r}")
            pairs.add((a, b) if a < b else (b, a))
        self._n, self._diagonals = n, tuple(sorted(pairs))
        self.validate()

    @classmethod
    def _trusted(cls, n: int, diagonals: tuple[tuple[int, int], ...]) -> "Dissection":
        """Set the slots to n and strictly increasing int pairs (i, j), i < j, checking nothing."""
        self = cls.__new__(cls)
        self._n, self._diagonals = n, diagonals
        return self

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

        The pairs must strictly increase, as the constructor sorts them: a
        repeat crosses nothing, so no later check would see it.  A later
        diagonal (a, b) crosses an earlier (a', b') exactly when
        a' < a < b' < b, and the earlier ones with a' < a < b' are those
        still open at a.  A min-heap keeps their right ends, popping those at
        or before each new left end, so (a, b) crosses one exactly when b
        passes the least of them, read before its run of equal left ends is
        pushed.  That is O(d log d).  On a failure the first crossing pair in
        lexicographic order is named, in O(d log d): a later diagonal crosses
        (a, b) exactly when its left end lies strictly between a and b and its
        right end past b, so a sparse table of range maxima over the right
        ends finds the first (a, b) with such a partner.
        """
        ds = self._diagonals
        if any(map(operator.ge, ds, ds[1:])):
            raise DissectionError("diagonals must be strictly increasing, with no repeat")
        if self._n < 3:
            raise DissectionError(f"a polygon needs at least 3 vertices, got n={self._n}")
        for i, j in ds:
            if not (1 <= i < j <= self._n):
                raise DiagonalOutOfRange((i, j))
            if j - i < 2 or (i == 1 and j == self._n):
                raise SideAsDiagonal((i, j))
        around: list[int] = []  # min-heap of the right ends of the open diagonals
        left = 0
        for a, b in ds:
            if a != left:
                while around and around[0] <= a:
                    heappop(around)
                left, bound = a, around[0] if around else self._n
            if b > bound:
                break
            heappush(around, b)
        else:
            return
        lefts = [a for a, _ in ds]
        # table[k][i] = the largest right end among ds[i : i + 2**k]
        table = [[b for _, b in ds]]
        while 2 ** len(table) <= len(ds):
            row, half = table[-1], 2 ** (len(table) - 1)
            table.append([max(row[i], row[i + half]) for i in range(len(row) - half)])
        for a, b in ds:
            # ds[lo:hi] are the diagonals with a left end strictly between a and b
            lo, hi = bisect_right(lefts, a), bisect_left(lefts, b)
            if lo < hi:
                k = (hi - lo).bit_length() - 1
                if max(table[k][lo], table[k][hi - 2 ** k]) > b:
                    y = next(y for y in ds[lo:hi] if _crosses((a, b), y))
                    raise CrossingDiagonals((a, b), y)

    def cells(self) -> tuple[tuple[int, ...], ...]:
        """The sub-polygons of the dissection, each as an ascending vertex tuple.

        Walks the diagonals innermost first, then the side (1, n): by
        descending left end, and equal left ends in their stored ascending
        order of right end, which the stable sort keeps.  ``nxt[v]`` is the
        next vertex after v on the part of the polygon not yet cut off, so
        diagonal (i, j) cuts off the cell reached from i along ``nxt`` up to
        j and then sets ``nxt[i] = j``.  ``nxt[v] > v`` always holds, so the
        walk ends on any input.  The walk runs once per object; later calls
        return the same tuple.
        """
        if hasattr(self, "_cells"):
            return self._cells
        n = self._n
        nxt = list(range(1, n + 2))
        out = []
        for i, j in [*sorted(self._diagonals, key=operator.itemgetter(0), reverse=True), (1, n)]:
            cell = [i]
            while cell[-1] < j:
                cell.append(nxt[cell[-1]])
            nxt[i] = j
            out.append(tuple(cell))
        out.sort()
        self._cells = tuple(out)
        return self._cells

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
        schema = data.get("schema", 1)
        if type(schema) is not int or schema != 1:
            raise DissectionError(f"unsupported schema {schema!r}")
        try:
            n = data["n"]
            diagonals = data["diagonals"]
        except KeyError as exc:
            raise DissectionError(f"dissection JSON missing key {exc}") from None
        if not isinstance(diagonals, list):
            raise DissectionError("'diagonals' must be a list of vertex pairs")
        return cls(n, diagonals)

    @classmethod
    def from_json(cls, text: str) -> "Dissection":
        # json.loads raises RecursionError on arrays or objects nested too deeply
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
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


# The return annotation is a string: typing caches Iterator[Dissection] with
# the class as its key, which would keep every earlier import of the package
# alive after a fresh import.
def enumerate_dissections(
    n: int, kind: str = "all", cap: int = DEFAULT_POLYGON_CAP
) -> "Iterator[Dissection]":
    """Yield every dissection of the labeled n-gon whose cells match ``kind``.

    ``kind`` is one of ``"all"``, ``"triangulation"``, ``"34"``, ``"3d"``.
    The stream is the depth-first preorder of the non-crossing diagonal
    sets, each set followed by its extensions with lexicographically larger
    diagonals, so it is deterministic and sorted lexicographically on the
    (sorted) diagonal sets, starting with the empty set.  The arguments are
    checked on the first ``next()``.

    Open cells sit on a stack as [right end, vertices so far], the side
    (1, n) at the bottom.  At vertex v the walk tries (v, j) for ascending j
    up to the innermost open cell's right end; stepping to u closes the
    cells ending at u, innermost first, and adds u to the innermost one
    left.  Subtrees whose cells break the kind's rule are cut off, and a set
    is built only when its open cells, closed with no more diagonals, keep it.
    """
    n, allowed = _cell_sizes(n, kind)
    _check_cap(n, "polygon", cap)
    # a cell never loses a vertex, so one past this size is a dead end
    largest = max(allowed)
    chosen: list[tuple[int, int]] = []
    stack = [[n, 2]]

    def rec(v: int, j: int, base: int):
        # ``chosen`` ends at (v, j - 1); its cells from v sit at stack[base:]
        # vertices v + 1 .. right - 1 not under an inner cell join each cell
        inner = v + 1
        for right, size in reversed(stack):
            if size + right - inner not in allowed:
                break
            inner = right
        else:
            yield Dissection._trusted(n, tuple(chosen))
        passed = []
        while True:
            hi = stack[base - 1][0] if v > 1 else n - 1
            for w in range(j, hi + 1):
                chosen.append((v, w))
                stack.insert(base, [w, 2])
                yield from rec(v, w + 1, base)
                chosen.pop()
                del stack[base]
            v += 1
            if v > n - 2:
                break
            closed = []
            fits = True
            while stack[-1][0] == v:
                cell = stack.pop()
                if cell[1] not in allowed:
                    fits = False
                closed.append(cell)
            stack[-1][1] += 1
            passed.append(closed)
            if not fits or stack[-1][1] > largest:
                break
            j, base = v + 2, len(stack)
        for closed in reversed(passed):
            stack[-1][1] -= 1
            stack.extend(reversed(closed))

    yield from rec(1, 3, 1)


def _cell_sizes(n: int, kind: str) -> tuple[int, set[int]]:
    """Check the kind and n of ``enumerate_dissections`` or ``_Counts``; return n and the cell sizes of the kind."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    n = operator.index(n)
    if n < 3:
        raise DissectionError(f"a polygon needs at least 3 vertices, got n={n}")
    rule = _CELL_RULES.get(kind, lambda s: True)
    return n, {s for s in range(3, n + 1) if rule(s)}


# The moduli a count table reduces by: 0 counts over Z, 2 mod 2.
_OVER_Z, _OVER_F2 = 0, 2


def _reduced(g: tuple, s: int, p: int) -> tuple:
    """The product g and the sum s, reduced mod p unless p is 0 (over Z)."""
    if p:
        a, b, c, d = g
        return (a % p, b % p, c % p, d % p), s % p
    return g, s


class _Counts:
    """The count's table of segment states by length, for one kind over Z or mod 2.

    A segment i..j, closed by the chord (i, j) or by the side (1, n), cuts
    off a polygon dissected by the cells inside it.  Its state is the
    product h, an int 4-tuple, and the sum s of that polygon's quiddity:
    over Z (``_OVER_Z``) the cc quiddity, where every cell adds w = 1 at
    each corner; mod 2 (``_OVER_F2``) the parity quiddity, where a triangle
    adds w = 1 and any other cell w = 0, and every value is reduced mod 2.
    A side is (E(0) E(0) = -Id, 0).  A longer segment is a root cell whose
    corners i = u_0 < ... < u_t = j split it into t shorter segments
    (Flajolet-Sedgewick's decomposition by root cell).  With E(c) = T^c S,
    E(x + w) E(x)^-1 = T^w takes what the cell adds at a corner out of the
    entry there, so the cell closes to T^w h_1 S^-1 T^w h_2 ... S^-1 T^w
    h_t S^-1 T^w S, with the parts' sums plus (t + 1) w.  A run of t parts,
    h_1 S^-1 T^w ... h_t, is kept per weight w, for t up to the largest
    cell of that weight less one: over Z one weight for every size, mod 2
    the triangle apart from the larger cells.  One loop grows each weight
    and closes its runs into cells where t + 1 is a size of that weight.
    Segments depend only on their length, so one table by length, grown on
    demand, serves every polygon up to the n-gon, whose class is the state
    of its segment 1..n.  ``kind`` and n are checked as
    ``enumerate_dissections`` checks them; the sweeps hold n to their count
    cap.  ``tests/seed_counts.py`` keeps the open-state engine this one
    replaced, and ``tests/test_count_differential.py`` compares the two.
    """

    def __init__(self, kind: str, modulus: int, n: int):
        self.n, allowed = _cell_sizes(n, kind)
        self._modulus = modulus
        self._segments = {1: {_reduced((-1, 0, 0, -1), 0, modulus): 1}}  # by length: {(h, s): count}
        by_weight = {1: allowed} if modulus == _OVER_Z else {1: {3}, 0: allowed - {3}}
        # runs[w] = (the sizes of weight w, {t: {length: run of t segments}})
        self._runs = {w: (sizes, {1: self._segments}) for w, sizes in by_weight.items() if sizes}

    def _join(self, left: dict, x: int, w: int, out: dict) -> None:
        """Add each run of ``left`` times S^-1 T^w times each segment of length x to ``out``."""
        p = self._modulus
        segments = self._segments[x].items()
        for (g, s), m in left.items():
            g, s = _mul(g, (0, 1, -1, -w)), s + w
            for (h, t), k in segments:
                key = _reduced(_mul(g, h), s + t, p)
                out[key] = out.get(key, 0) + m * k

    def _close(self, run: dict, w: int, out: dict) -> None:
        """Add each run X of ``run``, closed to T^w X S^-1 T^w S, to ``out``."""
        p = self._modulus
        for (g, s), m in run.items():
            key = _reduced(_mul(_mul((1, w, 0, 1), g), (1, 0, -w, 1)), s + 2 * w, p)
            out[key] = out.get(key, 0) + m

    def _grow(self) -> None:
        length = len(self._segments) + 1
        closed = {}
        for w, (sizes, runs) in self._runs.items():
            for t in range(2, min(max(sizes) - 1, length) + 1):
                runs.setdefault(t, {})[length] = run = {}
                for x in range(1, length - t + 2):
                    self._join(runs[t - 1][length - x], x, w, run)
                if t + 1 in sizes:
                    self._close(run, w, closed)
        self._segments[length] = closed

    def classes(self, n: int) -> list:
        """Sorted ``((m, total), count)`` pairs: ``count`` dissections of the n-gon.

        Each has a quiddity q with the product M(q) = m, an int 4-tuple, and
        the sum ``total``, both reduced mod the table's modulus.
        """
        if not 3 <= n <= self.n:
            raise ValueError(f"the table counts polygons of 3..{self.n} vertices, not {n}")
        while len(self._segments) < n - 1:
            self._grow()
        return sorted(self._segments[n - 1].items())
