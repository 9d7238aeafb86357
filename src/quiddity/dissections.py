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
cells meeting each vertex; the enumeration walk keeps the latter as cells close.
The count of ``_count_states`` sorts the dissections of a kind by the mod-2
product of their parity quiddity without listing them.
"""

import json
import math
import operator
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, NamedTuple

from .algebra import _MOD2_STEPS, _MOD2_WORDS, IntSeq, Mod2Seq

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


def _cc_quiddity(n: int, diagonals) -> IntSeq:
    """1 + the number of diagonals at each vertex of the n-gon."""
    counts = [1] * n
    for i, j in diagonals:
        counts[i - 1] += 1
        counts[j - 1] += 1
    return tuple(counts)


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
        inside, the innermost one still open.  That is O(n + d log d).  On a
        failure the first crossing pair in lexicographic order is named, in
        O(d log d): a later diagonal crosses (a, b) exactly when its left
        end lies strictly between a and b and its right end past b, so a
        sparse table of range maxima over the right ends finds the first
        (a, b) with such a partner.
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
        # ds is sorted, so a stable sort of it reversed by left end alone puts
        # equal left ends in descending order of right end
        for a, b in sorted(reversed(ds), key=operator.itemgetter(0)):
            while open_rights and open_rights[-1] <= a:
                open_rights.pop()
            if open_rights and open_rights[-1] < b:
                break
            open_rights.append(b)
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
        return _cc_quiddity(self._n, self._diagonals)

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
    (sorted) diagonal sets, starting with the empty set.  The sets come from
    ``_walk``, and only those of the requested kind are built.
    """
    sets = _walk(n, kind, cap)
    n = operator.index(n)
    for chosen, _ in sets:
        yield Dissection(n, tuple(chosen), check=False)


def _cell_sizes(n: int, kind: str, cap: int) -> tuple[int, set[int]]:
    """Check the arguments of ``_walk`` or ``_count_states``; return n and the cell sizes of the kind."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    n = operator.index(n)
    if n < 3:
        raise DissectionError(f"a polygon needs at least 3 vertices, got n={n}")
    _check_cap(n, "polygon", cap)
    rule = _CELL_RULES.get(kind, lambda s: True)
    return n, {s for s in range(3, n + 1) if rule(s)}


def _walk(n: int, kind: str, cap: int) -> Iterator[tuple[list, Callable[[], Mod2Seq]]]:
    """Check the arguments, then yield ``(chosen, parities)`` for each set of the kind.

    ``chosen`` is the walk's diagonal list and ``parities()`` the set's
    ``quiddity_mod2``, both valid until the walk resumes.  Open cells sit on
    a stack as [left, right, vertices so far], the side (1, n) at the bottom.
    At vertex v the walk tries (v, j) for ascending j up to the innermost
    open cell's right end; stepping to u closes the cells ending at u,
    innermost first, and adds u to the innermost one left.  A closing
    triangle toggles the parity of its left end, of u, and of the corner
    before u: the left end of the cell closed just before it at u, else
    u - 1.  Subtrees whose cells break the kind's rule are cut off; a set is
    yielded when its open cells, closed with no more diagonals, keep it.
    """
    n, allowed = _cell_sizes(n, kind, cap)
    # a cell never loses a vertex, so one past this size is a dead end
    largest = max(allowed)
    chosen: list[tuple[int, int]] = []
    stack = [[1, n, 2]]
    parity = [0] * (n + 1)  # over the closed cells, indexed by vertex

    def completes(v: int) -> bool:
        # vertices v + 1 .. right - 1 not under an inner cell join each cell
        inner = v + 1
        for _, right, size in reversed(stack):
            if size + right - inner not in allowed:
                return False
            inner = right
        return True

    def parities(v: int) -> Mod2Seq:
        # close the open cells, innermost first, as if no diagonal followed
        p = parity.copy()
        inner, before = v + 1, v
        for left, right, size in reversed(stack):
            if size + right - inner == 3:
                for x in (left, right - 1 if right > inner else before, right):
                    p[x] ^= 1
            inner, before = right, left
        return tuple(p[1:])

    def rec(v: int, j: int, base: int):
        # ``chosen`` ends at (v, j - 1); its cells from v sit at stack[base:]
        if completes(v):
            yield chosen, lambda: parities(v)
        passed = []
        while True:
            hi = stack[base - 1][1] if v > 1 else n - 1
            for w in range(j, hi + 1):
                chosen.append((v, w))
                stack.insert(base, [v, w, 2])
                yield from rec(v, w + 1, base)
                chosen.pop()
                del stack[base]
            v += 1
            if v > n - 2:
                break
            closed = []
            before = v - 1
            fits = True
            while stack[-1][1] == v:
                cell = stack.pop()
                if cell[2] == 3:  # every kind allows triangles
                    parity[cell[0]] ^= 1
                    parity[before] ^= 1
                    parity[v] ^= 1
                elif cell[2] not in allowed:
                    fits = False
                closed.append((cell, before))
                before = cell[0]
            stack[-1][2] += 1
            passed.append((v, closed))
            if not fits or stack[-1][2] > largest:
                break
            j, base = v + 2, len(stack)
        for u, closed in reversed(passed):
            stack[-1][2] -= 1
            for cell, before in reversed(closed):
                if cell[2] == 3:
                    parity[cell[0]] ^= 1
                    parity[before] ^= 1
                    parity[u] ^= 1
                stack.append(cell)

    return rec(1, 3, 1)


def _count_states(n: int, kind: str, cap: int) -> list[tuple[Mod2Seq, int]]:
    """Count the dissections of the n-gon of ``kind`` by the class of their parity quiddity.

    Checks the arguments as ``_walk`` does.  Returns sorted ``(word, count)``
    pairs: ``count`` dissections have a parity quiddity q with the mod-2
    product of ``word``, which is E(q_1) * g * E(q_n) for the product g of
    q_2 .. q_{n-1}.

    A segment i..j closed by the chord (i, j), or by the side (1, n), has
    the state (a, b, g): the triangle parities its cells add at i and at j,
    and the mod-2 product g of its interior entries, one of the six states
    of ``_MOD2_STEPS``.  A segment of length 1 is a side, (0, 0, Id).  A
    longer one is a root cell, whose corners i = u_0 < ... < u_t = j split
    it into t shorter segments (Flajolet-Sedgewick's decomposition of
    polygon dissections by root cell).  Joining them left to right puts
    E(b_k + a_{k+1}) between the products of neighbours, plus 1 at every
    corner of a triangle.  Segments depend only on their length, so one
    table by length, up to n - 1, gives the n-gon.
    """
    n, allowed = _cell_sizes(n, kind, cap)

    def times(g: int, word: tuple) -> int:
        for e in word:
            g = _MOD2_STEPS[g][e]
        return g

    mul = [[times(g, word) for word in _MOD2_WORDS] for g in range(6)]  # mul[g][h] = g * h

    def join(left: dict, right: dict, tau: int, out: dict) -> None:
        # each run of ``left`` followed by each segment of ``right``
        for (a0, b, g), m in left.items():
            for (a, b2, h), k in right.items():
                key = a0, b2, mul[_MOD2_STEPS[g][b ^ a ^ tau]][h]
                out[key] = out.get(key, 0) + m * k

    segments = {1: {(0, 0, 0): 1}}  # by length
    # runs[t][length]: t segments side by side under a cell of 4 or more
    # corners, for t up to the largest such cell's ``most`` segments
    runs = {1: segments}
    most = max(allowed) - 1 if max(allowed) > 3 else 1
    for length in range(2, n):
        closed = {}
        for t in range(2, min(most, length) + 1):
            runs.setdefault(t, {})[length] = run = {}
            for x in range(1, length - t + 2):
                join(runs[t - 1][length - x], segments[x], 0, run)
            if t > 2 and t + 1 in allowed:  # triangles close below
                for key, m in run.items():
                    closed[key] = closed.get(key, 0) + m
        triangles = {}  # every kind allows them
        for x in range(1, length):
            join(segments[length - x], segments[x], 1, triangles)
        for (a, b, g), m in triangles.items():
            key = a ^ 1, b ^ 1, g
            closed[key] = closed.get(key, 0) + m
        segments[length] = closed
    return sorted(((a, *_MOD2_WORDS[g], b), m) for (a, b, g), m in segments[n - 1].items())
