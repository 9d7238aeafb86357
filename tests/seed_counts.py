"""Frozen reference copy of the open-state dissection count.

This is the ``_Counts`` engine that keyed each segment by its open state
(a, b, g, s): what its cells add at each end, its interior product and its
interior sum.  It is kept verbatim in behaviour so the closed-state engine
in ``quiddity.dissections`` can be compared against it.  Test use only.
"""

from quiddity.algebra import _mul
from quiddity.dissections import _OVER_Z, _cell_sizes


def reduced(g: tuple, s: int, p: int) -> tuple:
    """The product g and the sum s, reduced mod p unless p is 0 (over Z)."""
    if p:
        a, b, c, d = g
        return (a % p, b % p, c % p, d % p), s % p
    return g, s


class Counts:
    """The count's table of segment states by length, for one kind over Z or mod 2.

    A segment i..j closed by the chord (i, j), or by the side (1, n), has
    the state (a, b, g, s): what its cells add at i and at j, and the
    product g, an int 4-tuple, and the sum s of its interior entries, which
    no cell outside it touches.  The modulus picks the quiddity: over Z
    (``_OVER_Z``) every cell adds 1 at each of its corners, as in the cc
    quiddity; mod 2 (``_OVER_F2``) only a triangle does, as in the parity
    quiddity, and every value is reduced mod 2.  A segment of length 1 is a
    side, (0, 0, Id, 0).  A longer one is a root cell, whose corners i =
    u_0 < ... < u_t = j split it into t shorter segments (Flajolet-
    Sedgewick's decomposition of polygon dissections by root cell).
    Joining them left to right puts E(b_k + a_{k+1} + w) between the
    products of neighbours, w being what the cell adds at a corner, and
    closing the cell adds w at i and at j.  Segments depend only on their
    length, so one table by length, up to n - 1, serves every polygon up to
    the n-gon, whose segment 1..n has the entries a and b at its ends.  The
    table grows by length on demand, so a sweep over n builds it once and
    reads each n with ``classes``.  ``kind`` and the top n are checked as
    ``enumerate_dissections`` checks them; there is no cap.
    """

    def __init__(self, kind: str, modulus: int, n: int):
        self.n, self._allowed = _cell_sizes(n, kind)
        self._modulus = modulus
        self._segments = {}  # by length
        self._starts = {}  # by length, then by the state's a: [(b, g, s, count)]
        self._add_segments({(0, 0, (1, 0, 0, 1), 0): 1})
        # runs[t][length]: t segments side by side under a cell of 4 or more
        # corners, for t up to the largest such cell's ``most`` segments
        self._runs = {1: self._segments}
        largest = max(self._allowed)
        self._most = largest - 1 if largest > 3 else 1

    def _add_segments(self, states: dict) -> None:
        length = len(self._segments) + 1
        self._segments[length] = states
        self._starts[length] = starts = {}
        for (a, b, g, s), m in states.items():
            starts.setdefault(a, []).append((b, g, s, m))

    def _join(self, left: dict, x: int, w: int, out: dict) -> None:
        """Add each run of ``left`` followed by each segment of length x to ``out``."""
        p = self._modulus
        starts = self._starts[x].items()
        for (a0, b, g, s), m in left.items():
            for a, segments in starts:
                c = b + w + a
                gc, sc = _mul(g, (c, -1, 1, 0)), s + c
                for b2, h, t, k in segments:
                    key = a0, b2, *reduced(_mul(gc, h), sc + t, p)
                    out[key] = out.get(key, 0) + m * k

    def _close(self, run: dict, w: int, out: dict) -> None:
        p = self._modulus
        for (a, b, g, s), m in run.items():
            a, b = a + w, b + w
            key = (a % p, b % p, g, s) if p else (a, b, g, s)
            out[key] = out.get(key, 0) + m

    def _grow(self) -> None:
        length = len(self._segments) + 1
        triangle, polygon = 1, int(self._modulus == _OVER_Z)
        closed = {}
        for t in range(2, min(self._most, length) + 1):
            self._runs.setdefault(t, {})[length] = run = {}
            for x in range(1, length - t + 2):
                self._join(self._runs[t - 1][length - x], x, polygon, run)
            if t > 2 and t + 1 in self._allowed:  # triangles close below
                self._close(run, polygon, closed)
        if triangle == polygon and self._most > 1:
            triangles = self._runs[2][length]
        else:
            triangles = {}
            for x in range(1, length):
                self._join(self._segments[length - x], x, triangle, triangles)
        self._close(triangles, triangle, closed)  # every kind allows them
        self._add_segments(closed)

    def classes(self, n: int) -> list:
        """Sorted ``((m, total), count)`` pairs: ``count`` dissections of the n-gon.

        Each has a quiddity q with the product M(q) = m, an int 4-tuple, and
        the sum ``total``, both reduced mod the table's modulus.
        """
        if not 3 <= n <= self.n:
            raise ValueError(f"the table counts polygons of 3..{self.n} vertices, not {n}")
        while len(self._segments) < n - 1:
            self._grow()
        out = {}
        for (a, b, g, s), m in self._segments[n - 1].items():
            key = reduced(_mul(_mul((a, -1, 1, 0), g), (b, -1, 1, 0)), a + s + b, self._modulus)
            out[key] = out.get(key, 0) + m
        return sorted(out.items())

