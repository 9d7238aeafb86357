"""Frozen reference copies of the chord-list cell extraction.

These are the original ``Dissection.cells`` (per-vertex chord lists,
interval splitting with ``bisect``), the ``classify``, ``quiddity_cc`` and
``quiddity_mod2`` built on it, and the enumeration filtered through
``classify``, kept verbatim in behaviour so the next-pointer cell walk in
``quiddity.dissections`` can be compared against them.  Test use only.
"""

from bisect import bisect_right

from quiddity import Dissection
from quiddity.dissections import DissectionFlags, _crosses


def cells(d: Dissection) -> tuple[tuple[int, ...], ...]:
    n = d.n
    chords: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for v in range(1, n):
        chords[v].append(v + 1)
    chords[1].append(n)
    for i, j in d.diagonals:
        chords[i].append(j)
    for v in chords:
        chords[v].sort()

    out = []
    stack = [(1, n)]
    while stack:
        lo, hi = stack.pop()
        cell = [lo]
        u = lo
        while u != hi:
            ws = chords[u]
            # farthest chord endpoint <= hi; the base chord itself is
            # excluded on the first step
            limit = hi - 1 if u == lo else hi
            w = ws[bisect_right(ws, limit) - 1]
            if w > u + 1:
                stack.append((u, w))
            cell.append(w)
            u = w
        out.append(tuple(cell))
    out.sort()
    return tuple(out)


def classify(d: Dissection) -> DissectionFlags:
    sizes = [len(c) for c in cells(d)]
    return DissectionFlags(
        is_triangulation=all(s == 3 for s in sizes),
        is_34=all(s in (3, 4) for s in sizes),
        is_3d=all(s % 3 == 0 for s in sizes),
    )


def quiddity_cc(d: Dissection) -> tuple[int, ...]:
    counts = [0] * d.n
    for cell in cells(d):
        for v in cell:
            counts[v - 1] += 1
    return tuple(counts)


def quiddity_mod2(d: Dissection) -> tuple[int, ...]:
    counts = [0] * d.n
    for cell in cells(d):
        if len(cell) == 3:
            for v in cell:
                counts[v - 1] ^= 1
    return tuple(counts)


def kind_ok(flags: DissectionFlags, kind: str) -> bool:
    if kind == "all":
        return True
    if kind == "triangulation":
        return flags.is_triangulation
    if kind == "34":
        return flags.is_34
    return flags.is_3d


def enumerate_dissections(n: int, kind: str = "all"):
    candidates = [
        (i, j)
        for i in range(1, n - 1)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]
    chosen: list[tuple[int, int]] = []

    def rec(start: int):
        d = Dissection._trusted(n, tuple(chosen))  # lex order: sorted, no repeat
        if kind == "all" or kind_ok(classify(d), kind):
            yield d
        for k in range(start, len(candidates)):
            cand = candidates[k]
            if all(not _crosses(cand, prev) for prev in chosen):
                chosen.append(cand)
                yield from rec(k + 1)
                chosen.pop()

    yield from rec(0)
