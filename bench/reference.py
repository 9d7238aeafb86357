"""Reference computations for the benchmark's correctness checks.

Nothing here imports the quiddity package: every verdict the benchmark
checks is recomputed by a different method, and each method is checked by
``self_test`` against brute force at small sizes before a run starts.

- mod-2 products as a walk on the six elements of SL(2, F2);
- integer products reduced modulo a few large primes (determinant 1 is
  checked on the way) and modulo any level N;
- cells of a diagonal set by splitting faces one diagonal at a time, which
  doubles as the non-crossing check, and the two quiddities read off them;
- frieze rows as continuants, and the diamond-rule and border check;
- Catalan and Jacobsthal closed forms and the rooted-cell recurrence that
  counts dissections whose cell sizes lie in a given set.
"""

import itertools
from math import comb

# --- mod 2: the six elements of SL(2, F2) --------------------------------

_SL2F2 = [
    m for m in itertools.product((0, 1), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 2 == 1
]
_STATE = {m: i for i, m in enumerate(_SL2F2)}
ID_STATE = _STATE[(1, 0, 0, 1)]


def _mul_f2(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 2, (a * f + b * h) % 2, (c * e + d * g) % 2, (c * f + d * h) % 2)


# _STEP[state][c] is the state after right-multiplying by [[c, 1], [1, 0]],
# the factor [[c, -1], [1, 0]] read mod 2.
_STEP = [[_STATE[_mul_f2(m, (c, 1, 1, 0))] for c in (0, 1)] for m in _SL2F2]


def mod2_matrix(word):
    """The mod-2 product of [[c, -1], [1, 0]] over the word, as (a, b, c, d)."""
    s = ID_STATE
    for c in word:
        s = _STEP[s][c & 1]
    return _SL2F2[s]


def is_mod2_solution(word) -> bool:
    return mod2_matrix(word) == (1, 0, 0, 1)


# --- integers modulo primes and modulo a level ---------------------------

PRIMES = (2**61 - 1, 2**31 - 1, 1_000_000_007)


def product_mod(word, modulus: int):
    """M(word) mod ``modulus`` with canonical residues, as (a, b, c, d)."""
    a, b, c, d = 1, 0, 0, 1
    for e in word:
        a, b, c, d = (a * e + b) % modulus, -a % modulus, (c * e + d) % modulus, -c % modulus
    return a, b, c, d


def integer_class(word) -> str:
    """"PlusId", "MinusId" or "Other", decided modulo the odd primes in PRIMES.

    "Other" is certain. The two identity verdicts hold modulo every prime,
    so a wrong one would need the true entries to be divisible by all of
    them; the generators only produce identity classes by construction.
    Raises ValueError if a product modulo a prime has determinant other
    than 1.
    """
    verdicts = set()
    for p in PRIMES:
        a, b, c, d = product_mod(word, p)
        if (a * d - b * c) % p != 1:
            raise ValueError(f"determinant of the product is not 1 modulo {p}")
        if (a, b, c, d) == (1, 0, 0, 1):
            verdicts.add("PlusId")
        elif (a, b, c, d) == (p - 1, 0, 0, p - 1):
            verdicts.add("MinusId")
        else:
            verdicts.add("Other")
    return verdicts.pop() if len(verdicts) == 1 else "Other"


# --- dissections ---------------------------------------------------------


def cells(n: int, diagonals):
    """Sorted cells of the convex n-gon cut by ``diagonals``.

    Each diagonal splits the one face holding both its endpoints. A
    diagonal whose endpoints share no face crosses an earlier one; one whose
    endpoints are adjacent in their face is a side or a repeat. Either
    raises ValueError, so a successful return is also the non-crossing
    check.
    """
    if n < 3:
        raise ValueError(f"a polygon needs 3 vertices, got {n}")
    faces = [list(range(1, n + 1))]
    where = {v: {0} for v in range(1, n + 1)}
    for pair in diagonals:
        i, j = sorted(pair)
        if not (1 <= i and j <= n and i != j):
            raise ValueError(f"{pair} is out of range")
        common = where[i] & where[j]
        if not common:
            raise ValueError(f"{pair} crosses another diagonal")
        f = common.pop()
        face = faces[f]
        a, b = face.index(i), face.index(j)
        if b - a == 1 or (a == 0 and b == len(face) - 1):
            raise ValueError(f"{pair} is a side or a repeated diagonal")
        new = len(faces)
        faces[f] = face[a : b + 1]
        faces.append(face[: a + 1] + face[b:])
        for v in faces[new]:
            if v not in (i, j):
                where[v].discard(f)
            where[v].add(new)
    return sorted(tuple(face) for face in faces)


def cc_quiddity(n: int, cell_list):
    """Number of cells at each vertex."""
    counts = [0] * n
    for cell in cell_list:
        for v in cell:
            counts[v - 1] += 1
    return tuple(counts)


def parity_quiddity(n: int, cell_list):
    """Parity of the number of triangle cells at each vertex."""
    counts = [0] * n
    for cell in cell_list:
        if len(cell) == 3:
            for v in cell:
                counts[v - 1] ^= 1
    return tuple(counts)


def is_triangulation_quiddity(q) -> bool:
    """Decide by cutting ears: a 1 at a vertex of n >= 4 is an ear of any triangulation."""
    q = list(q)
    if len(q) < 3 or any(c < 1 for c in q):
        return False
    while len(q) > 3:
        try:
            i = q.index(1)
        except ValueError:
            return False
        n = len(q)
        q[i - 1] -= 1
        q[(i + 1) % n] -= 1
        if q[i - 1] < 1 or q[(i + 1) % n] < 1:
            return False
        del q[i]
    return q == [1, 1, 1]


# --- friezes -------------------------------------------------------------


def continuant_rows(q):
    """Rows 1..n-1 of the frieze of q: row r+1, position k is K(q_k, ..., q_{k+r-1})."""
    n = len(q)
    rows = [[0] * n for _ in range(n - 1)]
    for k in range(n):
        prev, cur = 0, 1
        rows[0][k] = 1
        for r in range(1, n - 1):
            prev, cur = cur, q[(k + r - 1) % n] * cur - prev
            rows[r][k] = cur
    return [tuple(row) for row in rows]


def frieze_ok(q, rows) -> bool:
    """Borders all 1, second row q, every entry a positive int, every diamond unimodular."""
    n = len(q)
    if len(rows) != n - 1 or any(len(row) != n for row in rows):
        return False
    if any(type(e) is not int or e < 1 for row in rows for e in row):
        return False
    if set(rows[0]) != {1} or set(rows[-1]) != {1} or tuple(rows[1]) != tuple(q):
        return False
    for r in range(1, n - 2):
        for k in range(n):
            west, east = rows[r][k], rows[r][(k + 1) % n]
            north, south = rows[r - 1][(k + 1) % n], rows[r + 1][k]
            if west * east - north * south != 1:
                return False
    return True


# --- counts --------------------------------------------------------------


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def jacobsthal(n: int) -> int:
    """Number of length-n words over {0, 1} whose mod-2 product is the identity."""
    return (2 ** (n - 1) - (-1) ** (n - 1)) // 3


def count_dissections(n: int, allowed) -> int:
    """Dissections of the n-gon with every cell size in ``allowed`` (a predicate).

    Rooted-cell recurrence: the cell on the root side (1, n) has s vertices,
    and the s - 1 gaps between them are smaller polygons, a gap of a sides
    being an (a+1)-gon (a single side when a = 1).
    """
    f = [0, 0, 1] + [0] * (n - 2)
    for m in range(3, n + 1):
        ways = [1] + [0] * (m - 1)  # ways[t]: fill t sides with the gaps so far
        for gaps in range(1, m):
            ways = [sum(ways[t - a] * f[a + 1] for a in range(1, t + 1)) for t in range(m)]
            if allowed(gaps + 1):
                f[m] += ways[m - 1]
    return f[n]


def count_34(n: int) -> int:
    return count_dissections(n, lambda s: s in (3, 4))


def count_3d(n: int) -> int:
    return count_dissections(n, lambda s: s % 3 == 0)


# --- self-test -----------------------------------------------------------


def _all_diagonals(n):
    return [(i, j) for i in range(1, n - 1) for j in range(i + 2, n + 1) if (i, j) != (1, n)]


def _crossing(p, q):
    (a, b), (c, d) = p, q
    return a < c < b < d or c < a < d < b


def _brute_cells(n, diagonals):
    chords = {(v, v % n + 1) for v in range(1, n + 1)} | set(diagonals)
    chords |= {(j, i) for i, j in chords}
    found = []
    for size in range(3, n + 1):
        for s in itertools.combinations(range(1, n + 1), size):
            ring = list(zip(s, s[1:] + s[:1]))
            if all(p in chords for p in ring) and not any(
                (s[x], s[y]) in chords and (s[x], s[y]) not in ring and (s[y], s[x]) not in ring
                for x in range(size)
                for y in range(x + 1, size)
            ):
                found.append(s)
    return sorted(found)


def _brute_product(word):
    m = (1, 0, 0, 1)
    for c in word:
        a, b, cc, d = m
        m = (a * c + b, -a, cc * c + d, -cc)
    return m


def self_test() -> None:
    """Check every reference against brute force at small sizes; raise AssertionError on a mismatch."""
    for n in range(1, 11):
        brute = 0
        for w in itertools.product((0, 1), repeat=n):
            exact = _brute_product(w)
            assert mod2_matrix(w) == tuple(e % 2 for e in exact)
            brute += exact[0] % 2 == 1 and exact[1] % 2 == 0 and exact[2] % 2 == 0 and exact[3] % 2 == 1
        assert brute == jacobsthal(n), n
    for n in range(1, 6):
        for w in itertools.product(range(1, 5), repeat=n):
            exact = _brute_product(w)
            assert exact[0] * exact[3] - exact[1] * exact[2] == 1
            assert all(tuple(e % p for e in exact) == product_mod(w, p) for p in PRIMES)
            assert integer_class(w) == {(1, 0, 0, 1): "PlusId", (-1, 0, 0, -1): "MinusId"}.get(exact, "Other")
            for level in (2, 3, 4, 6):
                assert product_mod(w, level) == tuple(e % level for e in exact)
    for n in range(3, 8):
        triangulation_quiddities = set()
        counts = {"all": 0, "34": 0, "3d": 0, "tri": 0}
        diagonals = _all_diagonals(n)
        for r in range(len(diagonals) + 1):
            for subset in itertools.combinations(diagonals, r):
                crossing = any(_crossing(p, q) for p, q in itertools.combinations(subset, 2))
                try:
                    got = cells(n, subset)
                except ValueError:
                    assert crossing, subset
                    continue
                assert not crossing, subset
                if n <= 6:
                    assert got == _brute_cells(n, subset), subset
                sizes = [len(c) for c in got]
                counts["all"] += 1
                counts["34"] += all(s in (3, 4) for s in sizes)
                counts["3d"] += all(s % 3 == 0 for s in sizes)
                if all(s == 3 for s in sizes):
                    counts["tri"] += 1
                    triangulation_quiddities.add(cc_quiddity(n, got))
                    assert parity_quiddity(n, got) == tuple(c % 2 for c in cc_quiddity(n, got))
        assert counts["all"] == count_dissections(n, lambda s: True), n
        assert counts["34"] == count_34(n), n
        assert counts["3d"] == count_3d(n), n
        assert counts["tri"] == catalan(n - 2) == count_dissections(n, lambda s: s == 3), n
        for q in itertools.product(range(1, n - 1), repeat=n) if n <= 6 else triangulation_quiddities:
            assert is_triangulation_quiddity(q) == (q in triangulation_quiddities), q
        for q in triangulation_quiddities:
            rows = continuant_rows(q)
            assert frieze_ok(q, rows), q
            bumped = q[:-1] + (q[-1] + 1,)
            assert not frieze_ok(bumped, continuant_rows(bumped)), bumped
    assert [count_34(n) for n in range(6, 11)] == [38, 154, 654, 2871, 12925]


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
