"""Seeded input generators. Each takes a ``random.Random`` made from the run's seed.

Labels that the checks rely on are known by construction or confirmed by
the reference module, never by the package under test.
"""

import reference


def mod2_word(rng, n: int, solution: bool, need_odd: bool = False):
    """A uniform 0/1 word of length n, drawn until its reference verdict is ``solution``."""
    while True:
        w = tuple(rng.getrandbits(1) for _ in range(n))
        if reference.is_mod2_solution(w) == solution and (1 in w or not need_odd):
            return w


def triangulation(rng, n: int):
    """A random triangulation of the n-gon: its diagonals and its quiddity.

    The triangle on the root side of each sub-polygon gets a uniform apex.
    """
    diagonals = []
    counts = [0] * (n + 1)
    stack = [list(range(1, n + 1))]
    while stack:
        poly = stack.pop()
        k = rng.randrange(1, len(poly) - 1)
        for v in (poly[0], poly[k], poly[-1]):
            counts[v] += 1
        if k >= 2:
            diagonals.append((poly[0], poly[k]))
            stack.append(poly[: k + 1])
        if k <= len(poly) - 3:
            diagonals.append((poly[k], poly[-1]))
            stack.append(poly[k:])
    return sorted(diagonals), tuple(counts[1:])


def identity_word(rng, length: int, lo: int = 3, hi: int = 30):
    """Concatenated triangulation quiddities of about ``length`` entries, and the sign.

    Each quiddity multiplies to -Id, so k of them multiply to (-1)^k Id.
    """
    word, k = [], 0
    while len(word) < length:
        word.extend(triangulation(rng, rng.randint(lo, hi))[1])
        k += 1
    return tuple(word), (-1) ** k


def other_word(rng, length: int, hi: int = 5):
    """A uniform word over 1..hi whose product the reference shows is not +-Id."""
    while True:
        w = tuple(rng.randint(1, hi) for _ in range(length))
        if reference.integer_class(w) == "Other":
            return w


def non_quiddity(rng, q):
    """q with one entry raised by one, redrawn until the reference rejects it."""
    while True:
        i = rng.randrange(len(q))
        p = q[:i] + (q[i] + 1,) + q[i + 1 :]
        if not reference.is_triangulation_quiddity(p):
            return p
