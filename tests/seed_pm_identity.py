"""Frozen reference copy of the depth-first +/-Id search.

This is the original ``solutions_pm_identity``: a depth-first walk over
[1, entry_cap]^n carrying the running product, kept verbatim in behaviour
so the meet-in-the-middle search in ``quiddity.enumeration`` can be
compared against it.  Test use only.
"""


def solutions_pm_identity(n: int, entry_cap: int | None = None) -> list[tuple[tuple[int, ...], int]]:
    if entry_cap is None:
        entry_cap = max(1, n - 2)

    out: list[tuple[tuple[int, ...], int]] = []
    prefix: list[int] = []

    def rec(i: int, a: int, b: int, c: int, d: int) -> None:
        if i == n:
            if (a, b, c, d) == (1, 0, 0, 1):
                out.append((tuple(prefix), 1))
            elif (a, b, c, d) == (-1, 0, 0, -1):
                out.append((tuple(prefix), -1))
            return
        for e in range(1, entry_cap + 1):
            prefix.append(e)
            rec(i + 1, a * e + b, -a, c * e + d, -c)
            prefix.pop()

    rec(0, 1, 0, 0, 1)
    return out
