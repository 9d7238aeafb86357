"""The meet-in-the-middle +/-Id search against the frozen depth-first copy in ``seed_pm_identity``."""

import pytest

import seed_pm_identity as seed
from quiddity import solutions_pm_identity

# Every entry cap with cap^n <= LEAVES, the leaves of one reference search,
# and cap <= MAX_CAP, which binds only at n <= 3 (n = 1 would allow two
# million caps).
LEAVES = 2 * 10**6
MAX_CAP = 60


def _largest_cap(n):
    cap = 1
    while cap < MAX_CAP and (cap + 1) ** n <= LEAVES:
        cap += 1
    return cap


@pytest.mark.parametrize("n", range(1, 9))
def test_search_matches_reference_on_every_entry_cap(n):
    top = _largest_cap(n)
    # the solutions for a smaller cap are the top-cap ones with no entry
    # above it, and filtering keeps the reference's lex order
    reference = seed.solutions_pm_identity(n, top)
    for cap in range(1, top + 1):
        want = [(s, sign) for s, sign in reference if max(s) <= cap]
        assert solutions_pm_identity(n, cap) == want, (n, cap)
    # the default entry cap, n - 2 (at least 1), is one of those caps
    assert solutions_pm_identity(n) == solutions_pm_identity(n, max(1, n - 2))
