"""The closed-state count of ``_Counts`` against the frozen open-state engine.

``seed_counts.Counts`` keyed each segment by what its cells add at its
ends, its interior product and its interior sum; ``_Counts`` keys it by
the closed product and sum alone.  Both must give the same classes at
every n, and the closed keys must keep the tables as small as the
theorems say: every closed polygon has one product.
"""

import pytest

import seed_counts as seed
from quiddity.dissections import _OVER_F2, _OVER_Z, _Counts


@pytest.mark.parametrize("kind, modulus, top", [
    ("all", _OVER_F2, 16),
    ("triangulation", _OVER_F2, 16),
    ("34", _OVER_F2, 16),
    ("3d", _OVER_F2, 16),
    ("triangulation", _OVER_Z, 16),
    ("3d", _OVER_Z, 16),
    ("all", _OVER_Z, 12),
    ("34", _OVER_Z, 12),
])
def test_closed_state_classes_match_the_open_state_engine(kind, modulus, top):
    new, old = _Counts(kind, modulus, top), seed.Counts(kind, modulus, top)
    for n in range(3, top + 1):
        assert new.classes(n) == old.classes(n), n


@pytest.mark.parametrize("kind, modulus, top, most", [
    # Conway-Coxeter: every triangulated polygon multiplies to -Id and sums
    # to 3 (vertices) - 6
    ("triangulation", _OVER_Z, 60, 1),
    # Theorem 1(i): every {3,4} polygon multiplies to Id mod 2, and its
    # parity sum is its number of triangles, which has the parity of its
    # number of vertices
    ("34", _OVER_F2, 60, 1),
    # Ovsienko: +-Id, with one sign for each sum
    ("3d", _OVER_Z, 25, 8),
])
def test_closed_states_per_length_are_few(kind, modulus, top, most):
    counts = _Counts(kind, modulus, top)
    # length by length, so that a table whose states multiply fails early
    for n in range(3, top + 1):
        counts.classes(n)
        keys = counts._segments[n - 1]
        assert len(keys) <= most, n
        # the states of one length differ in their sum alone
        assert len({s for _, s in keys}) == len(keys), n

