"""The product tree in ``m_product`` against a plain left fold of 2x2 matrices."""

import random

import pytest

from quiddity import MatClass, alpha, beta, classify_pm_identity, m_product
from quiddity.algebra import _LEAF

LENGTHS = (_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF, 2 * _LEAF + 1, 5 * _LEAF + 3)


def _left_fold(seq):
    """M(seq) as (a, b, c, d), one full matrix multiplication per entry."""
    a, b, c, d = 1, 0, 0, 1
    for e in seq:
        a, b, c, d = a * e + b * 1, a * -1 + b * 0, c * e + d * 1, c * -1 + d * 0
    return a, b, c, d


def _entries(m):
    return m.a, m.b, m.c, m.d


@pytest.mark.parametrize("length", LENGTHS)
def test_tree_equals_left_fold_on_random_words(length):
    rng = random.Random(length)
    for _ in range(20):
        seq = [rng.randint(-3, 6) for _ in range(length)]
        assert _entries(m_product(seq)) == _left_fold(seq), seq


def _identity_word(rng, length):
    """A word of at least ``length`` positive entries with product +-Id, and its sign.

    Grown from (1, 1, 1), whose product is -Id: ``alpha`` inside the word
    keeps the product and ``beta`` flips its sign.
    """
    seq, sign = (1, 1, 1), -1
    while len(seq) < length:
        i = rng.randint(1, len(seq) - 1)
        if rng.random() < 0.3:
            seq, sign = beta(seq, i), -sign
        else:
            seq = alpha(seq, i)
    return seq, sign


@pytest.mark.parametrize("length", LENGTHS)
def test_tree_keeps_the_class_of_identity_and_other_words(length):
    rng = random.Random(1000 + length)
    classes = set()
    for _ in range(6):
        seq, sign = _identity_word(rng, length)
        m = m_product(seq)
        assert _entries(m) == _left_fold(seq)
        assert classify_pm_identity(m) is (MatClass.PLUS_ID if sign == 1 else MatClass.MINUS_ID)
        classes.add(sign)
        # one entry raised by one leaves the identity class
        k = rng.randrange(len(seq))
        other = seq[:k] + (seq[k] + 1,) + seq[k + 1 :]
        m = m_product(other)
        assert _entries(m) == _left_fold(other)
        assert classify_pm_identity(m) is MatClass.OTHER
    assert classes == {1, -1}


def test_tree_takes_any_iterable():
    seq = [2, 1, 3] * (2 * _LEAF)
    assert _entries(m_product(iter(seq))) == _left_fold(seq)


@pytest.mark.parametrize("bad", [2.0, "2", None])
def test_non_integer_entry_past_the_first_leaf_raises(bad):
    seq = [1] * (3 * _LEAF)
    seq[_LEAF + 5] = bad
    with pytest.raises(TypeError):
        m_product(seq)
