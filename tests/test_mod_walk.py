"""Mod-N products as walks on the Cayley table of SL(2, Z/N), and the block fold past it."""

import itertools
import math
import random

import pytest

from quiddity import Mat2Mod, format_seq, is_gamma2_solution, m_product, m_product_mod
from quiddity import algebra
from quiddity.algebra import _LEAF, _MOD2_STEPS, _steps

LEVELS = (*range(2, 13), 2**61 - 1)
LENGTHS = (1, _LEAF - 1, _LEAF, _LEAF + 1, 3 * _LEAF + 1)
TABLED = range(2, 9)  # the levels with a Cayley table, among them 2, 3, 4, 5 and 7 of the benchmark


def _step_fold(seq, modulus):
    """The per-step modular fold, every value reduced after each factor."""
    a, b, c, d = 1, 0, 0, 1
    for e in seq:
        a, b, c, d = (a * e + b) % modulus, -a % modulus, (c * e + d) % modulus, -c % modulus
    return Mat2Mod(a, b, c, d, modulus)


def _order(n):
    """|SL(2, Z/n)| = n^3 prod_{p | n} (1 - p^-2)."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    return n**3 * math.prod(p * p - 1 for p in primes) // math.prod(p * p for p in primes)


@pytest.mark.parametrize("n", TABLED)
def test_table_reaches_the_whole_group(n):
    elements, steps = _steps(n)
    assert len(elements) == len(set(elements)) == _order(n)
    assert elements[0] == (1, 0, 0, 1)
    assert all((a * d - b * c) % n == 1 and max(a, b, c, d) < n and min(a, b, c, d) >= 0 for a, b, c, d in elements)
    for s, row in enumerate(steps):
        assert len(row) == n
        a, b, c, d = elements[s]
        for r, t in enumerate(row):
            assert elements[t] == ((a * r + b) % n, -a % n, (c * r + d) % n, -c % n)


def test_mod2_table_keeps_the_numbering_the_counts_read():
    assert _steps(2)[1] == ((1, 2), (0, 3), (4, 5), (5, 4), (2, 1), (3, 0))
    assert _MOD2_STEPS is _steps(2)[1]
    assert _steps(2)[0] == ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1))


@pytest.mark.parametrize("modulus", LEVELS)
def test_walk_and_block_fold_match_the_reduced_exact_product(modulus):
    rng = random.Random(modulus % 1000)
    for length in LENGTHS:
        for _ in range(3):
            seq = [rng.choice((True, False)) if rng.random() < 0.1 else rng.randint(-40, 40) for _ in range(length)]
            seq[rng.randrange(length)] = 0
            assert m_product_mod(seq, modulus) == m_product(seq).mod(modulus), (modulus, seq)


@pytest.mark.parametrize("modulus", LEVELS)
def test_mod_products_match_the_step_fold_exhaustively(modulus):
    for n in range(1, 5):
        for seq in itertools.product(range(-3, 5), repeat=n):
            assert m_product_mod(seq, modulus) == _step_fold(seq, modulus), seq


def test_gamma2_verdict_is_the_mod2_walk():
    rng = random.Random(24)
    seqs = [s for n in range(1, 9) for s in itertools.product((0, 1, -1, 2), repeat=n)]
    seqs += [[rng.randint(-40, 40) for _ in range(n)] for n in LENGTHS]
    for seq in seqs:
        assert is_gamma2_solution(seq) == (m_product_mod(seq, 2) == Mat2Mod.identity(2))


def _count_calls(monkeypatch, name, calls):
    real = getattr(algebra, name)
    monkeypatch.setattr(algebra, name, lambda *args: calls.append(name) or real(*args))


def test_table_levels_run_no_integer_kernel_and_larger_ones_one_per_leaf(monkeypatch):
    calls = []
    _count_calls(monkeypatch, "_kernel", calls)
    _count_calls(monkeypatch, "_mul", calls)
    seq = [random.Random(8).randint(1, 5) for _ in range(10_000)]
    for modulus in TABLED:
        m_product_mod(seq, modulus)
        assert calls == [], modulus
    for modulus in (9, 10**9 + 7):
        m_product_mod(seq, modulus)
        assert calls.count("_kernel") == math.ceil(len(seq) / _LEAF), modulus
        calls.clear()


def test_mod_product_error_order():
    with pytest.raises(ValueError):
        m_product_mod((1.5,), 1)  # the modulus is checked before the entries
    with pytest.raises(TypeError):
        m_product_mod((1.5,), 3)
    with pytest.raises(ValueError):
        m_product_mod((), 3)
    with pytest.raises(ValueError):
        m_product_mod((), "x")  # emptiness is checked before the modulus
    with pytest.raises(TypeError):
        m_product([2, "3"])
    with pytest.raises(TypeError):
        m_product_mod((1, 2.0), 11)


def test_format_seq_reads_entries_as_integers():
    assert format_seq([3, True, False, -2]) == "3,1,0,-2"
    for bad in ([1.7, 2.2, True], [1, "2"], [2.0]):
        with pytest.raises(TypeError):
            format_seq(bad)
