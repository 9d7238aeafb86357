"""Matrix products, classification, congruence membership, and words."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quiddity import (
    GroupWord,
    MAT_IDENTITY,
    MAT_MINUS_IDENTITY,
    Mat2,
    Mat2Mod,
    MatClass,
    as_int_seq,
    as_mod2_seq,
    classify_pm_identity,
    dihedral_min,
    elementary_matrix,
    format_seq,
    generator_value,
    in_principal_congruence,
    is_gamma2_solution,
    m_product,
    m_product_mod,
    min_rotation,
    parse_int_seq,
    parse_mod2_seq,
    parse_word,
    rotate,
    rotations,
    word_to_sequence,
    word_value,
)


# Hand oracle: 2x2 matrices as 4-tuples (a, b, c, d), multiplied longhand.

def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _product_oracle(seq, modulus=None):
    """The exact product, reduced once at the end when a modulus is given."""
    m = (1, 0, 0, 1)
    for c in seq:
        m = _mul(m, (c, -1, 1, 0))
    if modulus is not None:
        m = tuple(x % modulus for x in m)
    return m


def _as_tuple(m: Mat2):
    return (m.a, m.b, m.c, m.d)


def _check_against_oracle(seq):
    """m_product, m_product_mod for N = 2..7 and is_gamma2_solution agree with the oracle."""
    assert _as_tuple(m_product(seq)) == _product_oracle(seq)
    for modulus in range(2, 8):
        m = m_product_mod(seq, modulus)
        assert (m.a, m.b, m.c, m.d, m.modulus) == _product_oracle(seq, modulus) + (modulus,)
    assert is_gamma2_solution(seq) == (_product_oracle(seq, 2) == (1, 0, 0, 1))


def test_products_match_oracle_exhaustively_with_zero_and_negative_entries():
    for n in range(1, 6):
        for seq in itertools.product(range(-2, 5), repeat=n):
            _check_against_oracle(seq)


def test_products_match_oracle_on_long_random_words():
    rng = random.Random(15)
    for _ in range(4):
        _check_against_oracle(tuple(rng.randint(-3, 6) for _ in range(2000)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
def test_products_match_oracle_property(seq):
    _check_against_oracle(tuple(seq))


@pytest.mark.parametrize("bad", [(3, 2.7), ("3", 2), (2.0,)])
@pytest.mark.parametrize(
    "product",
    [m_product, lambda seq: m_product_mod(seq, 3), is_gamma2_solution],
    ids=["m_product", "m_product_mod", "is_gamma2_solution"],
)
def test_products_reject_non_integer_entries(product, bad):
    with pytest.raises(TypeError):
        product(bad)


def test_products_accept_bool_entries_as_ints():
    assert m_product((True, True, True)) == MAT_MINUS_IDENTITY
    assert m_product_mod((True, False, True, False), 2) == Mat2Mod.identity(2)
    assert is_gamma2_solution((False, False))


@pytest.mark.parametrize("modulus", [2.5, 2.0, 1.5, "3"])
def test_non_integer_modulus_is_rejected(modulus):
    with pytest.raises(TypeError):
        m_product_mod((1, 1, 1), modulus)
    with pytest.raises(TypeError):
        in_principal_congruence(m_product((1, 1, 1)), modulus)
    with pytest.raises(TypeError):
        Mat2Mod(1, 0, 0, 1, modulus)


@pytest.mark.parametrize("entries", [(1.5, 0, 0, 1), (1, "0", 0, 1), (1, 0, 0, 4.0)])
def test_mat2mod_rejects_non_integer_entries(entries):
    with pytest.raises(TypeError):
        Mat2Mod(*entries, 3)


def test_mat2mod_reduces_int_and_bool_entries():
    assert Mat2Mod(4, -1, True, 7, 3) == Mat2Mod(1, 2, 1, 1, 3)


def test_sequences_reject_non_integer_entries():
    with pytest.raises(TypeError):
        as_int_seq([2.7, 1])
    with pytest.raises(TypeError):
        as_mod2_seq([1.0, 1, 1])
    with pytest.raises(TypeError):
        as_int_seq(["2", "1"])
    assert as_int_seq([True, 2]) == (1, 2)
    assert as_mod2_seq((False, 1)) == (0, 1)


def _checked(check, entries):
    """The frozen tuple, or the exception's type name and message."""
    try:
        return check(entries)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("entries, as_int, as_mod2", [
    ([], ("ValueError", "sequence must be nonempty"), ("ValueError", "sequence must be nonempty")),
    ((True, False), ("ValueError", "entries must be positive integers, got (1, 0)"), (1, 0)),
    ((True, True), (1, 1), (1, 1)),
    ([2], (2,), ("ValueError", "entries must be 0 or 1, got (2,)")),
    ([1, -1, 1], ("ValueError", "entries must be positive integers, got (1, -1, 1)"),
     ("ValueError", "entries must be 0 or 1, got (1, -1, 1)")),
    ([1.0], ("TypeError", "'float' object cannot be interpreted as an integer"),
     ("TypeError", "'float' object cannot be interpreted as an integer")),
])
def test_sequence_checks_keep_their_errors(entries, as_int, as_mod2):
    assert _checked(as_int_seq, entries) == as_int
    assert _checked(as_mod2_seq, entries) == as_mod2
    # bools come back as plain ints
    for got in (_checked(as_int_seq, entries), _checked(as_mod2_seq, entries)):
        if type(got[0]) is not str:
            assert {type(e) for e in got} == {int}


def test_elementary_matrix_examples():
    assert elementary_matrix(0) == Mat2(0, -1, 1, 0)
    assert elementary_matrix(0) == generator_value("S")
    assert elementary_matrix(1) == Mat2(1, -1, 1, 0)
    assert elementary_matrix(2) == Mat2(2, -1, 1, 0)
    assert elementary_matrix(-3).det() == 1


def test_m_product_examples():
    assert m_product((1, 1, 1)) == MAT_MINUS_IDENTITY
    assert m_product((1, 2, 1, 2)) == MAT_MINUS_IDENTITY
    assert m_product((1, 3, 1, 2, 2)) == MAT_MINUS_IDENTITY
    assert m_product((2, 2)) == Mat2(3, -2, 2, -1)


def test_m_product_empty_rejected():
    with pytest.raises(ValueError):
        m_product(())


def test_m_product_matches_hand_oracle():
    rng = random.Random(9)
    for _ in range(300):
        seq = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 9)))
        assert _as_tuple(m_product(seq)) == _product_oracle(seq)


def test_m_product_determinant_is_one():
    rng = random.Random(10)
    for _ in range(300):
        seq = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 10)))
        assert m_product(seq).det() == 1


def test_m_product_mod_examples():
    assert m_product_mod((1, 1, 1), 2) == Mat2Mod.identity(2)
    assert m_product_mod((0, 0), 2) == Mat2Mod.identity(2)
    assert m_product_mod((0, 0, 0), 2) == Mat2Mod(0, 1, 1, 0, 2)


def test_m_product_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        m_product_mod((1, 1), 1)
    with pytest.raises(ValueError):
        m_product_mod((), 2)


def test_m_product_mod_agrees_with_reduction():
    # exhaustive over entries in {1, 2} up to length 12
    for n in range(1, 13):
        for seq in itertools.product((1, 2), repeat=n):
            assert m_product(seq).mod(2) == m_product_mod(seq, 2)


def test_mat2mod_canonical_residues():
    m = Mat2Mod(-1, 5, 7, -3, 5)
    assert (m.a, m.b, m.c, m.d) == (4, 0, 2, 2)


def test_classify_pm_identity():
    assert classify_pm_identity(m_product((1, 1, 1))) is MatClass.MINUS_ID
    assert classify_pm_identity(MAT_IDENTITY) is MatClass.PLUS_ID
    assert classify_pm_identity(m_product((2, 2))) is MatClass.OTHER
    assert MatClass.MINUS_ID.value == "MinusId"


def test_in_principal_congruence():
    assert in_principal_congruence(m_product((1, 1, 1)), 2)
    assert in_principal_congruence(m_product((2, 2)), 2)
    assert not in_principal_congruence(m_product((1, 1)), 2)
    assert m_product((1, 1)) == Mat2(0, -1, 1, -1)
    with pytest.raises(ValueError):
        in_principal_congruence(MAT_IDENTITY, 1)


def test_in_principal_congruence_general_level():
    # M(1,1,1) = -Id is congruent to Id mod 2 but not mod 3
    assert not in_principal_congruence(m_product((1, 1, 1)), 3)
    assert in_principal_congruence(MAT_IDENTITY, 7)


def test_is_gamma2_solution_examples():
    assert is_gamma2_solution((0, 1, 0, 1))
    assert is_gamma2_solution((1, 1, 1, 0, 0))
    assert not is_gamma2_solution((1,))
    assert not is_gamma2_solution((0,))


def test_is_gamma2_solution_matches_integer_membership():
    rng = random.Random(11)
    for _ in range(200):
        seq = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
        assert is_gamma2_solution(seq) == in_principal_congruence(m_product(seq), 2)


def test_solution_status_is_cyclically_invariant():
    rng = random.Random(12)
    samples = [tuple(rng.randint(0, 1) for _ in range(rng.randint(2, 10))) for _ in range(200)]
    for seq in samples:
        value = is_gamma2_solution(seq)
        for rot in rotations(seq):
            assert is_gamma2_solution(rot) == value


def test_pm_identity_class_is_cyclically_invariant():
    rng = random.Random(13)
    for _ in range(200):
        seq = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 8)))
        is_central = classify_pm_identity(m_product(seq)) is not MatClass.OTHER
        for rot in rotations(seq):
            rotated = classify_pm_identity(m_product(rot)) is not MatClass.OTHER
            assert rotated == is_central


def test_generator_matrices_and_relations():
    T = generator_value("T")
    S = generator_value("S")
    assert T == Mat2(1, 1, 0, 1)
    assert S == Mat2(0, -1, 1, 0)
    assert generator_value("S^-1") == Mat2(0, 1, -1, 0)
    assert S * generator_value("S^-1") == MAT_IDENTITY
    assert T * generator_value("T^-1") == MAT_IDENTITY
    assert S * S == MAT_MINUS_IDENTITY
    ts = T * S
    assert ts * ts * ts == MAT_MINUS_IDENTITY
    with pytest.raises(ValueError):
        generator_value("U")


def test_generator_word_identities():
    assert generator_value("T") == -m_product((2, 1, 1))
    assert generator_value("T^-1") == -m_product((1, 1, 2, 1))
    assert generator_value("S") == -m_product((1, 1, 2, 1, 1))


def test_word_to_sequence_examples():
    sign, seq = word_to_sequence(parse_word("T"))
    assert (sign, seq) == (-1, (2, 1, 1))
    sign, seq = word_to_sequence(parse_word("S"))
    assert (sign, seq) == (-1, (1, 1, 2, 1, 1))
    sign, seq = word_to_sequence(parse_word("TS"))
    assert (sign, seq) == (1, (2, 1, 1, 1, 1, 2, 1, 1))
    ts = generator_value("T") * generator_value("S")
    product = m_product(seq)
    assert (product if sign == 1 else -product) == ts


def test_word_to_sequence_empty_word():
    sign, seq = word_to_sequence(GroupWord())
    product = m_product(seq)
    assert (product if sign == 1 else -product) == MAT_IDENTITY


def test_word_round_trip_random():
    # independent oracle: hardcoded generator tuples and longhand products
    mats = {
        "T": (1, 1, 0, 1),
        "T^-1": (1, -1, 0, 1),
        "S": (0, -1, 1, 0),
        "S^-1": (0, 1, -1, 0),
    }
    rng = random.Random(14)
    letters = list(mats)
    for _ in range(1000):
        word = GroupWord(
            rng.choice((1, -1)),
            tuple(rng.choice(letters) for _ in range(rng.randint(0, 20))),
        )
        expected = (1, 0, 0, 1)
        for letter in word.letters:
            expected = _mul(expected, mats[letter])
        if word.sign == -1:
            expected = tuple(-e for e in expected)
        sign, seq = word_to_sequence(word)
        assert all(c >= 1 for c in seq)
        value = _product_oracle(seq)
        if sign == -1:
            value = tuple(-e for e in value)
        assert value == expected
        assert _as_tuple(word_value(word)) == expected


def test_parse_word_forms():
    assert parse_word("T S' T^-1").letters == ("T", "S^-1", "T^-1")
    assert parse_word("-TS").sign == -1
    assert parse_word("").letters == ()
    with pytest.raises(ValueError):
        parse_word("TX")
    with pytest.raises(ValueError):
        GroupWord(2, ("T",))
    with pytest.raises(ValueError):
        GroupWord(1, ("X",))


@pytest.mark.parametrize("check", [is_gamma2_solution, as_int_seq, as_mod2_seq])
def test_empty_sequence_is_rejected(check):
    with pytest.raises(ValueError):
        check(())


def test_sequence_parsing_and_formatting():
    assert parse_int_seq("1,3,1,2,2") == (1, 3, 1, 2, 2)
    assert parse_int_seq(" 2 , 2 ") == (2, 2)
    assert parse_mod2_seq("0,1,0,1") == (0, 1, 0, 1)
    assert format_seq((1, 3, 1, 2, 2)) == "1,3,1,2,2"
    with pytest.raises(ValueError):
        parse_int_seq("1,0,1")
    with pytest.raises(ValueError):
        parse_mod2_seq("0,2")
    with pytest.raises(ValueError):
        parse_int_seq("")


def test_rotation_helpers():
    assert rotate((1, 2, 3), 1) == (2, 3, 1)
    assert rotate((1, 2, 3), -1) == (3, 1, 2)
    assert rotate((), 3) == ()
    assert set(rotations((0, 0, 1))) == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
    assert min_rotation((1, 1, 1, 0, 0)) == (0, 0, 1, 1, 1)
    assert dihedral_min((0, 1, 1)) == (0, 1, 1)
    assert dihedral_min((2, 1, 3)) == min_rotation((3, 1, 2))
