"""Surgery operations, the reduction decision procedure, and realization."""

import itertools
import json
import random

import pytest

from quiddity import (
    AllEven,
    Dissection,
    InvalidSplit,
    MAT_MINUS_IDENTITY,
    NotASolution,
    PairNotZero,
    PivotNotOne,
    SurgeryError,
    SurgeryStep,
    SurgeryTrace,
    TooShort,
    alpha,
    apply_step,
    beta,
    inv_a,
    inv_b,
    is_gamma2_solution,
    m_product,
    m_product_mod,
    op_a,
    op_b,
    realize_dissection,
    realize_triangulation,
    reduce_to_base,
    replay_trace,
    trace_from_json_dict,
    trace_to_json_dict,
)


def _all_mod2(n):
    return itertools.product((0, 1), repeat=n)


def test_alpha_examples():
    assert alpha((1, 1, 1), 1) == (2, 1, 2, 1)
    assert alpha((1, 2, 1, 2), 2) == (1, 3, 1, 2, 2)
    assert alpha((3,), 1) == (4, 1, 4)
    with pytest.raises(IndexError):
        alpha((1, 1), 3)


def test_alpha_preserves_product_at_interior_positions():
    rng = random.Random(21)
    for _ in range(500):
        n = rng.randint(2, 8)
        seq = tuple(rng.randint(1, 5) for _ in range(n))
        i = rng.randint(1, n - 1)
        assert m_product(alpha(seq, i)) == m_product(seq)


def test_alpha_wrap_preserves_central_values():
    # at i = n only the cyclic class survives, so check on -Id solutions
    for seq in [(1, 1, 1), (1, 2, 1, 2), (1, 3, 1, 2, 2)]:
        assert m_product(alpha(seq, len(seq))) == m_product(seq)


def test_beta_examples():
    assert beta((1, 1, 1), 1, (1, 1)) == (1, 1, 1, 1, 1, 1)
    assert m_product((1, 1, 1, 1, 1, 1)) == -MAT_MINUS_IDENTITY
    assert beta((2, 2), 1, (2, 1)) == (2, 1, 1, 1, 2)
    assert m_product((2, 1, 1, 1, 2)) == -m_product((2, 2))
    with pytest.raises(InvalidSplit):
        beta((1, 1, 1), 1, (1, 2))
    with pytest.raises(InvalidSplit):
        beta((2, 2), 1, (3, 0))


def test_beta_default_split():
    assert beta((3, 1), 1) == (3, 1, 1, 1, 1)


@pytest.mark.parametrize("split", [(2.9, 2.9), (2.0, 2), (2, "2"), ("2", "2"), (None, 3)])
def test_beta_split_parts_must_be_integers(split):
    with pytest.raises(TypeError):
        beta((3,), 1, split=split)


@pytest.mark.parametrize("split", [(2, 1, 1), (4,), (), (1, 1, 1, 1)])
def test_beta_split_has_exactly_two_parts(split):
    with pytest.raises(InvalidSplit, match="exactly two parts"):
        beta((3,), 1, split=split)


def test_beta_split_may_be_any_iterable_of_two_ints():
    assert beta((3,), 1, split=[1, 3]) == (1, 1, 1, 3)
    assert beta((3,), 1, split=iter((2, 2))) == (2, 1, 1, 2)


def test_beta_negates_product():
    rng = random.Random(22)
    for _ in range(500):
        n = rng.randint(1, 8)
        seq = tuple(rng.randint(1, 5) for _ in range(n))
        i = rng.randint(1, n)
        c = seq[i - 1]
        left = rng.randint(1, c)
        assert m_product(beta(seq, i, (left, c + 1 - left))) == -m_product(seq)


def test_op_a_examples():
    assert op_a((0, 0), 1) == (1, 1, 1)
    assert op_a((1, 1, 1), 1) == (0, 1, 0, 1)
    assert op_a((0, 1, 0, 1), 4) == (1, 1, 0, 0, 1)


def test_op_b_examples():
    assert op_b((0, 0), 1) == (0, 0, 0, 0)
    assert op_b((1, 1, 1), 2) == (1, 1, 0, 0, 1)
    assert op_b((0, 0, 0, 0), 3) == (0, 0, 0, 0, 0, 0)


def test_inv_a_examples():
    assert inv_a((0, 1, 0, 1), 2) == (1, 1, 1)
    assert inv_a((1, 1, 1), 1) == (0, 0)
    with pytest.raises(PivotNotOne):
        inv_a((0, 0, 0), 1)
    with pytest.raises(TooShort):
        inv_a((1, 1), 1)


def test_inv_b_examples():
    assert inv_b((0, 0, 0, 0), 1) == (0, 0)
    assert inv_b((1, 1, 1, 0, 0), 4) == (1, 1, 1)
    with pytest.raises(PairNotZero):
        inv_b((0, 1, 0, 1), 1)
    with pytest.raises(TooShort):
        inv_b((0, 0), 1)
    # wrap pair: positions n and 1
    assert inv_b((0, 1, 1, 0), 4) == (1, 1)


def test_inverse_laws_exhaustive():
    # the pivot of op_a(s, i) lands at position i + 1, likewise the first
    # zero of op_b(s, i)
    for n in range(2, 11):
        for seq in _all_mod2(n):
            for i in range(1, n + 1):
                assert inv_a(op_a(seq, i), i + 1) == seq
                assert inv_b(op_b(seq, i), i + 1) == seq


def test_ops_preserve_mod2_product_at_interior_positions():
    for n in range(2, 7):
        for seq in _all_mod2(n):
            product = m_product_mod(seq, 2)
            for i in range(1, n):
                assert m_product_mod(op_a(seq, i), 2) == product
            for i in range(1, n + 1):
                assert m_product_mod(op_b(seq, i), 2) == product


def test_ops_preserve_solution_status_at_all_positions():
    for n in range(2, 7):
        for seq in _all_mod2(n):
            status = is_gamma2_solution(seq)
            for i in range(1, n + 1):
                assert is_gamma2_solution(op_a(seq, i)) == status
                assert is_gamma2_solution(op_b(seq, i)) == status


def test_apply_step():
    assert apply_step((0, 0), SurgeryStep("A", 1)) == (1, 1, 1)
    assert apply_step((0, 0), SurgeryStep("B", 2)) == (0, 0, 0, 0)
    assert apply_step((0, 1, 0, 1), SurgeryStep("InvA", 2)) == (1, 1, 1)
    assert apply_step((0, 0, 0, 0), SurgeryStep("InvB", 1)) == (0, 0)


def test_reduce_examples():
    result = reduce_to_base((0, 0, 0, 0, 0, 0))
    assert result.is_solution
    assert result.trace.base == (0, 0)
    assert [s.kind for s in result.trace.steps] == ["InvB", "InvB"]

    assert reduce_to_base((1, 1, 1, 0, 0)).is_solution
    rejected = reduce_to_base((0, 0, 0))
    assert not rejected.is_solution
    assert rejected.trace is None
    assert rejected.remainder == (0, 0, 0)


def test_reduce_short_cases():
    assert reduce_to_base((0, 0)).is_solution
    assert not reduce_to_base((1, 0)).is_solution
    assert not reduce_to_base((1,)).is_solution
    assert reduce_to_base((1, 1, 1)).is_solution


def test_reduce_agrees_with_matrix_test_exhaustive():
    for n in range(1, 11):
        for seq in _all_mod2(n):
            assert reduce_to_base(seq).is_solution == is_gamma2_solution(seq)


def test_replay_trace_reproduces_input():
    for n in range(2, 11):
        for seq in _all_mod2(n):
            result = reduce_to_base(seq)
            if result.is_solution:
                assert replay_trace(result.trace) == seq


def test_trace_json_round_trip():
    trace = reduce_to_base((1, 1, 0, 0, 1)).trace
    data = trace_to_json_dict(trace)
    assert data["schema"] == 1
    assert data["base"] == "0,0"
    assert data["steps"] == [{"kind": "InvA", "index": 1}, {"kind": "InvB", "index": 1}]
    assert trace_from_json_dict(data) == trace


def test_trace_json_round_trip_exhaustive():
    for n in range(2, 10):
        for seq in _all_mod2(n):
            result = reduce_to_base(seq)
            if not result.is_solution:
                continue
            data = json.loads(json.dumps(trace_to_json_dict(result.trace)))
            trace = trace_from_json_dict(data)
            assert trace == result.trace
            assert replay_trace(trace) == seq


@pytest.mark.parametrize("data", [
    [],
    {"steps": []},
    {"base": "0,0"},
    {"base": "0,0", "steps": {"kind": "InvB", "index": 1}},
    {"base": 0, "steps": []},
    {"base": "0,2", "steps": []},
    {"base": "0,0", "steps": [["InvB", 1]]},
    {"base": "0,0", "steps": [{"kind": "InvB"}]},
    {"base": "0,0", "steps": [{"kind": "InvB", "index": 1, "split": [1, 1]}]},
    {"base": "0,0", "steps": [{"kind": "InvB", "index": "1"}]},
    {"base": "0,0", "steps": [{"kind": "InvB", "index": 1.0}]},
    {"base": "0,0", "steps": [{"kind": "InvB", "index": True}]},
    {"base": "0,0", "steps": [{"kind": "A", "index": 1}]},
    {"base": "0,0", "steps": [{"kind": "Glue", "index": 1}]},
    {"base": "0,0", "steps": [{"kind": ["InvA"], "index": 1}]},
    {"base": "0,0", "steps": [{"kind": "InvA", "index": 0}]},
    {"base": "0,0", "steps": [{"kind": "InvA", "index": 4}]},
    # the first step is replayed last: the 0,0 pair lands on a 4-gon, so 6 is out of range
    {"base": "0,0", "steps": [{"kind": "InvA", "index": 6}, {"kind": "InvB", "index": 1}]},
    {"schema": 2, "base": "0,0", "steps": []},
])
def test_trace_from_json_rejects_malformed(data):
    with pytest.raises(SurgeryError):
        trace_from_json_dict(data)


@pytest.mark.parametrize("steps, message", [
    ([{"kind": "InvA", "index": 0}], "insertion position 0 out of range 1..3"),
    ([{"kind": "InvA", "index": 4}], "insertion position 4 out of range 1..3"),
    ([{"kind": "InvA", "index": 6}, {"kind": "InvB", "index": 1}], "insertion position 6 out of range 1..5"),
])
def test_trace_from_json_names_the_out_of_range_insertion(steps, message):
    with pytest.raises(SurgeryError, match=f"^{message}$"):
        trace_from_json_dict({"base": "0,0", "steps": steps})


@pytest.mark.parametrize("schema", [True, 1.0])
def test_trace_from_json_accepts_only_the_int_schema_1(schema):
    with pytest.raises(SurgeryError, match=f"unsupported schema {schema!r}$"):
        trace_from_json_dict({"schema": schema, "base": "0,0", "steps": []})


def test_trace_from_json_accepts_edge_indices():
    # inserting at m + 1 appends; replay stays the inverse of the log
    data = {"base": "1,1,1", "steps": [{"kind": "InvA", "index": 6}, {"kind": "InvB", "index": 4}]}
    trace = trace_from_json_dict(data)
    assert replay_trace(trace) == (0, 1, 1, 0, 1, 1)
    assert inv_b(inv_a(replay_trace(trace), 6), 4) == (1, 1, 1)


def test_realize_base_cases():
    assert realize_dissection((1, 1, 1)) == Dissection(3)
    assert realize_dissection((0, 0, 0, 0)) == Dissection(4)


@pytest.mark.parametrize("realize", [realize_dissection, realize_triangulation, reduce_to_base])
@pytest.mark.parametrize("seq", [(1.9, 1, 1), (1.0, 1.0, 1.0), ("1", "1", "1")])
def test_realization_rejects_non_integer_entries(realize, seq):
    with pytest.raises(TypeError):
        realize(seq)


def test_realize_examples():
    d = realize_dissection((1, 1, 1, 0, 0))
    assert d == Dissection(5, [(2, 4), (2, 5)])
    assert d.classify().is_34
    assert d.quiddity_mod2() == (1, 1, 1, 0, 0)

    d = realize_dissection((0, 0, 0, 0, 0, 0))
    assert d == Dissection(6, [(3, 6)])
    assert [len(c) for c in d.cells()] == [4, 4]

    # a reduction mixing pivot removals and pair removals
    d = realize_dissection((1, 1, 0, 0, 1))
    assert d == Dissection(5, [(2, 5)])
    assert d.quiddity_mod2() == (1, 1, 0, 0, 1)


def test_realize_errors():
    with pytest.raises(NotASolution) as err:
        realize_dissection((0, 0, 0))
    assert err.value.remainder == (0, 0, 0)
    with pytest.raises(TooShort):
        realize_dissection((0, 0))


def test_realize_round_trip_exhaustive():
    for n in range(3, 10):
        for seq in _all_mod2(n):
            if not is_gamma2_solution(seq):
                continue
            d = realize_dissection(seq)
            d.validate()
            assert d.classify().is_34
            assert d.quiddity_mod2() == seq


def test_realize_triangulation_examples():
    assert realize_triangulation((1, 1, 1)) == Dissection(3)
    t = realize_triangulation((1, 1, 1, 0, 0))
    assert t == Dissection(5, [(2, 4), (2, 5)])
    assert t.classify().is_triangulation
    assert realize_triangulation((0, 1, 0, 1)) == Dissection(4, [(1, 3)])


def test_realize_triangulation_errors():
    with pytest.raises(AllEven):
        realize_triangulation((0, 0, 0, 0))
    with pytest.raises(NotASolution):
        realize_triangulation((1, 1, 0))
    with pytest.raises(TooShort):
        realize_triangulation((0, 0))


def test_realize_triangulation_round_trip_exhaustive():
    for n in range(3, 9):
        for seq in _all_mod2(n):
            if 1 not in seq or not is_gamma2_solution(seq):
                continue
            t = realize_triangulation(seq)
            t.validate()
            assert t.classify().is_triangulation
            assert t.quiddity_mod2() == seq


def test_surgery_rejects_bad_sequences():
    with pytest.raises(ValueError):
        op_a((0, 2), 1)
    with pytest.raises(ValueError):
        alpha((1, 0), 1)
    with pytest.raises(IndexError):
        op_b((0, 0), 3)


def test_op_a_on_a_single_entry_closes_a_triangle():
    # the 1-gon's vertex becomes two neighbors of the new 1, each flipped
    assert op_a((1,), 1) == (0, 1, 0)
    assert op_a((0,), 1) == (1, 1, 1)


def test_apply_step_rejects_an_unknown_kind():
    with pytest.raises(SurgeryError, match="unknown step kind 'X'"):
        apply_step((1, 1, 1), SurgeryStep("X", 1))


def test_replay_trace_rejects_a_forward_step():
    trace = SurgeryTrace((1, 1, 1), (SurgeryStep("A", 1),))
    with pytest.raises(SurgeryError, match="cannot replay step kind 'A'"):
        replay_trace(trace)
