"""Fuzzed module parsers: any input either parses or raises the module's typed error.

The CLI side is fuzzed in ``test_cli.py``; these draw text and JSON for the
library parsers themselves.  Fixed alphabets keep hypothesis from building
its unicode tables.
"""

import json

from hypothesis import example, given, settings, strategies as st

from quiddity import (
    Dissection,
    DissectionError,
    SurgeryError,
    enumerate_dissections,
    parse_int_seq,
    parse_mod2_seq,
    parse_word,
    reduce_to_base,
    replay_trace,
    solutions_gamma2,
    trace_from_json_dict,
    trace_to_json_dict,
)

_SEQUENCE_TEXTS = st.text(alphabet="0123456789,-+_x. \t", max_size=16) | st.lists(
    st.sampled_from(["0", "1", "2", " 1", "0 ", "+1", "01", "-1", ""]), min_size=1, max_size=8
).map(",".join)
_WORD_TEXTS = st.text(alphabet="TS^-1' \tx", max_size=12)
# entries that ``int`` reads but the parsers must not: digit groups joined by
# "_", digits of other scripts (Arabic-Indic, fullwidth, double-struck) and
# non-ASCII spaces, among plain ASCII entries
_DIGIT_GROUPS = st.lists(st.text(alphabet="0112\u0661\u0660\uff11\U0001d7d9", min_size=1, max_size=2), min_size=1, max_size=2)
_STRICT_ENTRIES = st.tuples(
    st.sampled_from(["", "+", "-", " ", "\t", "\u00a0"]), _DIGIT_GROUPS.map("_".join), st.sampled_from(["", " ", "\u2003"])
).map("".join)
_STRICT_TEXTS = st.lists(_STRICT_ENTRIES, min_size=1, max_size=4).map(",".join) | _SEQUENCE_TEXTS

_KEYS = st.sampled_from(["n", "diagonals", "schema", "base", "steps", "kind", "index"]) | st.text(
    alphabet="nbd\\\"é", max_size=3
)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.floats() | _KEYS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=12,
)
_SCHEMAS = {"schema": st.sampled_from([1, 2, "1", True, 1.0])}
# every dissection of a small polygon, and every surgery trace of a short solution
_REAL_DISSECTIONS = [d.to_json_dict() for n in range(3, 8) for d in enumerate_dissections(n, "all", n)]
_REAL_TRACES = [trace_to_json_dict(reduce_to_base(s).trace) for n in range(3, 9) for s in solutions_gamma2(n)]

_DISSECTION_DICTS = _VALUES | st.sampled_from(_REAL_DISSECTIONS) | st.fixed_dictionaries(
    {
        "n": st.integers(-2, 12) | _VALUES,
        "diagonals": st.lists(
            st.lists(st.integers(1, 10), min_size=2, max_size=2) | st.lists(st.integers(-1, 13), max_size=3),
            max_size=4,
        ),
    },
    optional=_SCHEMAS,
)
_DISSECTION_TEXTS = st.one_of(
    st.text(alphabet='{}[]",:0123456789.-+eE truefalsnNI\\', max_size=24),
    _DISSECTION_DICTS.map(json.dumps),
)
_STEPS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["InvA", "InvB", "A", "B", "inva"]) | _VALUES, "index": st.integers(-2, 12) | _VALUES},
)


def _shifted(trace, step, delta):
    """``trace`` with the index of one step moved by ``delta``."""
    steps = [dict(s) for s in trace["steps"]]
    if steps:
        steps[step % len(steps)]["index"] += delta
    return {**trace, "steps": steps}


_TRACE_DICTS = _VALUES | st.builds(
    _shifted, st.sampled_from(_REAL_TRACES), st.integers(0, 10), st.sampled_from([0, 0, -1, 1, -3, 5])
) | st.fixed_dictionaries(
    {"base": st.sampled_from(["0,0", "1,1,1", "0,1", "1,1,0", ""]) | _SEQUENCE_TEXTS | _VALUES,
     "steps": st.lists(_STEPS | _VALUES, max_size=6) | _VALUES},
    optional=_SCHEMAS,
)


@settings(max_examples=200, deadline=None)
@given(_SEQUENCE_TEXTS)
def test_sequence_parsers_parse_or_raise_value_error(text):
    try:
        seq = parse_int_seq(text)
    except ValueError:
        pass
    else:
        assert seq and all(type(e) is int and e >= 1 for e in seq)
    try:
        seq = parse_mod2_seq(text)
    except ValueError:
        pass
    else:
        assert seq and set(seq) <= {0, 1}


@settings(max_examples=300, deadline=None)
@given(_STRICT_TEXTS)
@example("1_0,2")
@example("0_1,1")
@example("\u0661,\u0661,\u0661")
def test_sequence_parsers_read_ascii_decimal_entries_only(text):
    foreign = "_" in text or any(c.isdecimal() and not c.isascii() for c in text)
    for parse in (parse_int_seq, parse_mod2_seq):
        try:
            seq = parse(text)
        except ValueError:
            continue
        assert not foreign, (parse.__name__, text, seq)
        if text.isascii():
            assert seq == tuple(int(p) for p in text.split(",")), (parse.__name__, text)


@settings(max_examples=200, deadline=None)
@given(_WORD_TEXTS)
def test_parse_word_parses_or_raises_value_error(text):
    try:
        word = parse_word(text)
    except ValueError:
        return
    assert word.sign in (1, -1)
    assert set(word.letters) <= {"T", "S", "T^-1", "S^-1"}


@settings(max_examples=200, deadline=None)
@given(_DISSECTION_TEXTS)
def test_dissection_json_parses_or_raises_dissection_error(text):
    try:
        d = Dissection.from_json(text)
    except DissectionError:
        return
    assert Dissection.from_json(d.to_json()) == d


@settings(max_examples=200, deadline=None)
@given(_DISSECTION_DICTS)
def test_dissection_json_dict_parses_or_raises_dissection_error(data):
    try:
        d = Dissection.from_json_dict(data)
    except DissectionError:
        return
    assert Dissection.from_json_dict(d.to_json_dict()) == d


@settings(max_examples=200, deadline=None)
@given(_TRACE_DICTS)
def test_trace_json_dict_parses_or_raises_surgery_error(data):
    try:
        trace = trace_from_json_dict(data)
    except SurgeryError:
        return
    assert trace_from_json_dict(trace_to_json_dict(trace)) == trace
    replay_trace(trace)
