"""CLI behavior: verdicts, exit codes, formats, and file round trips."""

import contextlib
import io
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from quiddity import Dissection, MatClass, format_seq, in_principal_congruence, m_product
from quiddity import enumeration
from quiddity.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_pm(capsys):
    code, out, _ = run(capsys, "check", "1,1,1", "--pm")
    assert code == 0
    assert "M(1,1,1) = [[-1,0],[0,-1]]" in out
    assert "MinusId" in out

    code, out, _ = run(capsys, "check", "2,2", "--pm")
    assert code == 1
    assert "Other" in out


def test_check_mod(capsys):
    code, out, _ = run(capsys, "check", "2,2", "--mod", "2")
    assert code == 0
    assert "true" in out

    code, out, _ = run(capsys, "check", "1,1", "--mod", "2")
    assert code == 1
    assert "false" in out

    # -Id is congruent to Id mod 2 but not mod 3
    assert run(capsys, "check", "1,1,1", "--mod", "3")[0] == 1


def test_check_rejects_nonpositive_entries_in_integer_mode(capsys):
    code, _, err = run(capsys, "check", "1,0,1,0", "--mod", "2")
    assert code == 2
    assert "positive" in err


def test_check_flag_validation(capsys):
    assert run(capsys, "check", "1,1,1")[0] == 2
    assert run(capsys, "check", "1,1,1", "--pm", "--mod", "2")[0] == 2
    assert run(capsys, "check", "1,1,1", "--mod", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize("modulus", range(2, 8))
def test_check_mod_json_member_matches_exact_product(tmp_path, capsys, modulus):
    rng = random.Random(16)
    # M(1,1,1,1,1,1) = +Id is a member at every level
    lines = ["1,1,1", "2,2", "1,2,1,2", "1,3,1,2,2", "1,1,1,1,1,1"]
    lines += [",".join(str(rng.randint(1, 9)) for _ in range(rng.randint(1, 30))) for _ in range(40)]
    batch = tmp_path / "seqs.txt"
    batch.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "check", "@" + str(batch), "--mod", str(modulus), "--json")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["sequence"] for r in records] == [[int(c) for c in line.split(",")] for line in lines]
    for r in records:
        assert r["member"] == in_principal_congruence(m_product(r["sequence"]), modulus)
    assert code == (0 if all(r["member"] for r in records) else 1)


def test_check_mod2(capsys):
    code, out, _ = run(capsys, "check-mod2", "1,0,1,0")
    assert code == 0
    assert "true" in out
    code, out, _ = run(capsys, "check-mod2", "0,0,0")
    assert code == 1
    assert "false" in out
    assert run(capsys, "check-mod2", "1,2,1")[0] == 2


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "1,1,1", "--pm", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "schema": 1,
        "sequence": [1, 1, 1],
        "matrix": [[-1, 0], [0, -1]],
        "verdict": "MinusId",
    }


def test_quiddity_command(tmp_path, capsys):
    path = tmp_path / "quad.json"
    path.write_text('{"n": 4, "diagonals": []}')
    code, out, _ = run(capsys, "quiddity", str(path), "--mod2")
    assert code == 0
    assert out.strip() == "0,0,0,0"

    path.write_text(json.dumps(Dissection(5, [(1, 3), (1, 4)]).to_json_dict()))
    code, out, _ = run(capsys, "quiddity", str(path), "--cc")
    assert code == 0
    assert out.strip() == "3,1,2,2,1"

    code, out, _ = run(capsys, "quiddity", str(path), "--cc", "--json")
    assert json.loads(out) == {"schema": 1, "n": 5, "quiddity": [3, 1, 2, 2, 1]}


def test_quiddity_command_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 4, "diagonals": [[1, 3]]}'))
    code, out, _ = run(capsys, "quiddity", "-", "--mod2")
    assert code == 0
    assert out.strip() == "0,1,0,1"


def test_quiddity_command_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "diagonals": [[1, 3], [2, 4]]}')
    code, _, err = run(capsys, "quiddity", str(path), "--mod2")
    assert code == 2
    assert "(1, 3)" in err and "(2, 4)" in err
    assert run(capsys, "quiddity", str(tmp_path / "missing.json"), "--cc")[0] == 2
    assert run(capsys, "quiddity", str(path))[0] == 2  # --cc or --mod2 required


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 5.7, "diagonals": [[1.9, 3]]}',
        '{"n": "5", "diagonals": []}',
        '{"n": true, "diagonals": []}',
        '{"n": 5, "diagonals": [[1, 3.0]]}',
        '{"n": 5, "diagonals": [["1", 3]]}',
        '{"n": 5, "diagonals": [[1, false]]}',
    ],
)
def test_quiddity_command_rejects_non_integer_json(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "quiddity", "-", "--cc")
    assert code == 2
    assert out == ""
    assert "integer" in err


def test_realize_round_trips_through_quiddity(tmp_path, capsys):
    code, out, _ = run(capsys, "realize", "1,1,1,0,0")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["n"] == 5
    path = tmp_path / "d.json"
    path.write_text(out)
    code, out, _ = run(capsys, "quiddity", str(path), "--mod2")
    assert code == 0
    assert out.strip() == "1,1,1,0,0"


def test_realize_two_quadrilaterals(capsys):
    code, out, _ = run(capsys, "realize", "0,0,0,0,0,0")
    assert code == 0
    d = Dissection.from_json(out)
    assert [len(c) for c in d.cells()] == [4, 4]


def test_realize_triangulation_flag(capsys):
    code, out, _ = run(capsys, "realize", "1,1,1,0,0", "--triangulation")
    assert code == 0
    assert Dissection.from_json(out).classify().is_triangulation


def test_realize_failure_reports_refutation(capsys):
    code, _, err = run(capsys, "realize", "0,0,0")
    assert code == 1
    assert "reduces to 0,0,0" in err

    code, _, err = run(capsys, "realize", "0,0,0,0", "--triangulation")
    assert code == 1
    assert "no odd entry" in err


def test_realize_dot_output(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    code, _, _ = run(capsys, "realize", "0,1,0,1", "--dot", str(dot), "--geometry", "circle")
    assert code == 0
    text = dot.read_text()
    assert "graph dissection {" in text
    assert "1 -- 3;" in text
    assert 'pos="' in text


def test_frieze_text_and_json(capsys):
    code, out, _ = run(capsys, "frieze", "1,3,1,2,2")
    assert code == 0
    assert out.splitlines()[1] == "1   3   1   2   2"
    assert out.splitlines()[2] == "  2   2   1   3   1"

    code, out, _ = run(capsys, "frieze", "1,3,1,2,2", "--json")
    data = json.loads(out)
    assert data["rows"][1] == [1, 3, 1, 2, 2]
    assert data["rows"][2] == [2, 2, 1, 3, 1]


def test_frieze_failure(capsys):
    code, _, err = run(capsys, "frieze", "2,2,2")
    assert code == 1
    assert "border" in err.lower() or "positive" in err.lower()
    assert run(capsys, "frieze", "1,1,1,1")[0] == 1
    assert run(capsys, "frieze", "1,x,1")[0] == 2


def test_enumerate_classes(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--classes")
    assert code == 0
    assert "n=4 tuples=3 expected=3 match=true" in out
    assert "classes=2" in out
    assert "0,1,0,1" in out


def test_enumerate_verify_jacobsthal(capsys):
    code, out, _ = run(capsys, "enumerate", "10", "--verify-jacobsthal")
    assert code == 0
    assert "tuples=171" in out and "match=true" in out


def test_enumerate_tuples_json(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--tuples", "--json")
    data = json.loads(out)
    assert data["solutions"] == [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def test_enumerate_sweeps(capsys):
    code, out, _ = run(capsys, "enumerate", "6", "--sweep", "thm1")
    assert code == 0
    assert "sweep=thm1i" in out and "sweep=thm1ii" in out
    assert "counterexamples=0" in out

    code, out, _ = run(capsys, "enumerate", "5", "--sweep", "all", "--json")
    assert code == 0
    data = json.loads(out)
    assert [s["which"] for s in data["sweeps"]] == [
        "thm1i", "thm1ii", "thm2", "thm3", "remark",
    ]
    assert all(s["counterexamples"] == [] for s in data["sweeps"])


@pytest.mark.parametrize("n, sweep", [("-3", "thm1i"), ("2", "all"), ("0", "thm1")])
def test_enumerate_empty_sweep_is_a_usage_error(capsys, n, sweep):
    code, out, err = run(capsys, "enumerate", n, "--sweep", sweep)
    assert code == 2
    assert out == ""
    assert "contains no polygon size" in err


def test_enumerate_cap_exceeded(capsys, monkeypatch):
    assert run(capsys, "enumerate", "21")[0] == 2
    monkeypatch.setenv("QUIDDITY_MOD2_CAP", "4")
    assert run(capsys, "enumerate", "5")[0] == 2
    monkeypatch.setenv("QUIDDITY_MOD2_CAP", "6")
    assert run(capsys, "enumerate", "5")[0] == 0


def test_enumerate_thm3_past_the_integer_cap(capsys):
    code, out, _ = run(capsys, "enumerate", "9", "--sweep", "thm3")
    assert code == 0
    assert out.startswith("sweep=thm3 range=3..9 ")
    assert out.rstrip().endswith("counterexamples=0")


@pytest.mark.parametrize("name", ["QUIDDITY_MOD2_CAP", "QUIDDITY_POLYGON_CAP", "QUIDDITY_INT_CAP", "QUIDDITY_COUNT_CAP"])
def test_non_integer_cap_is_a_usage_error(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "twelve")
    code, out, err = run(capsys, "check", "1,1,1", "--pm")
    assert code == 2
    assert out == ""
    assert err == f"quiddity: {name} must be an integer, got 'twelve'\n"


@pytest.mark.parametrize("argv", [
    ("check", "1_0,2", "--pm"),
    ("check-mod2", "0_1,1"),
    ("check", "\u0661,\u0661,\u0661", "--pm"),
    ("frieze", "1,3,1,2,\uff12"),
])
def test_sequence_entries_are_ascii_decimals(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("quiddity: cannot parse ") and err.endswith(": entries must be ASCII decimal integers\n")


@pytest.mark.parametrize("argv", [
    ("enumerate", "1_0", "--sweep", "thm1i"),
    ("enumerate", "\u0667"),
    ("check", "1,1,1", "--mod", "1_0"),
    ("check", "1,1,1", "--mod", "\uff12"),
])
def test_integer_arguments_are_ascii_decimals(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    bad = next(arg for arg in argv if "_" in arg or not arg.isascii())
    assert f"invalid int value: {bad!r}" in err


@pytest.mark.parametrize("value", ["1_2", "\uff11\uff12"])
def test_cap_is_read_as_an_ascii_decimal(capsys, monkeypatch, value):
    monkeypatch.setenv("QUIDDITY_POLYGON_CAP", value)
    code, out, err = run(capsys, "check", "1,1,1", "--pm")
    assert (code, out) == (2, "")
    assert err == f"quiddity: QUIDDITY_POLYGON_CAP must be an integer, got {value!r}\n"
    monkeypatch.setenv("QUIDDITY_POLYGON_CAP", " 12 ")
    assert run(capsys, "check", "1,1,1", "--pm")[0] == 0


def test_batch_file_input(tmp_path, capsys):
    batch = tmp_path / "seqs.txt"
    batch.write_text("1,1,1\n# comment\n2,2\n")
    code, out, _ = run(capsys, "check", "@" + str(batch), "--pm")
    assert code == 1  # worst verdict wins: (2,2) is not +/-Id
    assert "MinusId" in out and "Other" in out


@pytest.mark.parametrize(
    "command",
    [["check", "--pm"], ["check", "--mod", "3"], ["check-mod2"], ["realize"], ["frieze"]],
    ids=["check-pm", "check-mod", "check-mod2", "realize", "frieze"],
)
@pytest.mark.parametrize("text", ["", "\n  \n# only a comment\n"], ids=["empty", "comments"])
def test_file_without_sequences_is_a_usage_error(tmp_path, capsys, command, text):
    batch = tmp_path / "none.txt"
    batch.write_text(text)
    code, out, err = run(capsys, command[0], "@" + str(batch), *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"quiddity: no sequences in @{batch}\n"


def test_output_is_deterministic(capsys):
    first = run(capsys, "enumerate", "8", "--classes", "--tuples")
    second = run(capsys, "enumerate", "8", "--classes", "--tuples")
    assert first == second


THM1I_TO_4_COUNTEREXAMPLES = [
    "n=3: quiddity 1,1,1 of Dissection(n=3, diagonals=[]) is not a solution",
    "n=4: quiddity 0,0,0,0 of Dissection(n=4, diagonals=[]) is not a solution",
    "n=4: quiddity 0,1,0,1 of Dissection(n=4, diagonals=[(1, 3)]) is not a solution",
    "n=4: quiddity 1,0,1,0 of Dissection(n=4, diagonals=[(2, 4)]) is not a solution",
]


def test_enumerate_sweep_counterexamples_exit_1(capsys, monkeypatch):
    # the theorem holds, so make thm1i's class and membership tests reject everything
    monkeypatch.setattr(enumeration, "classify_pm_identity", lambda m: MatClass.OTHER)
    code, out, err = run(capsys, "enumerate", "4", "--sweep", "thm1")
    assert (code, err) == (1, "")
    assert out == "".join([
        "sweep=thm1i range=3..4 checked=4 counterexamples=4\n",
        *(f"  {line}\n" for line in THM1I_TO_4_COUNTEREXAMPLES),
        "sweep=thm1ii range=3..4 checked=4 counterexamples=0\n",
    ])

    code, out, err = run(capsys, "enumerate", "4", "--sweep", "thm1i", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"schema": 1, "sweeps": [{
        "which": "thm1i",
        "range": [3, 4],
        "checked": 4,
        "counterexamples": THM1I_TO_4_COUNTEREXAMPLES,
    }]}


def test_check_mod2_json_records(capsys):
    code, out, _ = run(capsys, "check-mod2", "1,0,1,0", "--json")
    assert code == 0
    assert out == '{"schema": 1, "sequence": [1, 0, 1, 0], "matrix": [[1, 0], [0, 1]], "solution": true}\n'
    code, out, _ = run(capsys, "check-mod2", "1,1,0", "--json")
    assert code == 1
    assert out == '{"schema": 1, "sequence": [1, 1, 0], "matrix": [[1, 0], [1, 1]], "solution": false}\n'


def test_frieze_file_separates_tables_by_one_blank_line(tmp_path, capsys):
    batch = tmp_path / "quiddities.txt"
    batch.write_text("1,3,1,2,2\n\n2,1,2,1\n")
    code, out, err = run(capsys, "frieze", "@" + str(batch))
    assert (code, err) == (0, "")
    assert out == (
        "  1   1   1   1   1\n"
        "1   3   1   2   2\n"
        "  2   2   1   3   1\n"
        "1   1   1   1   1\n"
        "\n"
        "  1   1   1   1\n"
        "2   1   2   1\n"
        "  1   1   1   1\n"
    )


def test_enumerate_classes_json(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--classes", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1,
        "n": 4,
        "tuples": 3,
        "expected": 3,
        "match": True,
        "classes": 2,
        "class_representatives": [[0, 0, 0, 0], [0, 1, 0, 1]],
    }


def test_realize_dot_takes_one_sequence(tmp_path, capsys):
    batch = tmp_path / "seqs.txt"
    batch.write_text("1,1,1\n0,0,0,0\n")
    dot = tmp_path / "out.dot"
    assert run(capsys, "realize", "@" + str(batch), "--dot", str(dot)) == (
        2, "", f"quiddity: --dot takes one sequence, got 2 from @{batch}\n"
    )
    assert not dot.exists()


def test_realize_dot_write_failure_leaves_stdout_empty(tmp_path, capsys):
    dot = tmp_path / "missing" / "out.dot"
    code, out, err = run(capsys, "realize", "1,1,1", "--dot", str(dot))
    assert (code, out) == (2, "")
    assert err.startswith("quiddity: ") and str(dot) in err


def test_realize_geometry_without_dot_is_a_usage_error(capsys):
    assert run(capsys, "realize", "1,1,1", "--geometry", "circle") == (
        2, "", "quiddity: --geometry needs --dot\n"
    )


@pytest.mark.parametrize(
    "flags", [["--tuples"], ["--classes"], ["--verify-jacobsthal"], ["--tuples", "--classes", "--verify-jacobsthal"]]
)
def test_enumerate_sweep_with_a_listing_flag_is_a_usage_error(capsys, flags):
    assert run(capsys, "enumerate", "5", "--sweep", "thm1i", *flags) == (
        2, "", "quiddity: --sweep cannot be combined with --classes, --tuples or --verify-jacobsthal\n"
    )


def test_realize_dot_from_a_one_line_file(tmp_path, capsys):
    batch = tmp_path / "seq.txt"
    batch.write_text("0,0,0,0\n")
    dot = tmp_path / "out.dot"
    code, out, err = run(capsys, "realize", "@" + str(batch), "--dot", str(dot))
    assert (code, err) == (0, "")
    assert Dissection.from_json(out).n == 4
    assert dot.read_text() == Dissection.from_json(out).to_dot()


def test_quiddity_command_rejects_a_json_array(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert run(capsys, "quiddity", str(path), "--cc") == (
        2, "", "quiddity: dissection JSON must be an object\n"
    )


@pytest.mark.parametrize("source", ["stdin", "file"])
def test_quiddity_command_rejects_too_deeply_nested_json(tmp_path, capsys, monkeypatch, source):
    # json.loads gives up on this nesting with a RecursionError
    text = "[" * 200_000
    if source == "stdin":
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        arg = "-"
    else:
        path = tmp_path / "deep.json"
        path.write_text(text)
        arg = str(path)
    code, out, err = run(capsys, "quiddity", arg, "--cc")
    assert (code, out) == (2, "")
    assert err.startswith("quiddity: invalid JSON: ")


def test_check_pm_prints_a_long_product_in_full(tmp_path, capsys):
    # the product's entries have more digits than CPython's default
    # int-to-str limit (4300 since 3.11); the verdict is Other, so exit 1
    rng = random.Random(20_000)
    seq = [rng.randint(1, 5) for _ in range(20_000)]
    path = tmp_path / "word.txt"
    path.write_text(format_seq(seq) + "\n", encoding="utf-8")
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None

    code, text, err = run(capsys, "check", f"@{path}", "--pm")
    assert (code, err) == (1, "")
    code, out, err = run(capsys, "check", f"@{path}", "--pm", "--json")
    assert (code, err) == (1, "")
    # the CLI restores the limit it lifted
    assert (get_limit() if get_limit else None) == limit

    m = m_product(seq)
    if get_limit:
        sys.set_int_max_str_digits(0)
    try:
        assert len(str(abs(m.a))) > 4300
        assert text == f"M({format_seq(seq)}) = {m}\nOther\n"
        data = json.loads(out)
    finally:
        if get_limit:
            sys.set_int_max_str_digits(limit)
    assert data["verdict"] == "Other"
    assert data["sequence"] == seq
    assert data["matrix"] == [[m.a, m.b], [m.c, m.d]]


def test_verify_jacobsthal_exits_1_when_the_enumeration_misses_a_tuple(capsys, monkeypatch):
    # the closed form guards against a faulty enumerator
    real = enumeration.solutions_gamma2
    monkeypatch.setattr(enumeration, "solutions_gamma2", lambda *args, **kwargs: real(*args, **kwargs)[1:])
    code, out, err = run(capsys, "enumerate", "6", "--verify-jacobsthal")
    assert (code, err) == (1, "")
    assert out == "n=6 tuples=10 expected=11 match=false\n"
    code, out, err = run(capsys, "enumerate", "6", "--verify-jacobsthal", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["match"] is False
    # without the flag a mismatch is reported, not a verdict
    assert run(capsys, "enumerate", "6") == (0, "n=6 tuples=10 expected=11 match=false\n", "")


_SEQUENCE_TEXTS = st.text(alphabet="0123456789,-+x. ", max_size=12)

_SWEEP_FLAGS = [f"--sweep={name}" for name in ("all", "thm1", "thm1i", "thm1ii", "thm2", "thm3")]
_ARGVS = st.one_of(
    st.tuples(st.just("check"), _SEQUENCE_TEXTS, st.sampled_from([["--pm"], ["--mod", "0"], ["--mod", "2"], ["--mod", "7"]])),
    st.tuples(st.just("check-mod2"), _SEQUENCE_TEXTS, st.just([])),
    st.tuples(st.just("realize"), _SEQUENCE_TEXTS, st.sampled_from([[], ["--triangulation"]])),
    st.tuples(st.just("frieze"), _SEQUENCE_TEXTS, st.just([])),
    st.tuples(
        st.just("enumerate"),
        st.integers(-2, 8).map(str),
        st.lists(st.sampled_from(["--classes", "--tuples", "--verify-jacobsthal", *_SWEEP_FLAGS]), max_size=3),
    ),
).map(lambda parts: [parts[0], parts[1], *parts[2]])

# fixed alphabets keep hypothesis from building its unicode tables
_JSON_KEYS = st.sampled_from(["n", "diagonals", "schema"]) | st.text(alphabet="nd\\\"\u00e9", max_size=3)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.floats() | _JSON_KEYS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_JSON_KEYS, children, max_size=4),
    max_leaves=12,
)
_DISSECTION_TEXTS = st.one_of(
    st.text(alphabet='{}[]",:0123456789.-+eE truefalsnNI\\', max_size=20),
    _JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries(
        {"n": _JSON_VALUES, "diagonals": st.lists(st.lists(st.integers(-1, 9), max_size=3), max_size=5)},
        optional={"schema": st.sampled_from([1, 2, "1", True])},
    ).map(json.dumps),
)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(_ARGVS, st.booleans())
def test_every_subcommand_exits_by_the_contract(argv, as_json):
    # realize has no --json flag: it always prints JSON
    if as_json and argv[0] != "realize":
        argv = [*argv, "--json"]
    assert _quiet_main(argv) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(_DISSECTION_TEXTS)
def test_quiddity_command_exits_0_or_2_on_any_stdin(text):
    with mock.patch("sys.stdin", io.StringIO(text)):
        assert _quiet_main(["quiddity", "-", "--cc"]) in (0, 2)
