"""The dissection stream's quiddities against the frozen ``seed_cells`` reference.

``theorem_sweep`` reads each set of ``enumerate_dissections`` through its
diagonals, ``quiddity_cc`` (1 + the diagonal degrees) and
``quiddity_mod2``.  These tests pin all three for every kind, and the
sweep and CLI outputs built on them.  thm1i, thm2 and thm3 decide by the
count of ``_Counts.classes`` and list the stream only to name counterexamples
(and, for thm2 and thm3, to collect the quiddities of their converse), so
the count is pinned to the stream too.
"""

import functools
import sys

import pytest

import seed_cells as seed
from quiddity import (
    DEFAULT_COUNT_CAP,
    Dissection,
    Mat2,
    MatClass,
    classify_pm_identity,
    enumerate_dissections,
    format_seq,
    solutions_pm_identity,
    theorem_sweep,
)
from quiddity import dissections, enumeration
from quiddity.algebra import _fold, is_gamma2_solution
from quiddity.cli import main
from quiddity.dissections import _OVER_F2, _Counts

KINDS = ("all", "triangulation", "34", "3d")


def _walk_readings(n, kind):
    for d in enumerate_dissections(n, kind, n):
        yield d.diagonals, d.quiddity_cc(), d.quiddity_mod2()


@pytest.mark.parametrize("n", range(3, 12))
def test_walk_quiddities_match_reference_for_every_kind(n, monkeypatch):
    # the three reference readings of a set share one reference cell list
    monkeypatch.setattr(seed, "cells", functools.lru_cache(maxsize=1)(seed.cells))
    # the "all" walk is the stream of enumerate_dissections, which the cell
    # differential tests pin to the reference; each other kind must yield
    # exactly the sets of it that the reference cells accept, in order
    others = {kind: _walk_readings(n, kind) for kind in KINDS if kind != "all"}
    for got in _walk_readings(n, "all"):
        d = Dissection(n, got[0])
        flags = seed.classify(d)
        assert got == (d.diagonals, seed.quiddity_cc(d), seed.quiddity_mod2(d)), d
        for kind, walk in others.items():
            if seed.kind_ok(flags, kind):
                assert next(walk) == got, (kind, d)
    for kind, walk in others.items():
        assert next(walk, None) is None, (n, kind)


def test_walk_cuts_a_cell_as_soon_as_it_holds_the_largest_size():
    # the cut changes the work, not the stream: count the Python call events
    # in dissections.py, a generator's every resumption included, over the
    # triangulations of the 12-gon.  The walk makes 293,944; without the cut
    # it makes 471,586, and with the cut one vertex late 412,829.
    module = enumerate_dissections.__code__.co_filename
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename == module

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        sets = sum(1 for _ in enumerate_dissections(12, "triangulation", 12))
    finally:
        sys.setprofile(before)
    assert sets == 16796
    assert calls <= 293_944


@pytest.mark.parametrize("n", [6, 7])
def test_sweep_counterexamples_read_as_built_from_enumerated_dissections(n, monkeypatch):
    # the theorems hold, so make each sweep's predicate reject everything;
    # the expected lines are the sweeps' own format strings applied to the
    # public stream, which is how they were built before the walk was read
    monkeypatch.setattr(enumeration, "classify_pm_identity", lambda m: MatClass.OTHER)

    sets = list(enumerate_dissections(n, "34"))
    report = theorem_sweep("thm1i", n, n)
    assert report.checked == len(sets)
    assert report.counterexamples == tuple(
        f"n={n}: quiddity {format_seq(d.quiddity_mod2())} of {d!r} is not a solution" for d in sets
    )

    sets = list(enumerate_dissections(n, "triangulation"))
    report = theorem_sweep("thm2", n, n)
    assert report.checked == len(sets) + len(solutions_pm_identity(n))
    assert report.counterexamples == tuple(
        f"n={n}: triangulation quiddity {format_seq(d.quiddity_cc())} is not -Id" for d in sets
    )

    sets = list(enumerate_dissections(n, "3d"))
    want = tuple(
        f"n={n}: quiddity {format_seq(q)} is not a +/-Id solution"
        for q in sorted({d.quiddity_cc() for d in sets})
    )
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_CONVERSE_HI", n - 1)
        report = theorem_sweep("thm3", n, n)
    assert (report.checked, report.counterexamples) == (len(sets), want)
    monkeypatch.setattr(enumeration, "solutions_pm_identity", lambda *args, **kwargs: [])
    report = theorem_sweep("thm3", n, n)
    assert (report.checked, report.counterexamples) == (len(sets), want)


# stdout of `quiddity enumerate 10 --sweep all`, with and without --json,
# recorded before the sweeps read the walk directly
SWEEP_ALL_10 = (
    "sweep=thm1i range=3..10 checked=16656 counterexamples=0\n"
    "sweep=thm1ii range=3..10 checked=340 counterexamples=0\n"
    "sweep=thm2 range=3..10 checked=2127 counterexamples=0\n"
    "sweep=thm3 range=3..10 checked=3067 counterexamples=0\n"
    "sweep=remark range=3..10 checked=336 counterexamples=0\n"
)
SWEEP_ALL_10_JSON = (
    '{"schema": 1, "sweeps": ['
    '{"which": "thm1i", "range": [3, 10], "checked": 16656, "counterexamples": []}, '
    '{"which": "thm1ii", "range": [3, 10], "checked": 340, "counterexamples": []}, '
    '{"which": "thm2", "range": [3, 10], "checked": 2127, "counterexamples": []}, '
    '{"which": "thm3", "range": [3, 10], "checked": 3067, "counterexamples": []}, '
    '{"which": "remark", "range": [3, 10], "checked": 336, "counterexamples": []}]}\n'
)


@pytest.fixture
def default_caps(monkeypatch):
    for name in ("QUIDDITY_MOD2_CAP", "QUIDDITY_POLYGON_CAP", "QUIDDITY_COUNT_CAP"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("flags, want", [((), SWEEP_ALL_10), (("--json",), SWEEP_ALL_10_JSON)])
def test_sweep_all_prints_the_recorded_output(flags, want, capsys, default_caps):
    assert main(["enumerate", "10", "--sweep", "all", *flags]) == 0
    assert capsys.readouterr() == (want, "")


def test_a_polygon_cap_below_the_converse_changes_no_sweep(capsys, default_caps, monkeypatch):
    # the polygon cap bounds only the walk that names a failing class; the
    # converse walks n <= 7 whatever it is
    assert main(["enumerate", "12", "--sweep", "all"]) == 0
    want = capsys.readouterr()
    monkeypatch.setenv("QUIDDITY_POLYGON_CAP", "4")
    assert main(["enumerate", "12", "--sweep", "all"]) == 0
    assert capsys.readouterr() == want


def test_sweep_past_the_default_count_cap_is_a_usage_error(capsys, default_caps):
    n = DEFAULT_COUNT_CAP + 1
    for which in ("thm1i", "thm2", "thm3"):
        assert main(["enumerate", str(n), "--sweep", which]) == 2
        assert capsys.readouterr() == ("", f"quiddity: n={n} exceeds the count cap {DEFAULT_COUNT_CAP}\n")
    # past the default polygon cap the count alone decides
    assert main(["enumerate", "13", "--sweep", "thm1i"]) == 0
    total = sum(count for n in range(3, 14) for _, count in _Counts("34", _OVER_F2, 13).classes(n))
    assert capsys.readouterr() == (f"sweep=thm1i range=3..13 checked={total} counterexamples=0\n", "")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(3, 12))
def test_count_total_is_the_enumeration_length(n, kind):
    total = sum(count for _, count in _Counts(kind, _OVER_F2, n).classes(n))
    assert total == sum(1 for _ in enumerate_dissections(n, kind))


@pytest.mark.parametrize("n", range(3, 12))
def test_count_classes_are_the_walk_histogram(n):
    want = {}
    for d in enumerate_dissections(n, "34", n):
        q = d.quiddity_mod2()
        key = _fold(q, 2), sum(q) % 2
        want[key] = want.get(key, 0) + 1
    assert _Counts("34", _OVER_F2, n).classes(n) == sorted(want.items())


@pytest.mark.parametrize("args, error", [
    ((2, "34", 12), dissections.DissectionError),
    ((5, "45", 12), ValueError),
    ((5.0, "34", 12), TypeError),
])
def test_count_checks_its_arguments_as_the_walk_does(args, error):
    with pytest.raises(error) as walked:
        next(enumerate_dissections(*args))
    n, kind, _ = args
    with pytest.raises(error) as counted:
        _Counts(kind, _OVER_F2, n).classes(n)
    assert str(counted.value) == str(walked.value)


def test_thm1i_names_the_failing_sets_when_pentagons_are_admitted(monkeypatch):
    # the count and the walk both read the patched rule, so the sweep must
    # find failing classes and name every failing set in stream order
    monkeypatch.setitem(dissections._CELL_RULES, "34", lambda s: s in (3, 4, 5))
    sets, want = 0, []
    for d in enumerate_dissections(9, "34", 12):
        sets += 1
        q = d.quiddity_mod2()
        if not is_gamma2_solution(q):
            want.append(f"n=9: quiddity {format_seq(q)} of {d!r} is not a solution")
    report = theorem_sweep("thm1i", 9, 9)
    assert len(want) == 1044
    assert (report.checked, report.counterexamples) == (sets, tuple(want))


def test_thm1i_reports_a_counted_failure_the_walk_cannot_name(monkeypatch):
    # one extra dissection in the class of 0,0,0, whose product is S != Id mod 2
    classes = _Counts.classes
    monkeypatch.setattr(_Counts, "classes", lambda self, n: [*classes(self, n), (((0, 1, 1, 0), 0), 1)])
    report = theorem_sweep("thm1i", 6, 6)
    assert not report.ok
    assert report.checked == 39
    assert report.counterexamples == ("n=6: 1 dissections counted as failing, 0 found",)


@pytest.mark.parametrize("which, kind, extra", [
    # one extra triangulation multiplying to +Id, one extra 3d dissection to Other
    ("thm2", "triangulation", ((1, 0, 0, 1), 21)),
    ("thm3", "3d", ((2, 1, 1, 1), 0)),
])
def test_thm2_and_thm3_report_a_counted_failure_the_walk_cannot_name(monkeypatch, which, kind, extra):
    classes = _Counts.classes

    def counted(self, n):
        return [*classes(self, n), (extra, 1)]

    monkeypatch.setattr(_Counts, "classes", counted)
    report = theorem_sweep(which, 9, 9)
    assert report.checked == sum(1 for _ in enumerate_dissections(9, kind, 9)) + 1
    assert report.counterexamples == ("n=9: 1 dissections counted as failing, 0 found",)


@pytest.mark.parametrize("which", ["thm2", "thm3"])
def test_thm2_and_thm3_walk_only_for_the_converse_when_every_class_holds(monkeypatch, which):
    walked = []

    def walk(n, kind, cap):
        walked.append(n)
        return enumerate_dissections(n, kind, cap)

    monkeypatch.setattr(enumeration, "enumerate_dissections", walk)
    monkeypatch.setattr(enumeration, "_CONVERSE_HI", 5)
    report = theorem_sweep(which, 3, 10)
    assert report.ok
    assert walked == [3, 4, 5]


def _listed_class(q, modulus):
    """The class the count keys a quiddity by: M(q) and the sum, reduced mod ``modulus`` (0: over Z)."""
    if modulus:
        return _fold(q, modulus), sum(q) % modulus
    return _fold(q), sum(q)


@pytest.mark.parametrize("which", ["thm1i", "thm2", "thm3"])
def test_the_count_and_the_naming_walk_read_one_claim(which, monkeypatch):
    # each real class in turn fails one added reason of the sweep's claim;
    # the count must find it failing and the walk must name exactly its
    # dissections (thm3: its distinct quiddities), or the report would carry
    # a "counted as failing, k found" line
    spec = enumeration._SPECS[which]
    for n in range(3, 9):
        base = theorem_sweep(which, n, n)
        assert base.ok
        readings = [
            (d.quiddity_mod2() if spec.modulus else d.quiddity_cc(), d)
            for d in enumerate_dissections(n, spec.kind, n)
        ]
        for key, count in _Counts(spec.kind, spec.modulus, n).classes(n):
            m, total = key
            rejected = classify_pm_identity(Mat2(*m)), total

            def claim(c, t, k, rejected=rejected):
                return spec.claim(c, t, k) + ["is rejected"] * ((c, t) == rejected)

            monkeypatch.setitem(enumeration._SPECS, which, spec._replace(claim=claim))
            report = theorem_sweep(which, n, n)
            inside = [(q, d) for q, d in readings if _listed_class(q, spec.modulus) == key]
            assert len(inside) == count
            if which == "thm1i":
                want = [f"n={n}: quiddity {format_seq(q)} of {d!r} is rejected" for q, d in inside]
            elif which == "thm2":
                want = [f"n={n}: triangulation quiddity {format_seq(q)} is rejected" for q, d in inside]
            else:
                want = [f"n={n}: quiddity {format_seq(q)} is rejected" for q in sorted({q for q, _ in inside})]
            assert (report.checked, report.counterexamples) == (base.checked, tuple(want)), (n, key)
