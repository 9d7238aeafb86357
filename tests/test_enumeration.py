"""Solution enumeration, Jacobsthal counts, cyclic classes, and sweeps."""

import itertools
import math

import pytest

import seed_counts
from quiddity import (
    DEFAULT_COUNT_CAP,
    CapExceeded,
    Dissection,
    MatClass,
    cyclic_classes,
    entries_one_check,
    enumerate_dissections,
    is_gamma2_solution,
    jacobsthal_count,
    solution_report,
    solutions_gamma2,
    solutions_pm_identity,
    theorem_sweep,
)
from quiddity import dissections, enumeration
from quiddity.algebra import _fold
from quiddity.cli import main


def _mul2(x, y):
    return (
        (x[0] * y[0] + x[1] * y[2]) & 1,
        (x[0] * y[1] + x[1] * y[3]) & 1,
        (x[2] * y[0] + x[3] * y[2]) & 1,
        (x[2] * y[1] + x[3] * y[3]) & 1,
    )


def _naive_solutions(n):
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        m = (1, 0, 0, 1)
        for c in bits:
            m = _mul2(m, (c, 1, 1, 0))
        if m == (1, 0, 0, 1):
            out.append(bits)
    return out


def test_solutions_examples():
    assert solutions_gamma2(2) == [(0, 0)]
    assert solutions_gamma2(3) == [(1, 1, 1)]
    assert solutions_gamma2(4) == [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0)]
    assert solutions_gamma2(1) == []


def test_solutions_match_naive_filter():
    for n in range(1, 11):
        assert solutions_gamma2(n) == _naive_solutions(n)


def test_solutions_are_sorted_and_valid():
    for n in (5, 8, 11):
        sols = solutions_gamma2(n)
        assert sols == sorted(sols)
        for s in sols:
            assert is_gamma2_solution(s)


def test_rotations_of_solutions_are_solutions():
    for n in range(2, 11):
        for s in solutions_gamma2(n):
            for k in range(n):
                assert is_gamma2_solution(s[k:] + s[:k])


def test_jacobsthal_closed_form():
    # re-derive the closed form from the brute-force counts before trusting it
    for n in range(1, 11):
        assert jacobsthal_count(n) == len(_naive_solutions(n))
    assert [jacobsthal_count(n) for n in (2, 3, 4, 5)] == [1, 1, 3, 5]
    assert jacobsthal_count(10) == 171
    with pytest.raises(ValueError):
        jacobsthal_count(0)


def test_counts_match_closed_form():
    for n in range(2, 16):
        assert len(solutions_gamma2(n)) == jacobsthal_count(n)


def test_cyclic_classes():
    assert cyclic_classes(solutions_gamma2(4)) == [(0, 0, 0, 0), (0, 1, 0, 1)]
    assert cyclic_classes(solutions_gamma2(5)) == [(0, 0, 1, 1, 1)]
    assert cyclic_classes([]) == []
    assert cyclic_classes([(1, 0), (0, 1)]) == [(0, 1)]


def test_solutions_pm_identity_examples():
    assert solutions_pm_identity(3) == [((1, 1, 1), -1)]
    four = solutions_pm_identity(4)
    assert ((1, 2, 1, 2), -1) in four
    assert ((2, 1, 2, 1), -1) in four
    seven = dict(solutions_pm_identity(7))
    assert seven[(2, 1, 2, 1, 1, 1, 1)] == 1


def test_solutions_pm_identity_entry_cap():
    assert solutions_pm_identity(4, entry_cap=1) == []
    with pytest.raises(ValueError):
        solutions_pm_identity(4, entry_cap=0)
    with pytest.raises(ValueError):
        solutions_pm_identity(0)
    wide = solutions_pm_identity(4, entry_cap=3)
    assert ((1, 2, 1, 2), -1) in wide
    assert all(all(1 <= e <= 3 for e in s) for s, _ in wide)


def test_solutions_pm_identity_signs_verified():
    from quiddity import MAT_IDENTITY, MAT_MINUS_IDENTITY, m_product

    for n in range(2, 7):
        for s, sign in solutions_pm_identity(n):
            expected = MAT_IDENTITY if sign == 1 else MAT_MINUS_IDENTITY
            assert m_product(s) == expected


@pytest.mark.parametrize("args", [(7.0,), ("7",), (9.0,), (5, 3.0), (5, "3"), (5, 0.5)])
def test_solutions_pm_identity_rejects_non_integer_arguments(args):
    with pytest.raises(TypeError):
        solutions_pm_identity(*args)


@pytest.mark.parametrize("call", [
    lambda cap: next(enumerate_dissections(4, cap=cap)),
    lambda cap: solutions_gamma2(5, cap=cap),
    lambda cap: solutions_pm_identity(5, cap=cap),
], ids=["enumerate_dissections", "solutions_gamma2", "solutions_pm_identity"])
def test_caps_reject_floats(call):
    for cap in (4.5, 5.0, 5.9):
        with pytest.raises(TypeError):
            call(cap)


def test_caps_accept_bools():
    assert solutions_gamma2(1, cap=True) == []
    assert solutions_pm_identity(1, cap=True) == []


def test_entries_one_check():
    assert entries_one_check([(1, 1, 1)])
    assert entries_one_check([(1, 3, 1, 2, 2)])
    assert not entries_one_check([(2, 2)])
    for n in range(3, 7):
        assert entries_one_check([s for s, _ in solutions_pm_identity(n)])


def test_solution_report():
    report = solution_report(4)
    assert report.tuple_count == 3
    assert report.class_count == 2
    assert report.expected_count == 3
    assert report.match
    assert report.tuples == ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0))
    assert report.class_reps == ((0, 0, 0, 0), (0, 1, 0, 1))


@pytest.mark.parametrize("n", range(1, 17))
def test_solution_report_class_count_is_burnside(n):
    # a word fixed by the rotation by k is u^(n/g) for a word u of length
    # g = gcd(k, n); the classes are the mean number of fixed solutions
    def fixed(g):
        return sum(_fold(u * (n // g), 2) == (1, 0, 0, 1) for u in itertools.product((0, 1), repeat=g))

    total = sum(fixed(math.gcd(k, n)) for k in range(n))
    assert total % n == 0
    assert solution_report(n).class_count == total // n


def test_caps():
    with pytest.raises(CapExceeded):
        solutions_gamma2(21)
    with pytest.raises(CapExceeded):
        solutions_pm_identity(9)
    with pytest.raises(ValueError):
        solutions_gamma2(0)


def test_theorem_sweeps_find_no_counterexamples():
    assert theorem_sweep("thm1i", 3, 6).ok
    assert theorem_sweep("thm1ii", 3, 8).ok
    assert theorem_sweep("thm2", 3, 6).ok
    assert theorem_sweep("thm3", 3, 6).ok
    assert theorem_sweep("remark", 3, 7).ok
    with pytest.raises(ValueError):
        theorem_sweep("thm4")


def test_thm3_above_converse_hi_checks_products(monkeypatch):
    # n = 9 is past the converse's top n; the 3d quiddities are still checked
    report = theorem_sweep("thm3", 9, 9)
    assert report.ok
    assert report.checked > 0
    # with the gate lowered, n = 6 checks only the 3d dissections
    full = theorem_sweep("thm3", 6, 6).checked
    monkeypatch.setattr(enumeration, "_CONVERSE_HI", 5)
    assert theorem_sweep("thm3", 6, 6).checked < full


@pytest.mark.parametrize("which", ["thm2", "thm3"])
def test_converse_past_the_integer_search_default_cap_runs(monkeypatch, which):
    # the converse searches each n with the cap n, so its top n may pass
    # the search's default cap of 8
    monkeypatch.setattr(enumeration, "_CONVERSE_HI", 8)
    below = theorem_sweep(which, 3, 9).checked
    monkeypatch.setattr(enumeration, "_CONVERSE_HI", 9)
    report = theorem_sweep(which, 3, 9)
    solutions = solutions_pm_identity(9, cap=9)
    assert report.ok
    assert report.checked == below + (len(solutions) if which == "thm2" else len({s for s, _ in solutions}))


def _patch_sweep_workers(monkeypatch, result):
    for name in ("enumerate_dissections", "solutions_gamma2", "solutions_pm_identity"):
        monkeypatch.setattr(enumeration, name, result)
    monkeypatch.setattr(dissections._Counts, "classes", result)


def _never_called(*args, **kwargs):
    raise AssertionError("a per-n worker ran")


_PAST_COUNT_CAP = DEFAULT_COUNT_CAP + 1


@pytest.mark.parametrize("which, n_lo, n_hi, caps, message", [
    ("thm1i", 3, 13, {"count_cap": 12}, "n=13 exceeds the count cap 12"),
    # the polygon cap does not hold thm1i: only the count cap does
    ("thm1i", 9, 10, {"count_cap": 4, "polygon_cap": 4}, "n=9 exceeds the count cap 4"),
    ("thm1ii", 3, 21, {}, "n=21 exceeds the mod-2 cap 20"),
    ("remark", 5, 30, {"mod2_cap": 7}, "n=8 exceeds the mod-2 cap 7"),
    # a counted sweep meets the count cap, never the mod-2 cap
    ("thm2", 3, 10, {"count_cap": 5, "mod2_cap": 4}, "n=6 exceeds the count cap 5"),
    # the converse's search meets no cap of its own, raised past 8 too
    ("thm3", 3, 13, {"count_cap": 8, "converse_hi": 9}, "n=9 exceeds the count cap 8"),
    ("thm3", 3, 13, {"count_cap": 12}, "n=13 exceeds the count cap 12"),
    # nor does the converse's walk, past the polygon cap
    ("thm2", 3, 10, {"count_cap": 8, "polygon_cap": 4, "converse_hi": 10}, "n=9 exceeds the count cap 8"),
    # the default count cap holds every counted sweep
    ("thm1i", 3, _PAST_COUNT_CAP, {}, f"n={_PAST_COUNT_CAP} exceeds the count cap {DEFAULT_COUNT_CAP}"),
    ("thm2", 3, _PAST_COUNT_CAP, {}, f"n={_PAST_COUNT_CAP} exceeds the count cap {DEFAULT_COUNT_CAP}"),
    ("thm3", 3, _PAST_COUNT_CAP, {}, f"n={_PAST_COUNT_CAP} exceeds the count cap {DEFAULT_COUNT_CAP}"),
    # every other cap at its lowest, and the converse up to the count cap:
    # still only the count cap is met
    ("thm3", 3, 13, {"count_cap": 12, "polygon_cap": 3, "mod2_cap": 3, "converse_hi": 13},
     "n=13 exceeds the count cap 12"),
    # a mod-2 cap past n_hi lets no counted sweep through
    ("thm2", 3, 70, {"count_cap": 4, "mod2_cap": 70}, "n=5 exceeds the count cap 4"),
    ("thm2", 3, 70, {"polygon_cap": 4, "count_cap": 4}, "n=5 exceeds the count cap 4"),
])
def test_sweep_past_a_cap_raises_before_any_work(monkeypatch, which, n_lo, n_hi, caps, message):
    _patch_sweep_workers(monkeypatch, _never_called)
    monkeypatch.setattr(enumeration, "_Counts", _never_called)
    caps = dict(caps)
    monkeypatch.setattr(enumeration, "_CONVERSE_HI", caps.pop("converse_hi", enumeration._CONVERSE_HI))
    with pytest.raises(CapExceeded) as err:
        theorem_sweep(which, n_lo, n_hi, **caps)
    assert str(err.value) == message


@pytest.mark.parametrize("argv, env, message", [
    # the remark meets the mod-2 cap, not the count cap
    (["12", "--sweep", "remark"], {"QUIDDITY_COUNT_CAP": "5", "QUIDDITY_MOD2_CAP": "5"},
     "n=6 exceeds the mod-2 cap 5"),
    (["12", "--sweep", "thm1"], {"QUIDDITY_MOD2_CAP": "11"}, "n=12 exceeds the mod-2 cap 11"),
    # the polygon cap holds no sweep, so thm1i is checked and left for thm1ii's cap
    (["12", "--sweep", "all"], {"QUIDDITY_POLYGON_CAP": "4", "QUIDDITY_MOD2_CAP": "5"},
     "n=6 exceeds the mod-2 cap 5"),
    # the first failing sweep in run order names its cap, not the lowest n
    (["12", "--sweep", "all"], {"QUIDDITY_COUNT_CAP": "11", "QUIDDITY_MOD2_CAP": "5"},
     "n=12 exceeds the count cap 11"),
    (["12", "--sweep", "all"], {"QUIDDITY_COUNT_CAP": "5", "QUIDDITY_MOD2_CAP": "5"},
     "n=6 exceeds the count cap 5"),
])
def test_enumerate_checks_every_chosen_sweep_before_running_one(capsys, monkeypatch, argv, env, message):
    _patch_sweep_workers(monkeypatch, _never_called)
    # building thm1i's count table is work too: a command whose later sweep
    # fails its cap must not start the first one
    monkeypatch.setattr(enumeration, "_Counts", _never_called)
    for name in ("QUIDDITY_MOD2_CAP", "QUIDDITY_POLYGON_CAP", "QUIDDITY_COUNT_CAP"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["enumerate", *argv]) == 2
    assert capsys.readouterr() == ("", f"quiddity: {message}\n")


@pytest.mark.parametrize("which", ["thm1i", "thm1ii", "thm2", "thm3", "remark"])
def test_sweep_up_to_its_caps_runs(monkeypatch, which):
    _patch_sweep_workers(monkeypatch, lambda *args, **kwargs: [])
    monkeypatch.setattr(enumeration, "_CONVERSE_HI", 6)
    report = theorem_sweep(which, 3, 6, polygon_cap=6, mod2_cap=6, count_cap=6)
    assert (report.checked, report.counterexamples) == (0, ())


@pytest.mark.parametrize("which, kind, polygon_cap", [
    ("thm1i", "34", 3), ("thm2", "triangulation", 7), ("thm3", "3d", 7), ("thm2", "triangulation", 5),
])
def test_counted_sweeps_pass_the_polygon_cap_without_walking_above_it(monkeypatch, which, kind, polygon_cap):
    walked = []

    def walk(n, kind, cap):
        walked.append(n)
        return enumerate_dissections(n, kind, cap)

    monkeypatch.setattr(enumeration, "enumerate_dissections", walk)
    report = theorem_sweep(which, 3, 20, polygon_cap=polygon_cap)
    assert report.ok
    # every class holds, so no walk names one; the converse walks n <= 7
    # whatever the polygon cap
    assert walked == list(range(3, enumeration._CONVERSE_HI + 1)) * (which != "thm1i")
    # the totals of the open-state engine, which no sweep runs
    counts = seed_counts.Counts(kind, dissections._OVER_F2, 20)
    want = sum(count for n in range(3, 21) for _, count in counts.classes(n))
    for n in range(3, 8) if which != "thm1i" else ():
        solutions = solutions_pm_identity(n)
        want += len(solutions) if which == "thm2" else len({s for s, _ in solutions})
    assert report.checked == want


def test_a_failing_class_past_the_polygon_cap_is_reported_from_its_count(monkeypatch):
    counts = dissections._Counts("34", dissections._OVER_F2, 14)
    total = sum(count for n in (13, 14) for _, count in counts.classes(n))
    monkeypatch.setattr(enumeration, "enumerate_dissections", _never_called)
    classes = dissections._Counts.classes

    def counted(self, n):
        extra = [(((0, 1, 1, 0), 0), 2), (((1, 1, 0, 1), 1), 3)] if n == 14 else []
        return [*classes(self, n), *extra]

    monkeypatch.setattr(dissections._Counts, "classes", counted)
    report = theorem_sweep("thm1i", 13, 14)
    assert report.checked == total + 5
    assert report.counterexamples == (
        "n=14: 2 dissections counted with product Mat2(a=0, b=1, c=1, d=0) and sum 0, "
        "unnamed past the polygon cap 12",
        "n=14: 3 dissections counted with product Mat2(a=1, b=1, c=0, d=1) and sum 1, "
        "unnamed past the polygon cap 12",
    )


@pytest.mark.parametrize("which", ["thm1i", "thm1ii", "thm2", "thm3", "remark"])
@pytest.mark.parametrize("n_lo, n_hi", [(3, -3), (3, 2), (1, 2), (6, 5)])
def test_empty_sweep_range_is_rejected(which, n_lo, n_hi):
    with pytest.raises(ValueError, match="contains no polygon size"):
        theorem_sweep(which, n_lo, n_hi)


def test_sweep_reports_checked_counts():
    report = theorem_sweep("thm1i", 3, 4)
    # 1 triangle dissection, 3 quadrilateral dissections
    assert report.checked == 4
    assert report.counterexamples == ()


@pytest.mark.parametrize("which", ["thm1i", "thm1ii", "thm2", "thm3", "remark"])
def test_sweep_below_three_checks_the_same_as_from_three(which):
    low, base = theorem_sweep(which, 1, 6), theorem_sweep(which, 3, 6)
    assert (low.checked, low.counterexamples) == (base.checked, base.counterexamples)
    assert low.checked > 0


@pytest.mark.parametrize("n", [5.0, 5.5, "5"])
def test_solutions_gamma2_rejects_non_integer_n(n):
    with pytest.raises(TypeError):
        solutions_gamma2(n)


@pytest.mark.parametrize("n", [5.0, 5.5, "5"])
def test_jacobsthal_count_rejects_non_integer_n(n):
    with pytest.raises(TypeError):
        jacobsthal_count(n)


@pytest.mark.parametrize("n", [4.0, 4.5, "4"])
def test_solution_report_rejects_non_integer_n(n):
    with pytest.raises(TypeError):
        solution_report(n)


@pytest.mark.parametrize(
    "bounds",
    [{"n_lo": 1.0}, {"n_lo": 3.5}, {"n_hi": 5.0}, {"n_hi": "5"}, {"polygon_cap": 12.0}, {"mod2_cap": 20.0},
     {"count_cap": 64.0}],
)
@pytest.mark.parametrize("which", ["thm1i", "thm2", "thm3"])
def test_theorem_sweep_rejects_non_integer_bounds(which, bounds):
    with pytest.raises(TypeError):
        theorem_sweep(which, **{"n_lo": 3, "n_hi": 5, **bounds})


def _bare_polygon(s):
    return Dissection(len(s), [])


def test_thm1ii_and_remark_report_a_wrong_realization(monkeypatch):
    # the bare n-gon realizes (1,1,1) and (0,0,0,0) only; at n = 4 it is a
    # quadrilateral, so it is no triangulation either
    monkeypatch.setattr(enumeration, "realize_dissection", _bare_polygon)
    monkeypatch.setattr(enumeration, "realize_triangulation", _bare_polygon)
    report = theorem_sweep("thm1ii", 3, 4)
    assert report.checked == 4
    assert report.counterexamples == (
        "n=4: realization of 0,1,0,1 gave Dissection(n=4, diagonals=[])",
        "n=4: realization of 1,0,1,0 gave Dissection(n=4, diagonals=[])",
    )
    report = theorem_sweep("remark", 3, 4)
    assert report.checked == 3
    assert report.counterexamples == (
        "n=4: triangulation of 0,1,0,1 gave Dissection(n=4, diagonals=[])",
        "n=4: triangulation of 1,0,1,0 gave Dissection(n=4, diagonals=[])",
    )


def test_thm2_reports_a_wrong_sum_and_a_missed_solution(monkeypatch):
    # every pentagon triangulation reads 1,1,1,1,1: -Id by the patched
    # classifier, but summing to 5, not 3n - 6 = 9
    monkeypatch.setattr(Dissection, "quiddity_cc", lambda d: (1,) * d.n)
    monkeypatch.setattr(enumeration, "classify_pm_identity", lambda m: MatClass.MINUS_ID)
    # only a -Id solution with the quiddity sum counts against the converse
    solutions = [((1, 2, 2, 1, 3), 1), ((1, 1, 1, 1, 1), -1), ((1, 2, 2, 1, 3), -1)]
    monkeypatch.setattr(enumeration, "solutions_pm_identity", lambda *args, **kwargs: solutions)
    report = theorem_sweep("thm2", 5, 5)
    assert report.checked == 5 + 3
    assert report.counterexamples == (
        *["n=5: triangulation quiddity 1,1,1,1,1 sums to 5"] * 5,
        "n=5: -Id solution 1,2,2,1,3 with quiddity sum is not a triangulation quiddity",
    )


def test_thm3_reports_solutions_that_are_no_3d_quiddity(monkeypatch):
    # the triangle's quiddity 1,1,1 is the only 3d quiddity at n = 3
    solutions = [((3, 1, 3), 1), ((2, 2, 2), 1), ((1, 1, 1), -1)]
    monkeypatch.setattr(enumeration, "solutions_pm_identity", lambda *args, **kwargs: solutions)
    report = theorem_sweep("thm3", 3, 3)
    assert report.checked == 1 + 3
    assert report.counterexamples == (
        "n=3: solution 2,2,2 is not a 3d quiddity",
        "n=3: solution 3,1,3 is not a 3d quiddity",
    )
