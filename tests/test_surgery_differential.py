"""The linear-time surgery core and stack-based validation against the
frozen reference implementations in ``seed_surgery``."""

import itertools
import json
import random
from types import SimpleNamespace

import pytest

import quiddity.dissections as dissections
import quiddity.surgery as surgery
import seed_surgery as seed
from quiddity import (
    Dissection,
    DissectionError,
    SurgeryError,
    is_gamma2_solution,
    realize_dissection,
    realize_triangulation,
    reduce_to_base,
    replay_trace,
    trace_to_json_dict,
)


def _outcome(fn, *args):
    """The result as (n, diagonals), or the exception's type name and message."""
    try:
        d = fn(*args)
    except (SurgeryError, DissectionError) as exc:
        return type(exc).__name__, str(exc)
    return d.n, d.diagonals


def test_surgery_matches_reference_on_all_words_to_length_12():
    errors = set()
    for n in range(1, 13):
        for seq in itertools.product((0, 1), repeat=n):
            result = reduce_to_base(seq)
            got = trace_to_json_dict(result.trace) if result.is_solution else None
            assert got == seed.trace_json(seq), seq
            if result.is_solution:
                assert replay_trace(result.trace) == seq
            for new, old in (
                (realize_dissection, seed.realize_dissection),
                (realize_triangulation, seed.realize_triangulation),
            ):
                outcome = _outcome(new, seq)
                assert outcome == _outcome(old, seq), (new.__name__, seq)
                if isinstance(outcome[0], str):
                    errors.add(outcome[0])
    # every error path was exercised
    assert errors == {"TooShort", "NotASolution", "AllEven"}


def _random_solution(n, seed_value):
    rng = random.Random(seed_value)
    while True:
        seq = tuple(rng.randint(0, 1) for _ in range(n))
        if is_gamma2_solution(seq):
            return seq


def _validate(n, diagonals):
    return seed.unchecked(n, diagonals).validate()


def _reference_validate(n, diagonals):
    return seed.pairwise_validate(seed.unchecked(n, diagonals))


def _crossing_pair(fn, n, diagonals):
    try:
        fn(n, diagonals)
    except DissectionError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "first", None), getattr(exc, "second", None)
    return None


def test_validate_matches_pairwise_scan_on_random_sets():
    rng = random.Random(20)
    kinds = set()
    for _ in range(6000):
        n = rng.randint(3, 12)
        proper = [
            (i, j)
            for i in range(1, n - 1)
            for j in range(i + 2, n + 1)
            if (i, j) != (1, n)
        ]
        if rng.random() < 0.8:
            # mostly well-formed diagonals, so the crossing test decides
            diagonals = rng.sample(proper, rng.randint(0, min(len(proper), n)))
        else:
            diagonals = [
                (rng.randint(0, n + 1), rng.randint(0, n + 1)) for _ in range(rng.randint(1, 4))
            ]
            diagonals = [(a, b) for a, b in diagonals if a != b]
        got = _crossing_pair(_validate, n, diagonals)
        assert got == _crossing_pair(_reference_validate, n, diagonals), (n, diagonals)
        kinds.add(got[0] if got else None)
    assert {None, "CrossingDiagonals", "SideAsDiagonal", "DiagonalOutOfRange"} <= kinds


def test_validate_names_the_pairwise_pair_among_many_diagonals():
    # a non-crossing set plus a few random diagonals, so that the crossing
    # pairs sit among long runs of nested and disjoint ones
    rng = random.Random(22)
    crossings = 0
    for _ in range(800):
        n = rng.randint(8, 40)
        proper = [(i, j) for i in range(1, n - 1) for j in range(i + 2, n + 1) if (i, j) != (1, n)]
        rng.shuffle(proper)
        diagonals = []
        for p in proper:
            if not any(dissections._crosses(p, q) or dissections._crosses(q, p) for q in diagonals):
                diagonals.append(p)
        diagonals += rng.sample(proper, rng.randint(1, 3))
        got = _crossing_pair(_validate, n, diagonals)
        assert got == _crossing_pair(_reference_validate, n, diagonals), (n, diagonals)
        crossings += got is not None
    assert crossings > 500


def long_fans(seed_value):
    """Dissections of up to 60 vertices, each with a run of 9 to 40 diagonals from one vertex.

    The rest is a random non-crossing completion, so the run nests among
    other diagonals.  The exhaustive inputs (n <= 10) hold runs of at most 7.
    """
    rng = random.Random(seed_value)
    fans = []
    for run in range(9, 41):
        n = rng.randint(run + 3, 60)
        apex = rng.randint(1, n - run - 2)
        chosen = rng.sample([(apex, j) for j in range(apex + 2, n + 1) if (apex, j) != (1, n)], run)
        proper = [(i, j) for i in range(1, n - 1) for j in range(i + 2, n + 1) if (i, j) != (1, n)]
        for p in rng.sample(proper, len(proper) // 2):
            if not any(dissections._crosses(p, q) or dissections._crosses(q, p) for q in chosen):
                chosen.append(p)
        fans.append(Dissection(n, chosen))
    return fans


def test_validate_scans_pairs_only_on_a_crossing(monkeypatch):
    valid = [d for n in range(3, 9) for d in dissections.enumerate_dissections(n)]
    valid.append(realize_dissection(_random_solution(500, 1)))
    valid += long_fans(25)
    valid.append(realize_dissection(_random_solution(10_000, 2)))
    calls, scans = [], []
    original, original_bisect = dissections._crosses, dissections.bisect_right

    def counted(p, q):
        calls.append((p, q))
        return original(p, q)

    def counted_bisect(*args):
        scans.append(args)
        return original_bisect(*args)

    # the naming pass starts with bisect_right, so a nesting pass that
    # reports a crossing where there is none shows here, though no pair is named
    monkeypatch.setattr(dissections, "_crosses", counted)
    monkeypatch.setattr(dissections, "bisect_right", counted_bisect)
    for d in valid:
        d.validate()
    assert calls == []
    assert scans == []

    with pytest.raises(dissections.CrossingDiagonals):
        _validate(6, [(1, 3), (2, 5), (3, 5)])
    assert calls
    assert scans


@pytest.mark.parametrize("realize, cells_ok", [
    (realize_dissection, lambda flags: flags.is_34),
    (realize_triangulation, lambda flags: flags.is_triangulation),
])
def test_realizes_a_large_solution(realize, cells_ok):
    seq = _random_solution(20_000, 2)
    d = realize(seq)
    assert d.n == len(seq)
    assert cells_ok(d.classify())
    assert d.quiddity_mod2() == seq


def _random_word(rng, n, density, solution):
    """A 0/1 word of length n with about ``density`` ones and the given verdict."""
    while True:
        seq = tuple(int(rng.random() < density) for _ in range(n))
        if is_gamma2_solution(seq) == solution:
            return seq


def _seed_realized(fn, seq):
    """The seed's realization as (n, diagonals), or the exception's type name and message.

    The seed checks every intermediate polygon pair by pair, O(d^2) per glue,
    which is out of reach at these lengths; here it only records the final
    polygon, which is then checked once by the constructor.
    """
    try:
        d = fn(seq)
    except (SurgeryError, DissectionError) as exc:
        return type(exc).__name__, str(exc)
    d = Dissection(d.n, d.diagonals)
    return d.n, d.diagonals


def test_tail_end_surgery_matches_reference_on_long_words(monkeypatch):
    monkeypatch.setattr(seed, "_checked", lambda n, diagonals: SimpleNamespace(n=n, diagonals=diagonals))
    rng = random.Random(31)
    words = [_random_word(rng, n, density, True) for n, density in (
        (500, 0.5), (700, 0.2), (900, 0.8), (1200, 0.5), (1500, 0.05), (3000, 0.5),
    )]
    words += [_random_word(rng, rng.randint(500, 3000), density, False) for density in (0.5, 0.1, 0.9)]
    # all zeros, and a lone 1 at the end, whose removal wraps round
    words += [(0,) * 1000, (0,) * 1001, (0,) * 999 + (1,), (0,) * 1000 + (1,), (0,) * 998 + (1, 1, 1)]
    bases, errors = set(), set()
    for seq in words:
        result = reduce_to_base(seq)
        got = json.dumps(trace_to_json_dict(result.trace)) if result.is_solution else None
        want = seed.trace_json(seq)
        assert got == (json.dumps(want) if want else None), len(seq)
        if result.is_solution:
            assert replay_trace(result.trace) == seq
            bases.add(result.remainder)
        for new, old in (
            (realize_dissection, seed.realize_dissection),
            (realize_triangulation, seed.realize_triangulation),
        ):
            outcome = _outcome(new, seq)
            assert outcome == _seed_realized(old, seq), (new.__name__, len(seq))
            if isinstance(outcome[0], str):
                errors.add(outcome[0])
    assert bases == {(0, 0), (1, 1, 1)}
    assert errors == {"NotASolution", "AllEven"}


def test_realize_triangulation_rejects_as_the_reference_and_reduces_once(monkeypatch):
    # a solution is decided without a reduction and reduced once, keeping an
    # odd entry; only a non-solution runs the smallest-1 pass, to name its
    # remainder.  The errors match the reference past the exhaustive n <= 12.
    monkeypatch.setattr(seed, "_checked", lambda n, diagonals: SimpleNamespace(n=n, diagonals=diagonals))
    passes = []
    reduce = surgery._reduce

    def recorded(bits, keep_odd, chords=False):
        passes.append(keep_odd)
        return reduce(bits, keep_odd, chords)

    monkeypatch.setattr(surgery, "_reduce", recorded)
    rng = random.Random(41)
    words = [
        _random_word(rng, n, density, False) for n in (13, 14, 57, 200, 999) for density in (0.05, 0.5, 0.95)
    ]
    words += [(0,) * n for n in (13, 14, 15, 16, 200, 201)]  # all even; a solution at even n
    words += [(0,) * (n - 1) + (1,) for n in (13, 14, 15, 100)]
    errors = set()
    for seq in words:
        passes.clear()
        outcome = _outcome(realize_triangulation, seq)
        assert outcome == _outcome(seed.realize_triangulation, seq), len(seq)
        errors.add(outcome[0])
        assert passes == ([] if is_gamma2_solution(seq) else [False]), len(seq)
    assert errors == {"NotASolution", "AllEven"}
    seq = _random_word(rng, 300, 0.5, True)
    passes.clear()
    assert _outcome(realize_triangulation, seq) == _seed_realized(seed.realize_triangulation, seq)
    assert passes == [True]


def _closing_lengths(monkeypatch):
    """A list that records the length of each word ``surgery._close`` receives."""
    received = []
    close = surgery._close

    def recorded(seq, c, *args):
        received.append(len(seq))
        return close(seq, c, *args)

    monkeypatch.setattr(surgery, "_close", recorded)
    return received


def test_scan_cuts_from_length_4(monkeypatch):
    # with no short-word cut-off the scan's first run needs its last cut to
    # be made on 4 entries, so it cuts exactly when the smallest 1 sits at
    # index n - 4 or before, and with keep_odd only while at least 4 ones
    # remain; from there on to four past it, it matches the reference
    monkeypatch.setattr(surgery, "_SCAN_MIN", 0)
    monkeypatch.setattr(seed, "_checked", lambda n, diagonals: SimpleNamespace(n=n, diagonals=diagonals))
    received = _closing_lengths(monkeypatch)
    cut = {False: 0, True: 0}
    for n in range(3, 9):
        for seq in itertools.product((0, 1), repeat=n):
            first = seq.index(1) if 1 in seq else n
            for keep_odd in (False, True):
                received.clear()
                surgery._reduce(seq, keep_odd, chords=True)
                scans = first <= n - 4 and (sum(seq) >= 4 or not keep_odd)
                assert len(received) == 1 and (received[0] < n) == scans, (seq, keep_odd)
                cut[keep_odd] += scans
            result = reduce_to_base(seq)
            got = trace_to_json_dict(result.trace) if result.is_solution else None
            assert got == seed.trace_json(seq), seq
            for new, old in (
                (realize_dissection, seed.realize_dissection),
                (realize_triangulation, seed.realize_triangulation),
            ):
                assert _outcome(new, seq) == _seed_realized(old, seq), (new.__name__, seq)
    assert cut[False] > cut[True] > 100


@pytest.mark.parametrize("n", range(surgery._SCAN_MIN - 1, surgery._SCAN_MIN + 5))
def test_scan_matches_reference_on_every_word_from_its_cut_off(n, monkeypatch):
    # shorter words go whole to the closing phase; from _SCAN_MIN on, the
    # scan cuts what it can, and the traces are the reference's
    received = _closing_lengths(monkeypatch)
    scanned = 0
    for seq in itertools.product((0, 1), repeat=n):
        received.clear()
        result = reduce_to_base(seq)
        got = trace_to_json_dict(result.trace) if result.is_solution else None
        assert got == seed.trace_json(seq), seq
        scanned += received[0] < n
    assert (scanned > 0) == (n >= surgery._SCAN_MIN)


def _word_with_ones(rng, n, ones, solution):
    """A 0/1 word of length n with exactly ``ones`` 1s and the given verdict."""
    while True:
        seq = [0] * n
        for i in rng.sample(range(n), ones):
            seq[i] = 1
        if is_gamma2_solution(seq) == solution:
            return tuple(seq)


def _scan_boundary_words(rng):
    """Long words at the edges of the scan in ``surgery._reduce``.

    Exactly 4, 5 and 6 ones, around the 4 ones the scan needs with keep_odd,
    and words whose zeros run on to the last entry, so the scan stops with a
    long run of zeros left; each of either verdict.
    """
    # a solution has as many ones as entries, mod 2
    words = [
        _word_with_ones(rng, n + ones % 2, ones, solution)
        for n in (200, 600) for ones in (4, 5, 6) for solution in (True, False)
    ]
    for k in (297, 298):
        words += [(1,) + (0,) * k, (0, 1) + (0,) * k, (1, 1) + (0,) * k, (1, 0, 1) + (0,) * k, (0, 0, 1, 1, 1) + (0,) * k]
    for solution in (True, False):
        words += [_random_word(rng, 100, 0.5, solution)[:-1] + (1,) + (0,) * 250 for _ in range(3)]
    return words


def test_scan_boundaries_match_reference_on_long_words(monkeypatch):
    monkeypatch.setattr(seed, "_checked", lambda n, diagonals: SimpleNamespace(n=n, diagonals=diagonals))
    rng = random.Random(51)
    bases, errors = set(), set()
    for seq in _scan_boundary_words(rng):
        result = reduce_to_base(seq)
        got = json.dumps(trace_to_json_dict(result.trace)) if result.is_solution else None
        want = seed.trace_json(seq)
        assert got == (json.dumps(want) if want else None), seq.count(1)
        bases.add(result.remainder if result.is_solution else None)
        for new, old in (
            (realize_dissection, seed.realize_dissection),
            (realize_triangulation, seed.realize_triangulation),
        ):
            outcome = _outcome(new, seq)
            assert outcome == _seed_realized(old, seq), (new.__name__, len(seq), seq.count(1))
            if isinstance(outcome[0], str):
                errors.add(outcome[0])
    assert {(0, 0), None} <= bases
    assert errors == {"NotASolution"}


@pytest.mark.parametrize("keep_odd", [False, True])
def test_the_closing_phase_gets_only_the_last_few_entries(keep_odd, monkeypatch):
    # on uniform solutions the scan stops within a few entries of the end;
    # the closing phase takes the zeros after the last 1 the scan can pivot
    # on, so on sparse words it grows as the reciprocal of the density
    received = _closing_lengths(monkeypatch)
    rng = random.Random(61)
    for density in (0.5, 0.5, 0.5, 0.9):
        seq = _random_word(rng, 10_000, density, True)
        received.clear()
        _, base = surgery._reduce(seq, keep_odd, chords=True)
        assert base in ((0, 0), (1, 1, 1))
        assert len(received) == 1 and received[0] <= 32, (density, received)


def test_validate_matches_pairwise_scan_on_long_runs_of_equal_left_ends():
    # fans: runs of equal left ends, shorter and longer than 8, whose pushes
    # onto the heap must not lower the bound the rest of the run is read
    # against, and a chord or two that may cross them, against the pairwise scan
    rng = random.Random(24)
    kinds = set()
    for _ in range(3000):
        n = rng.randint(6, 40)
        apex = rng.randint(1, n - 2)
        fan = [(apex, j) for j in range(apex + 2, n + 1) if (apex, j) != (1, n) and rng.random() < 0.9]
        proper = [(i, j) for i in range(1, n - 1) for j in range(i + 2, n + 1) if (i, j) != (1, n)]
        diagonals = sorted(set(fan + rng.sample(proper, rng.randint(0, 2))))
        got = _crossing_pair(_validate, n, diagonals)
        assert got == _crossing_pair(_reference_validate, n, diagonals), (n, diagonals)
        kinds.add((got[0] if got else None, len(fan) > 8))
    assert kinds == {(None, False), (None, True), ("CrossingDiagonals", False), ("CrossingDiagonals", True)}
