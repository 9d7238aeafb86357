"""Exhaustive solution enumeration, counting, and verification sweeps.

Mod-2 solutions of a given length are enumerated by a depth-first walk over
{0, 1}^n carrying the running product in SL(2, F2), emitting tuples in
lexicographic order; results agree with the naive filter over all 2^n
tuples.  Labeled tuple counts follow the Jacobsthal numbers, rotation
classes are a separate view.  The bounded integer search lists the
sequences with entries in [1, cap] whose product is plus or minus the
identity by meeting in the middle: prefix products of half length are
matched against inverse suffix products, and the matches are sorted.

``theorem_sweep`` cross-checks the combinatorial characterizations at desk
scale (dissections -> quiddities -> membership, and solutions ->
realization -> round trip).  The forward sweeps do not list the
dissections: ``_Counts.classes`` counts them by class on one table per
sweep, each class the product and entry sum of a quiddity: mod 2 for thm1i
({3,4} dissections and their parity quiddity) and over Z for thm2 and thm3
(triangulations and 3d dissections and their cc quiddity).  Each of the
few classes is decided once; ``enumerate_dissections`` lists the dissections
only to name the counterexamples of a failing class up to the polygon cap,
and for the quiddity set that the converse of thm2 and thm3 compares
against, each read with its own ``quiddity_mod2`` or ``quiddity_cc``.
"""

import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .algebra import (
    IntSeq,
    Mat2,
    MatClass,
    Mod2Seq,
    _MOD2_STEPS,
    _fold,
    classify_pm_identity,
    format_seq,
    is_gamma2_solution,
    m_product,
    min_rotation,
)
from .dissections import (
    DEFAULT_POLYGON_CAP,
    _OVER_F2,
    _OVER_Z,
    _Counts,
    _check_cap,
    enumerate_dissections,
)
from .surgery import realize_dissection, realize_triangulation

__all__ = [
    "DEFAULT_MOD2_CAP",
    "DEFAULT_INT_CAP",
    "DEFAULT_COUNT_CAP",
    "SWEEP_NAMES",
    "SolutionReport",
    "SweepReport",
    "solutions_gamma2",
    "jacobsthal_count",
    "cyclic_classes",
    "solutions_pm_identity",
    "entries_one_check",
    "solution_report",
    "theorem_sweep",
]

DEFAULT_MOD2_CAP = 20
DEFAULT_INT_CAP = 8
DEFAULT_COUNT_CAP = 64

SWEEP_NAMES = ("thm1i", "thm1ii", "thm2", "thm3", "remark")

# the kind each forward sweep counts, and the modulus it counts by
_COUNTED = {"thm1i": ("34", _OVER_F2), "thm2": ("triangulation", _OVER_Z), "thm3": ("3d", _OVER_Z)}

# default top n of the thm2/thm3 integer-search converse
_CONVERSE_HI = 7


def solutions_gamma2(n: int, cap: int = DEFAULT_MOD2_CAP) -> list[Mod2Seq]:
    """All tuples in {0,1}^n with mod-2 product Id, in lex order, walking ``_MOD2_STEPS``."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    _check_cap(n, "mod-2", cap)

    out: list[Mod2Seq] = []
    prefix: list[int] = []

    def rec(i: int, state: int) -> None:
        if i == n:
            if state == 0:
                out.append(tuple(prefix))
            return
        zero, one = _MOD2_STEPS[state]
        prefix.append(0)
        rec(i + 1, zero)
        prefix[-1] = 1
        rec(i + 1, one)
        prefix.pop()

    rec(0, 0)
    return out


def jacobsthal_count(n: int) -> int:
    """Closed-form count of length-n mod-2 solutions: (2^(n-1) - (-1)^(n-1)) / 3."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    return (2 ** (n - 1) - (-1) ** (n - 1)) // 3


def cyclic_classes(tuples) -> list[tuple]:
    """Sorted lex-minimal rotation representatives of the given tuples."""
    return sorted({min_rotation(t) for t in tuples})


def solutions_pm_identity(
    n: int, entry_cap: int | None = None, cap: int = DEFAULT_INT_CAP
) -> list[tuple[IntSeq, int]]:
    """All sequences with entries in [1, entry_cap] multiplying to +Id or -Id.

    The default entry cap is n - 2: a quiddity entry counts cells at a
    vertex, and a dissection of an n-gon has at most n - 2 cells.  Returns
    ``(sequence, sign)`` pairs in lexicographic order.

    Meet in the middle (Horowitz-Sahni): the products of all prefixes of
    length n // 2 go into a table, and each suffix with product S is
    matched against the prefixes whose product is +S^-1 or -S^-1.  That is
    O(entry_cap^ceil(n/2)) products instead of entry_cap^n.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    _check_cap(n, "integer-search", cap)
    entry_cap = max(1, n - 2) if entry_cap is None else operator.index(entry_cap)
    if entry_cap < 1:
        raise ValueError(f"entry cap must be at least 1, got {entry_cap}")

    entries = range(1, entry_cap + 1)
    k = n // 2
    prefixes: dict[tuple[int, int, int, int], list[IntSeq]] = {}
    for prefix in product(entries, repeat=k):
        prefixes.setdefault(_fold(prefix), []).append(prefix)
    out: list[tuple[IntSeq, int]] = []
    for suffix in product(entries, repeat=n - k):
        a, b, c, d = _fold(suffix)
        for sign in (1, -1):
            for prefix in prefixes.get((sign * d, -sign * b, -sign * c, sign * a), ()):
                out.append((prefix + suffix, sign))
    out.sort()
    return out


def entries_one_check(solutions) -> bool:
    """True iff every given sequence contains an entry equal to 1."""
    return all(1 in tuple(s) for s in solutions)


@dataclass(frozen=True, slots=True)
class SolutionReport:
    n: int
    tuple_count: int
    class_count: int
    expected_count: int
    match: bool
    tuples: tuple[Mod2Seq, ...]
    class_reps: tuple[Mod2Seq, ...]


def solution_report(n: int, cap: int = DEFAULT_MOD2_CAP) -> SolutionReport:
    n = operator.index(n)
    tuples = solutions_gamma2(n, cap=cap)
    reps = cyclic_classes(tuples)
    expected = jacobsthal_count(n)
    return SolutionReport(
        n=n,
        tuple_count=len(tuples),
        class_count=len(reps),
        expected_count=expected,
        match=len(tuples) == expected,
        tuples=tuple(tuples),
        class_reps=tuple(reps),
    )


@dataclass(frozen=True, slots=True)
class SweepReport:
    which: str
    n_lo: int
    n_hi: int
    checked: int
    counterexamples: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _check_sweep(
    which: str,
    n_lo: int,
    n_hi: int,
    *,
    polygon_cap: int,
    mod2_cap: int,
    int_cap: int,
    count_cap: int,
    converse_hi: int = _CONVERSE_HI,
) -> int:
    """First n of the sweep ``which`` over [n_lo, n_hi], after its range and cap checks.

    Raises ``ValueError`` for a range holding no n >= 3, and the
    ``CapExceeded`` that the sweep's loop would raise first, so a caller can
    check several sweeps before running any.
    """
    start = max(n_lo, 3)
    if start > n_hi:
        raise ValueError(f"sweep range {n_lo}..{n_hi} contains no polygon size n >= 3")
    # the caps the per-n calls meet, in call order, each with the last n it
    # is met at; raise now what the loop would raise first
    if which in ("thm1ii", "remark"):
        met = [("mod-2", mod2_cap, n_hi)]
    else:
        met = [("count", count_cap, n_hi)]
    if which in ("thm2", "thm3"):
        # the converse's walk and search; past the polygon cap no walk names a failing class
        last = min(n_hi, converse_hi)
        met += [("polygon", polygon_cap, last), ("integer-search", int_cap, last)]
    over = [(max(start, cap + 1), what, cap) for what, cap, last in met if max(start, cap + 1) <= last]
    if over:
        _check_cap(*min(over, key=lambda o: o[0]))
    return start


def _mismatch(n: int, failing: int, named: int) -> list[str]:
    """The counterexample of a count whose failing dissections the stream does not all name."""
    if failing and named != failing:
        return [f"n={n}: {failing} dissections counted as failing, {named} found"]
    return []


def theorem_sweep(
    which: str,
    n_lo: int = 3,
    n_hi: int = 8,
    *,
    polygon_cap: int = DEFAULT_POLYGON_CAP,
    mod2_cap: int = DEFAULT_MOD2_CAP,
    int_cap: int = DEFAULT_INT_CAP,
    count_cap: int = DEFAULT_COUNT_CAP,
    converse_hi: int = _CONVERSE_HI,
) -> SweepReport:
    """Run one named verification sweep over n in [n_lo, n_hi].

    thm1i   every triangle/quadrilateral dissection's parity quiddity is a
            mod-2 solution.
    thm1ii  every mod-2 solution is realized by a valid triangle/quadrilateral
            dissection with the exact quiddity.
    thm2    triangulation quiddities multiply to -Id and sum to 3n - 6;
            conversely (for n <= converse_hi) every -Id solution with entries
            <= n - 2 and that sum is a triangulation quiddity.
    thm3    the quiddities of dissections with all cell sizes divisible by 3
            (Ovsienko 2018) multiply to +/-Id; for n <= converse_hi they
            coincide with the +/-Id solutions with entries <= n - 2.
    remark  every solution with an odd entry is realized by a triangulation
            with the exact quiddity.

    thm1i, thm2 and thm3 count the dissections by class, on one table
    grown with n up to ``count_cap``, and decide each class once;
    ``checked`` is the count.  A class is the product of a quiddity with
    its entry sum, decided with ``classify_pm_identity``: for thm1i the
    parity quiddity's mod 2, where -Id is Id, and for thm2 and thm3 the cc
    quiddity's over Z.  Only when a class fails, and n is at most
    ``polygon_cap``, is a sweep's kind listed by ``enumerate_dissections``,
    to name each failing dissection (thm1i, thm2) or quiddity (thm3) in
    stream or sorted order, and a count the stream does not match is
    itself a counterexample; past the polygon cap each failing class is
    reported from its count.  For n <= ``converse_hi`` thm2 and thm3 list
    it anyway, to collect the quiddities their converse compares with the
    integer search (entries up to n - 2, about (n-2)^(n/2) products), and
    check each listed quiddity as it comes; above it only the forward
    direction is checked and no n is vacuous.  Bounds and caps are read
    with ``operator.index``; a range holding no n >= 3 raises
    ``ValueError``, and one reaching past a cap raises ``CapExceeded``
    before any work.
    """
    if which not in SWEEP_NAMES:
        raise ValueError(f"unknown sweep {which!r}; expected one of {SWEEP_NAMES}")
    n_lo, n_hi, converse_hi, polygon_cap, mod2_cap, int_cap, count_cap = map(
        operator.index, (n_lo, n_hi, converse_hi, polygon_cap, mod2_cap, int_cap, count_cap)
    )
    start = _check_sweep(
        which, n_lo, n_hi, polygon_cap=polygon_cap, mod2_cap=mod2_cap,
        int_cap=int_cap, count_cap=count_cap, converse_hi=converse_hi,
    )
    checked = 0
    bad: list[str] = []
    if which in _COUNTED:
        kind, modulus = _COUNTED[which]
        counts = _Counts(kind, modulus, n_hi)

    for n in range(start, n_hi + 1):
        if which in _COUNTED:
            classes = counts.classes(n)
            checked += sum(count for _, count in classes)
            wrong = [(Mat2(*m), total, count) for (m, total), count in classes]
            if which == "thm2":
                wrong = [
                    w for w in wrong if classify_pm_identity(w[0]) is not MatClass.MINUS_ID or w[1] != 3 * n - 6
                ]
            else:  # thm1i and thm3; mod 2, for thm1i, -Id is Id
                wrong = [w for w in wrong if classify_pm_identity(w[0]) is MatClass.OTHER]
            failing = sum(count for *_, count in wrong)
            name = failing and n <= polygon_cap  # only then walk to name them
            bad += [
                f"n={n}: {count} dissections counted with product {m!r} and sum {total}, "
                f"unnamed past the polygon cap {polygon_cap}"
                for m, total, count in wrong if not name
            ]
        if which == "thm1i":
            if name:
                named = []
                for d in enumerate_dissections(n, kind, polygon_cap):
                    q = d.quiddity_mod2()
                    if not is_gamma2_solution(q):
                        named.append(f"n={n}: quiddity {format_seq(q)} of {d!r} is not a solution")
                bad += named + _mismatch(n, failing, len(named))
        elif which == "thm1ii":
            for s in solutions_gamma2(n, cap=mod2_cap):
                checked += 1
                d = realize_dissection(s)
                if not d.classify().is_34 or d.quiddity_mod2() != s:
                    bad.append(f"n={n}: realization of {format_seq(s)} gave {d!r}")
        elif which == "thm2":
            tri_quiddities = set()
            if name or n <= converse_hi:
                named = 0
                for d in enumerate_dissections(n, kind, polygon_cap):
                    q = d.quiddity_cc()
                    tri_quiddities.add(q)
                    lines = []
                    if classify_pm_identity(m_product(q)) is not MatClass.MINUS_ID:
                        lines.append(f"n={n}: triangulation quiddity {format_seq(q)} is not -Id")
                    if sum(q) != 3 * n - 6:
                        lines.append(f"n={n}: triangulation quiddity {format_seq(q)} sums to {sum(q)}")
                    named += bool(lines)
                    bad += lines
                bad += _mismatch(n, failing, named)
            if n <= converse_hi:
                for s, sign in solutions_pm_identity(n, cap=int_cap):
                    checked += 1
                    if sign == -1 and sum(s) == 3 * n - 6 and s not in tri_quiddities:
                        bad.append(
                            f"n={n}: -Id solution {format_seq(s)} with quiddity sum "
                            f"is not a triangulation quiddity"
                        )
        elif which == "thm3":
            quiddities = Counter()  # each with its number of dissections
            if name or n <= converse_hi:
                quiddities.update(d.quiddity_cc() for d in enumerate_dissections(n, kind, polygon_cap))
                named = 0
                for q in sorted(quiddities):
                    if classify_pm_identity(m_product(q)) is MatClass.OTHER:
                        bad.append(f"n={n}: quiddity {format_seq(q)} is not a +/-Id solution")
                        named += quiddities[q]
                bad += _mismatch(n, failing, named)
            # cc entries are at most n - 2, the search's entry cap, so the
            # forward check has covered quiddities - solutions already
            if n <= converse_hi:
                solutions = {s for s, _ in solutions_pm_identity(n, cap=int_cap)}
                checked += len(solutions)
                for s in sorted(solutions - quiddities.keys()):
                    bad.append(f"n={n}: solution {format_seq(s)} is not a 3d quiddity")
        elif which == "remark":
            for s in solutions_gamma2(n, cap=mod2_cap):
                if 1 not in s:
                    continue
                checked += 1
                t = realize_triangulation(s)
                if not t.classify().is_triangulation or t.quiddity_mod2() != s:
                    bad.append(f"n={n}: triangulation of {format_seq(s)} gave {t!r}")

    return SweepReport(which, n_lo, n_hi, checked, tuple(bad))
