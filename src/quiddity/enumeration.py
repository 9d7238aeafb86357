"""Exhaustive solution enumeration, counting, and verification sweeps.

Mod-2 solutions of a given length are enumerated by a depth-first walk over
{0, 1}^n carrying the running product in SL(2, F2), emitting tuples in
lexicographic order; results agree with the naive filter over all 2^n
tuples.  Labeled tuple counts follow the Jacobsthal numbers, rotation
classes are a separate view.  The bounded integer search lists the
sequences with entries in [1, cap] whose product is plus or minus the
identity by meeting in the middle: prefix products of half length are
matched against inverse suffix products, and the matches are sorted.

``theorem_sweep`` checks the paper's characterizations at desk scale, one
``_SPECS`` entry a sweep.  A counted sweep states its claim once, on the
class (product, sum) of a quiddity; the count, the walk that names a
failing class and the converse against the integer search all read it.
"""

import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, NamedTuple

from .algebra import (
    IntSeq,
    Mat2,
    MatClass,
    Mod2Seq,
    _MOD2_STEPS,
    _fold,
    _kernel,
    classify_pm_identity,
    format_seq,
    min_rotation,
)
from .dissections import (
    DEFAULT_POLYGON_CAP,
    _OVER_F2,
    _OVER_Z,
    _Counts,
    _check_cap,
    _reduced,
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
        prefixes.setdefault(_kernel(prefix), []).append(prefix)
    out: list[tuple[IntSeq, int]] = []
    for suffix in product(entries, repeat=n - k):
        a, b, c, d = _kernel(suffix)
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


class _Counted(NamedTuple):
    """A sweep that counts one kind of dissection by class and states one claim on a class."""

    kind: str
    modulus: int  # ``_OVER_F2`` counts parity quiddities, ``_OVER_Z`` cc quiddities
    claim: Callable  # (MatClass of M(q), sum q, n) -> the reasons the class fails
    subject: str  # names a listed quiddity {q} of the dissection {d}
    per_dissection: bool  # name each dissection in stream order, else each distinct quiddity sorted
    missed: str | None = None  # names a search solution {s} the converse misses; None: no converse


class _Realized(NamedTuple):
    """A sweep that realizes every mod-2 solution and checks the dissection it gets."""

    realize: Callable  # calls the realizer through its module name, so a patch of it is seen
    flag: str  # the ``DissectionFlags`` field the result must carry
    word: str  # names a failure
    odd_only: bool  # skip the solutions with no odd entry


_SPECS = {
    # mod 2, where -Id is Id, a parity quiddity is a solution iff its class is not Other
    "thm1i": _Counted(
        "34", _OVER_F2, lambda c, total, n: ["is not a solution"] * (c is MatClass.OTHER),
        subject="quiddity {q} of {d!r}", per_dissection=True,
    ),
    "thm1ii": _Realized(lambda s: realize_dissection(s), "is_34", "realization", odd_only=False),
    "thm2": _Counted(
        "triangulation", _OVER_Z,
        lambda c, total, n: ["is not -Id"] * (c is not MatClass.MINUS_ID) + [f"sums to {total}"] * (total != 3 * n - 6),
        subject="triangulation quiddity {q}", per_dissection=True,
        missed="-Id solution {s} with quiddity sum is not a triangulation quiddity",
    ),
    "thm3": _Counted(
        "3d", _OVER_Z, lambda c, total, n: ["is not a +/-Id solution"] * (c is MatClass.OTHER),
        subject="quiddity {q}", per_dissection=False, missed="solution {s} is not a 3d quiddity",
    ),
    "remark": _Realized(lambda s: realize_triangulation(s), "is_triangulation", "triangulation", odd_only=True),
}
SWEEP_NAMES = tuple(_SPECS)

# the class of a +/-Id solution's product, read from the search's sign
_SIGNED = {1: MatClass.PLUS_ID, -1: MatClass.MINUS_ID}


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
    spec = _SPECS[which]
    if isinstance(spec, _Realized):
        met = [("mod-2", mod2_cap, n_hi)]
    else:
        met = [("count", count_cap, n_hi)]
        if spec.missed is not None:
            # the converse's walk and search; past the polygon cap no walk names a failing class
            last = min(n_hi, converse_hi)
            met += [("polygon", polygon_cap, last), ("integer-search", int_cap, last)]
    over = [(max(start, cap + 1), what, cap) for what, cap, last in met if max(start, cap + 1) <= last]
    if over:
        _check_cap(*min(over, key=lambda o: o[0]))
    return start


def _counted(spec: _Counted, start: int, n_hi: int, polygon_cap: int, int_cap: int, converse_hi: int):
    """Yield ``(checked, counterexamples)`` of a counted sweep for each n from start to n_hi."""
    counts = _Counts(spec.kind, spec.modulus, n_hi)
    for n in range(start, n_hi + 1):
        classes = counts.classes(n)
        checked = sum(count for _, count in classes)
        wrong = [
            (m, total, count) for (m, total), count in classes
            if spec.claim(classify_pm_identity(Mat2(*m)), total, n)
        ]
        failing = sum(count for *_, count in wrong)
        name = failing and n <= polygon_cap  # only then walk to name them
        converse = spec.missed is not None and n <= converse_hi
        bad = [
            f"n={n}: {count} dissections counted with product {Mat2(*m)!r} and sum {total}, "
            f"unnamed past the polygon cap {polygon_cap}"
            for m, total, count in wrong if not name
        ]
        listed = set()
        if name or converse:
            # (quiddity, dissection, dissections) in naming order; mod 2 the
            # count reads the parity quiddity, over Z the cc quiddity
            dissections = enumerate_dissections(n, spec.kind, polygon_cap)
            stream = ((d.quiddity_mod2() if spec.modulus else d.quiddity_cc(), d, 1) for d in dissections)
            if not spec.per_dissection:
                quiddities = Counter(q for q, *_ in stream)
                stream = ((q, None, quiddities[q]) for q in sorted(quiddities))
            named = 0
            for q, d, count in stream:
                listed.add(q)
                m, total = _reduced(_fold(q, spec.modulus), sum(q), spec.modulus)
                reasons = spec.claim(classify_pm_identity(Mat2(*m)), total, n)
                named += count * bool(reasons)
                bad += [f"n={n}: {spec.subject.format(q=format_seq(q), d=d)} {reason}" for reason in reasons]
            if failing and named != failing:
                bad.append(f"n={n}: {failing} dissections counted as failing, {named} found")
        if converse:
            # cc entries are at most n - 2, the search's entry cap, so the
            # forward check has covered the listed quiddities that are no solution
            solutions = solutions_pm_identity(n, cap=int_cap)
            checked += len(solutions)
            held = {s for s, sign in solutions if not spec.claim(_SIGNED[sign], sum(s), n)}
            bad += [f"n={n}: {spec.missed.format(s=format_seq(s))}" for s in sorted(held - listed)]
        yield checked, bad


def _realized(spec: _Realized, start: int, n_hi: int, mod2_cap: int):
    """Yield ``(checked, counterexamples)`` of a realization sweep for each n from start to n_hi."""
    for n in range(start, n_hi + 1):
        solutions = [s for s in solutions_gamma2(n, cap=mod2_cap) if 1 in s or not spec.odd_only]
        bad = []
        for s in solutions:
            d = spec.realize(s)
            if not getattr(d.classify(), spec.flag) or d.quiddity_mod2() != s:
                bad.append(f"n={n}: {spec.word} of {format_seq(s)} gave {d!r}")
        yield len(solutions), bad


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

    A counted sweep's claim gives the reasons a class fails: the
    ``MatClass`` of a quiddity's product (mod 2 for thm1i) with its sum.
    The count applies it to the classes of one ``_Counts`` table grown up
    to ``count_cap``; ``checked`` is the count.  A failing class at n <=
    ``polygon_cap`` is named by a walk of the kind that applies it to each
    quiddity, in stream order (thm1i, thm2) or sorted (thm3), and a count
    the walk misses is a counterexample; past that cap a class is named by
    its count.  The converse of thm2 and thm3, for n <= ``converse_hi``,
    applies it to each integer-search result (entries up to n - 2) with the
    class of its sign, names each that holds but was not listed, and adds
    the number of results to ``checked``.  Bounds and caps are read with
    ``operator.index``; a range holding no n >= 3 raises ``ValueError``,
    and one reaching past a cap raises ``CapExceeded`` before any work.
    """
    spec = _SPECS.get(which)
    if spec is None:
        raise ValueError(f"unknown sweep {which!r}; expected one of {SWEEP_NAMES}")
    n_lo, n_hi, converse_hi, polygon_cap, mod2_cap, int_cap, count_cap = map(
        operator.index, (n_lo, n_hi, converse_hi, polygon_cap, mod2_cap, int_cap, count_cap)
    )
    start = _check_sweep(
        which, n_lo, n_hi, polygon_cap=polygon_cap, mod2_cap=mod2_cap,
        int_cap=int_cap, count_cap=count_cap, converse_hi=converse_hi,
    )
    if isinstance(spec, _Realized):
        per_n = list(_realized(spec, start, n_hi, mod2_cap))
    else:
        per_n = list(_counted(spec, start, n_hi, polygon_cap, int_cap, converse_hi))
    bad = tuple(line for _, lines in per_n for line in lines)
    return SweepReport(which, n_lo, n_hi, sum(checked for checked, _ in per_n), bad)
