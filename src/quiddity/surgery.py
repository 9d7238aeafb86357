"""Local surgery on sequences, the level-2 decision procedure, and realization.

Two families of rewrites act on sequences.  Over the integers:

  alpha: (c_1,...,c_i, c_{i+1},...,c_n) -> (c_1,...,c_i+1, 1, c_{i+1}+1,...,c_n)
  beta:  replaces c_i by (c', 1, 1, c'') where c' + c'' = c_i + 1

``alpha`` leaves the matrix product unchanged and ``beta`` flips its sign.
Over Z/2Z the analogues are ``op_a`` (insert a 1-bar, bumping both cyclic
neighbors) and ``op_b`` (insert a 0-bar, 0-bar pair); both preserve the
mod-2 product, hence solution status.  Combinatorially, ``op_a`` glues a
triangle onto a boundary edge and ``op_b`` glues a quadrilateral.

Running the inverses of ``op_a``/``op_b`` with a fixed pivot rule shrinks
any sequence to a short remainder; a sequence is a solution exactly when
the remainder is (0,0) or (1,1,1).  This is Conway--Coxeter ear cutting:
each inverse-a step cuts a triangle off the polygon and each inverse-b
step a quadrilateral, and the chord it cuts along, read off as the
reduction runs, is a diagonal of a dissection into triangles and
quadrilaterals whose parity quiddity is the sequence.

The reduction is linear.  With the smallest-1 pivot every entry before
the pivot is 0, and each cut makes the pivot's left neighbour the next
pivot, so ``_reduce`` cuts a run of zeros and the 1 after it in one step
of a left-to-right scan over the input, which deletes nothing and keeps
two pending flips.  A run whose last cut, round the wrap, would leave
fewer than 3 entries, or with ``keep_odd`` no 1, gets only its cuts before
that one, and ``_close`` cuts what is left one ear at a time, each near an
end of its lists.  A cut entry has never moved, so its chord is read off
as a pair of input positions, the final labels.  The chords are sorted once;
``Dissection._trusted`` takes them with no check, and one ``validate``
of the finished dissection, repeats included, stands for every
intermediate polygon, a sub-dissection of it.  Step indices count
1-based from the start of the sequence.

Matrix invariance of ``alpha``/``op_a`` is a local two-factor identity, so
it holds for insertion positions 1 <= i <= n-1; at the wrap position i = n
only the (cyclically invariant) solution status survives.  The degenerate
n = 1 case materializes the single wrapped neighbor twice:
alpha((c,), 1) = (c+1, 1, c+1).
"""

import operator
from dataclasses import dataclass
from itertools import repeat

from .algebra import (
    IntSeq,
    Mod2Seq,
    as_int_seq,
    as_mod2_seq,
    format_seq,
    is_gamma2_solution,
    parse_mod2_seq,
)
from .dissections import Dissection

__all__ = [
    "SurgeryError",
    "TooShort",
    "PivotNotOne",
    "PairNotZero",
    "NotASolution",
    "AllEven",
    "InvalidSplit",
    "SurgeryStep",
    "SurgeryTrace",
    "ReduceResult",
    "alpha",
    "beta",
    "op_a",
    "op_b",
    "inv_a",
    "inv_b",
    "apply_step",
    "reduce_to_base",
    "replay_trace",
    "realize_dissection",
    "realize_triangulation",
    "trace_to_json_dict",
    "trace_from_json_dict",
]


class SurgeryError(ValueError):
    """Invalid surgery operation."""


class TooShort(SurgeryError):
    pass


class PivotNotOne(SurgeryError):
    pass


class PairNotZero(SurgeryError):
    pass


class InvalidSplit(SurgeryError):
    pass


class NotASolution(SurgeryError):
    """The sequence is not a level-2 solution; carries the terminal remainder."""

    def __init__(self, remainder: Mod2Seq):
        self.remainder = tuple(remainder)
        super().__init__(f"not a solution: reduces to {format_seq(self.remainder)}, expected 0,0 or 1,1,1")


class AllEven(SurgeryError):
    pass


@dataclass(frozen=True, slots=True)
class SurgeryStep:
    """One rewrite: kind in {"A", "B", "InvA", "InvB"}, 1-based index.

    For an ``InvA`` step the index is the pivot position that was removed;
    for ``InvB`` the position of the first removed zero.
    """

    kind: str
    index: int


@dataclass(frozen=True, slots=True)
class SurgeryTrace:
    """Reduction log: ``steps`` in the order applied, ending at ``base``.

    Replaying the steps from the base (inverting them last-to-first)
    reproduces the original sequence exactly; see ``replay_trace``.
    """

    base: Mod2Seq
    steps: tuple[SurgeryStep, ...]


@dataclass(frozen=True, slots=True)
class ReduceResult:
    is_solution: bool
    trace: SurgeryTrace | None
    remainder: Mod2Seq


def _check_index(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")


def alpha(seq, i: int) -> IntSeq:
    """Insert a 1 after position i (cyclic), adding 1 to both neighbors.

    Leaves ``m_product`` unchanged for 1 <= i <= n-1; at i = n the result
    is the cyclic wrap insertion, which preserves solution status but not
    the matrix itself.
    """
    s = as_int_seq(seq)
    n = len(s)
    _check_index(i, n)
    if n == 1:
        return (s[0] + 1, 1, s[0] + 1)
    if i == n:
        return (s[0] + 1,) + s[1 : n - 1] + (s[n - 1] + 1, 1)
    return s[: i - 1] + (s[i - 1] + 1, 1, s[i] + 1) + s[i + 1 :]


def beta(seq, i: int, split: tuple[int, int] | None = None) -> IntSeq:
    """Replace c_i by (c', 1, 1, c'') with c' + c'' = c_i + 1; flips the sign.

    The default split is ``(c_i, 1)``.  The result has length n + 3 and
    ``m_product`` equal to minus that of the input.  A split has exactly
    two parts, each read with ``operator.index``.
    """
    s = as_int_seq(seq)
    n = len(s)
    _check_index(i, n)
    c = s[i - 1]
    split = (c, 1) if split is None else tuple(split)
    if len(split) != 2:
        raise InvalidSplit(f"split {split} must have exactly two parts")
    left, right = map(operator.index, split)
    if left < 1 or right < 1 or left + right != c + 1:
        raise InvalidSplit(f"split {split} invalid for entry {c}: parts must be positive and sum to {c + 1}")
    return s[: i - 1] + (left, 1, 1, right) + s[i:]


_BASES = ((0, 0), (1, 1, 1))

# a step of kind _STEP_KINDS[k - 1] replays as k inserted vertices: a (k+2)-gon
_STEP_KINDS = ("InvA", "InvB")

# shorter words skip the scan of ``_reduce``: one cut at a time is cheaper there
_SCAN_MIN = 12


def _reduce(bits: Mod2Seq, keep_odd: bool, chords: bool = False) -> tuple[list[tuple[int, int]], Mod2Seq]:
    """Apply inverse surgeries until length <= 3 or no pivot is usable.

    The pivot rule: the smallest 1 (``reduce_to_base``), or with
    ``keep_odd`` the smallest 1 whose removal leaves some 1
    (``realize_triangulation``); with no 1 left, the 0, 0 pair at index 1
    goes.  Returns the steps applied as (k, 1-based index) pairs, k = 1 for
    inverse-a and k = 2 for inverse-b, and the remainder.

    With ``chords`` it returns instead each cut's chord as a (min, max) pair
    of 1-based input positions: inverse-a cuts a triangle along the pivot's
    neighbours, inverse-b a quadrilateral along the pair's outer neighbours,
    and the last quadrilateral, cut to (0, 0), has no chord.

    One left-to-right scan over ``bits`` does most of the work.  Every
    entry left of the smallest 1 is 0, so with zeros at input positions
    c..q-1 (0-based) and the pivot at q, each cut makes the pivot's left
    neighbour the next pivot, and the run goes in q - c + 1 cuts: steps
    (1, q - c + 1), ..., (1, 1), chords (z + 1, q + 2) for z = q - 1 down
    to c, then (q + 2, n), where the last cut wraps to the last entry.
    Entry q + 1 is flipped once per cut and the last entry once, so the
    scan keeps a cursor and those two pending flips and deletes nothing.
    It looks for the pivot up to index n - 2 and makes every cut on at
    least 4 entries.  A run whose wrapping cut would leave fewer than 3
    entries (pivot at n - 3 or n - 2), or with ``keep_odd`` no 1, gets only
    its first k = min(t, n - c - 3) cuts, t = q - c, and the scan stops.
    Only the wrapping cut can leave no 1: every other cut's left neighbour
    is a 0, which becomes the next pivot.  So with ``keep_odd`` the scan
    keeps the count of ones, and ``ones + (b ^ head) - b - 2 * last == 0``
    tells exactly when that cut leaves none.  ``_close`` takes what is left
    with the input positions of its entries, and all of a word shorter than
    ``_SCAN_MIN``.
    """
    n = len(bits)
    if n < _SCAN_MIN:
        return _close(list(reversed(bits)), list(range(n, 0, -1)) if chords else None, keep_odd, [])
    out = []
    add, extend = out.append, out.extend
    c = head = 0  # the sequence is bits[c:] with head added to its first entry
    last = bits[-1]  # and its last entry, flipped once per run
    ones = sum(bits)  # kept up to date only with keep_odd
    stop = n - 4  # the last pivot position whose run ends on 4 entries
    k = -1  # the cuts made of a run that stops before its wrapping cut
    while c <= stop:
        if bits[c] ^ head:
            q = c
        else:
            try:
                q = bits.index(1, c + 1, n - 1)
            except ValueError:
                break
        t = q - c
        head = (t + 1) & 1
        if keep_odd and q <= stop:
            b = bits[q + 1]
            ones += (b ^ head) - b - 2 * last
        if q > stop or keep_odd and not ones:  # the wrapping cut would leave < 3 entries or no 1
            k = min(t, n - c - 3)
            if chords:
                extend(zip(range(q, q - k, -1), repeat(q + 2)))
            else:
                extend(zip(repeat(1), range(t + 1, t + 1 - k, -1)))
            break
        last ^= 1
        if chords:
            if t == 1:
                add((q, q + 2))
            elif t:
                extend(zip(range(q, c, -1), repeat(q + 2)))
            add((q + 2, n))
        else:
            if t == 1:
                add((1, 2))
            elif t:
                extend(zip(repeat(1), range(t + 1, 1, -1)))
            add((1, 1))
        c = q + 1
    if k < 0:
        r = list(reversed(bits[c:]))
        r[-1] ^= head
        r[0] = last
        lab = list(range(n, c, -1)) if chords else None
    else:
        # entries c..q-k-1 are 0, q-k is the next pivot and q+1 was flipped k times
        r = [*bits[:q:-1], 1, *repeat(0, q - k - c)]
        r[0] = last
        r[n - q - 2] ^= k & 1
        lab = [*range(n, q + 1, -1), *range(q - k + 1, c, -1)] if chords else None
    return _close(r, lab, keep_odd, out)


def _close(r: list[int], lab: list[int] | None, keep_odd: bool, out: list) -> tuple[list[tuple[int, int]], Mod2Seq]:
    """Finish ``_reduce`` one cut at a time on what its scan left of the input.

    This phase takes the cuts the scan leaves: at most 3 entries; a
    sequence whose only 1, if any, is its last entry, which wraps round to
    the first, and without a 1 loses its 0, 0 pair at index 1; and with
    ``keep_odd`` the shape (1, 1, 0, ..., 0, 1), whose first 1 would leave
    none and is skipped.  Each of these is cut near an end of the lists.
    Words shorter than ``_SCAN_MIN`` come whole.  Steps and chords go on
    ``out``, numbered as in ``_reduce``; returns ``out`` and the remainder.

    The list ``r`` holds that sequence reversed: entry i (0-based) of the
    sequence is ``r[m - 1 - i]``, so its cyclic left neighbour is
    ``r[(j + 1) % m]`` and its right neighbour ``r[j - 1]`` for j = m - 1 - i.
    The list ``lab`` holds each entry's 1-based input position beside it
    when chords are wanted, and is None otherwise.  Reversed, because an
    all-zero word reaches this phase whole (the scan finds no pivot) and
    each cut removes the 0, 0 pair at index 1, which here is
    ``del r[-2:]``.  In input order each cut would move every later
    entry, a quadratic reduction: on 1e5 zeros those deletes alone take
    0.45 s, the whole realization 0.04 s (2-core x86-64, Python 3.11.7).
    """
    m = len(r)
    ones = sum(r)
    p = m - 1  # every entry after index p is 0
    while m > 3:
        if not ones:
            if lab is None:
                out.append((2, 1))
            elif m > 4:  # at m = 4 the whole quadrilateral goes, and the loop ends
                out.append((lab[-3], lab[0]))
                del lab[-2:]
            del r[-2:]
            m -= 2
            continue
        while not r[p]:
            p -= 1
        j = p
        # with keep_odd, skip 1s whose removal (neighbours flipped) leaves no 1,
        # which needs ones + 1 - 2 * (a + b) == 0, so ones <= 3
        while keep_odd and ones < 4 and j >= 0 and not (r[j] and ones + 1 - 2 * (r[(j + 1) % m] + r[j - 1])):
            j -= 1
        if j < 0:
            break
        left = j + 1 if j + 1 < m else 0
        a, b = r[left], r[j - 1]
        ones += 1 - 2 * (a + b)
        r[left], r[j - 1] = 1 - a, 1 - b
        del r[j]
        if lab is None:
            out.append((1, m - j))
        else:
            a, b = lab[left], lab[j - 1]
            out.append((a, b) if a < b else (b, a))
            del lab[j]
        m -= 1
        if j == 0 or p == m:
            p = m - 1
    return out, tuple(reversed(r))


def _replay(base: Mod2Seq, steps) -> Mod2Seq:
    """Per (k, pos) step insert a 1 and flip its neighbours (k = 1) or 0, 0 (k = 2).

    Entries go in at 1-based ``pos`` in 1..m+1, between the old cyclic
    neighbours at 0-based pos - 2 and pos - 1; reversed as in ``_reduce``,
    that is at ``m + 1 - pos``.
    """
    r = list(reversed(base))
    m = len(r)
    for k, pos in steps:
        if not 1 <= pos <= m + 1:
            raise SurgeryError(f"insertion position {pos} out of range 1..{m + 1}")
        at = m + 1 - pos
        if k == 1:
            r[at if at < m else 0] ^= 1
            r[at - 1] ^= 1
            r.insert(at, 1)
        else:
            r[at:at] = (0, 0)
        m += k
    r.reverse()
    return tuple(r)


def op_a(seq, i: int) -> Mod2Seq:
    """Mod-2 triangle gluing: insert a 1 after position i, flipping neighbors."""
    s = as_mod2_seq(seq)
    n = len(s)
    _check_index(i, n)
    if n == 1:
        return ((s[0] + 1) % 2, 1, (s[0] + 1) % 2)
    return _replay(s, [(1, i + 1)])


def op_b(seq, i: int) -> Mod2Seq:
    """Mod-2 quadrilateral gluing: insert 0, 0 after position i."""
    s = as_mod2_seq(seq)
    _check_index(i, len(s))
    return _replay(s, [(2, i + 1)])


def inv_a(seq, i: int) -> Mod2Seq:
    """Remove the 1 at position i and flip both cyclic neighbors."""
    s = as_mod2_seq(seq)
    n = len(s)
    if n < 3:
        raise TooShort(f"need length >= 3 to remove a pivot, got {n}")
    _check_index(i, n)
    if s[i - 1] != 1:
        raise PivotNotOne(f"entry {i} of {format_seq(s)} is not 1")
    t = list(s)
    t[(i - 2) % n] ^= 1
    t[i % n] ^= 1
    del t[i - 1]
    return tuple(t)


def inv_b(seq, i: int) -> Mod2Seq:
    """Remove the 0, 0 pair at cyclic positions i, i+1."""
    s = as_mod2_seq(seq)
    n = len(s)
    if n < 3:
        raise TooShort(f"need length >= 3 to remove a pair, got {n}")
    _check_index(i, n)
    j = i % n + 1
    if s[i - 1] != 0 or s[j - 1] != 0:
        raise PairNotZero(f"entries {i},{j} of {format_seq(s)} are not 0,0")
    if i == n:
        return s[1 : n - 1]
    return s[: i - 1] + s[i + 1 :]


def apply_step(seq, step: SurgeryStep):
    """Apply a single surgery step by kind at its index."""
    ops = {"A": op_a, "B": op_b, "InvA": inv_a, "InvB": inv_b}
    if step.kind not in ops:
        raise SurgeryError(f"unknown step kind {step.kind!r}")
    return ops[step.kind](seq, step.index)


def reduce_to_base(seq) -> ReduceResult:
    """Shrink a mod-2 sequence to a terminal remainder and decide solubility.

    While n > 3: remove the 1 at the smallest index if any, else remove the
    0, 0 pair at index 1.  The input is a solution exactly when the
    remainder is (0, 0) or (1, 1, 1); a length-1 remainder always rejects.
    Rejection is a result, not an error.
    """
    steps, rest = _reduce(as_mod2_seq(seq), keep_odd=False)
    if rest not in _BASES:
        return ReduceResult(False, None, rest)
    # pivots sit near the start, so few steps are distinct: build each once
    made = {(k, i): SurgeryStep(_STEP_KINDS[k - 1], i) for k, i in set(steps)}
    trace = SurgeryTrace(rest, tuple(map(made.__getitem__, steps)))
    return ReduceResult(True, trace, rest)


def replay_trace(trace: SurgeryTrace) -> Mod2Seq:
    """Rebuild the reduced sequence from the base by inverting the log.

    Each ``InvA`` step is undone by re-inserting a 1 at its recorded
    position (neighbors flipped); each ``InvB`` step by re-inserting the
    0, 0 pair.  Steps are undone last-to-first.
    """
    steps = []
    for step in reversed(trace.steps):
        if step.kind not in _STEP_KINDS:
            raise SurgeryError(f"cannot replay step kind {step.kind!r}")
        steps.append((_STEP_KINDS.index(step.kind) + 1, step.index))
    return _replay(as_mod2_seq(trace.base), steps)


def trace_to_json_dict(trace: SurgeryTrace) -> dict:
    steps = [{"kind": step.kind, "index": step.index} for step in trace.steps]
    return {"schema": 1, "base": format_seq(trace.base), "steps": steps}


def trace_from_json_dict(data: dict) -> SurgeryTrace:
    """Parse a trace object; it is replayed once, so every index is in range."""
    if not isinstance(data, dict):
        raise SurgeryError("trace JSON must be an object")
    schema = data.get("schema", 1)
    if type(schema) is not int or schema != 1:
        raise SurgeryError(f"unsupported schema {schema!r}")
    try:
        base_text, entries = data["base"], data["steps"]
    except KeyError as exc:
        raise SurgeryError(f"trace JSON missing key {exc}") from None
    if not isinstance(base_text, str) or not isinstance(entries, list):
        raise SurgeryError("'base' must be a 0/1 string and 'steps' a list")
    try:
        base = parse_mod2_seq(base_text)
    except ValueError as exc:
        raise SurgeryError(str(exc)) from None
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and entry.keys() == {"kind", "index"}
            and entry["kind"] in _STEP_KINDS
            and type(entry["index"]) is int
        ):
            raise SurgeryError(f"bad trace step {entry!r}: need kind InvA or InvB and an int index")
    trace = SurgeryTrace(base, tuple(SurgeryStep(e["kind"], e["index"]) for e in entries))
    replay_trace(trace)
    return trace


def _realize(seq, triangulate: bool) -> Dissection:
    """Cut ``seq`` down to its base one ear at a time, reading off each ear's chord.

    ``_reduce`` cuts the ears: its scan takes each run of zeros and the 1
    after it in one step, and its closing phase what the scan leaves one
    cut at a time, where a cut may wrap round, an all-zero sequence loses
    its 0, 0 pair at index 1 (a quadrilateral, with no chord when it is the
    last cell) and, for a triangulation, a 1 whose removal would leave no 1
    is skipped.  A triangulation reduces with ``keep_odd``, so
    ``is_gamma2_solution`` decides first; only a non-solution runs the
    smallest-1 reduction, whose remainder ``NotASolution`` names.  The
    chords go sorted to the unchecked ``Dissection._trusted``, and one
    ``validate`` then checks the whole result, a repeated pair included.
    """
    s = as_mod2_seq(seq)
    if len(s) < 3:
        raise TooShort(f"need length >= 3 to realize a polygon, got {len(s)}")
    if triangulate:
        if not is_gamma2_solution(s):
            raise NotASolution(_reduce(s, keep_odd=False)[1])
        if 1 not in s:
            raise AllEven(f"{format_seq(s)} has no odd entry; no triangulation exists")
        chords, base = _reduce(s, keep_odd=True, chords=True)
        if base != (1, 1, 1):
            raise SurgeryError(f"descent ended at {format_seq(base)} instead of 1,1,1")
    else:
        chords, base = _reduce(s, keep_odd=False, chords=True)
        if base not in _BASES:
            raise NotASolution(base)
    chords.sort()
    d = Dissection._trusted(len(s), tuple(chords))
    d.validate()
    return d


def realize_dissection(seq) -> Dissection:
    """Build a triangle/quadrilateral dissection whose parity quiddity is ``seq``.

    Conway--Coxeter ear cutting: each inverse surgery of the smallest-1
    reduction cuts one cell off the polygon, a triangle per inverse-a step
    and a quadrilateral per inverse-b step, and its chord is a diagonal.
    The cell left at the end, the triangle of base (1,1,1) or the last
    quadrilateral before base (0,0), has no chord of its own.  The quiddity
    equality is exact on labels, not just up to rotation.
    """
    return _realize(seq, triangulate=False)


def realize_triangulation(seq) -> Dissection:
    """Build a triangulation whose parity quiddity is ``seq``.

    Requires a solution with at least one odd entry.  Ears are cut at the
    smallest index holding a 1 whose removal does not leave an all-zero
    sequence; when the first candidate fails, the entry right after it is
    also a 1 and succeeds, so every cell is a triangle and the descent
    always reaches (1, 1, 1).
    """
    return _realize(seq, triangulate=True)
