"""Exact 2x2 matrix calculus for words in the modular group.

The central object is the left-to-right product

    M(c_1, ..., c_n) = [[c_1, -1], [1, 0]] ... [[c_n, -1], [1, 0]].

``_fold`` computes every such product on a plain int 4-tuple; ``Mat2``
(exact) and ``Mat2Mod`` (residues in ``Z/NZ``) are built only at the API
boundary.  Mod N <= ``_TABLE_BOUND`` it walks ``_steps(N)``, the cached
Cayley table of SL(2, Z/N).  Otherwise ``_kernel`` folds blocks of ``_LEAF``
entries, and the block products are multiplied pairwise in a balanced tree,
so big operands are of equal size (Karatsuba in CPython) and 10^5 entries
take tens of milliseconds, not a second; mod a larger N they are reduced
and multiplied left to right.
Entries, moduli and the sequences frozen by ``as_int_seq``/``as_mod2_seq``
are read with ``operator.index``, so floats and strings raise
``TypeError``.
On top of that sit the classification of a product against ``+Id``/``-Id``,
the congruence test that defines the level-``N`` principal congruence
subgroup, and the rewriting of words in the standard generators ``T``,
``S`` into sequences of positive integers.

Sequences are plain tuples of ints, cyclically indexed where noted; the
indexing convention throughout the package is 1-based, matching the usual
subscripts ``c_1, ..., c_n``.
"""

import enum
import functools
import operator
from dataclasses import dataclass

IntSeq = tuple[int, ...]
Mod2Seq = tuple[int, ...]

__all__ = [
    "IntSeq",
    "Mod2Seq",
    "Mat2",
    "Mat2Mod",
    "MAT_IDENTITY",
    "MAT_MINUS_IDENTITY",
    "MatClass",
    "GroupWord",
    "elementary_matrix",
    "m_product",
    "m_product_mod",
    "classify_pm_identity",
    "in_principal_congruence",
    "is_gamma2_solution",
    "generator_value",
    "word_value",
    "word_to_sequence",
    "parse_word",
    "as_int_seq",
    "as_mod2_seq",
    "parse_int_seq",
    "parse_mod2_seq",
    "format_seq",
    "rotate",
    "rotations",
    "min_rotation",
    "dihedral_min",
]


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 integer matrix [[a, b], [c, d]].

    Entries are ordinary Python ints, so products are exact no matter how
    fast they grow.  Every matrix produced by this module has determinant 1.
    """

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*_mul((self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)))

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def mod(self, modulus: int) -> "Mat2Mod":
        """Project the entries to Z/NZ."""
        return Mat2Mod(self.a, self.b, self.c, self.d, modulus)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


MAT_IDENTITY = Mat2(1, 0, 0, 1)
MAT_MINUS_IDENTITY = Mat2(-1, 0, 0, -1)


@dataclass(frozen=True, slots=True)
class Mat2Mod:
    """2x2 matrix over Z/NZ with entries stored as canonical residues in [0, N)."""

    a: int
    b: int
    c: int
    d: int
    modulus: int

    def __post_init__(self):
        modulus = operator.index(self.modulus)
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {modulus}")
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, operator.index(getattr(self, name)) % modulus)

    @classmethod
    def identity(cls, modulus: int) -> "Mat2Mod":
        return cls(1, 0, 0, 1, modulus)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


class MatClass(enum.Enum):
    """Outcome of comparing a matrix against plus/minus the identity."""

    PLUS_ID = "PlusId"
    MINUS_ID = "MinusId"
    OTHER = "Other"


def elementary_matrix(c: int) -> Mat2:
    """The factor [[c, -1], [1, 0]]; has determinant 1 for every integer c."""
    return Mat2(c, -1, 1, 0)


# entries per leaf of the product tree; a word of at most this many
# entries is a tree of one leaf
_LEAF = 64

_TABLE_BOUND = 8  # largest level with a Cayley table: 2 ms to build at N = 8, 30 ms at 16


@functools.cache
def _steps(modulus: int) -> tuple[tuple, tuple]:
    """SL(2, Z/modulus) as residue 4-tuples, breadth-first from Id = 0, and
    its Cayley table: ``steps[s][r]`` is the index of ``elements[s]`` E(r)."""
    elements, index, steps = [(1, 0, 0, 1)], {(1, 0, 0, 1): 0}, []
    for a, b, c, d in elements:  # grows while it is read: breadth-first
        row = []
        for r in range(modulus):
            g = (a * r + b) % modulus, -a % modulus, (c * r + d) % modulus, -c % modulus
            if g not in index:
                index[g] = len(elements)
                elements.append(g)
            row.append(index[g])
        steps.append(tuple(row))
    return tuple(elements), tuple(steps)


def _kernel(entries) -> tuple[int, int, int, int]:
    """M(entries) over Z as (a, b, c, d), for entries that are ints already."""
    a, b, c, d = 1, 0, 0, 1
    for e in entries:
        a, b = a * e + b, -a
        c, d = c * e + d, -c
    return a, b, c, d


def _mul(x, y) -> tuple[int, int, int, int]:
    """The product of two matrices given as (a, b, c, d) tuples."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _fold(entries, modulus=None) -> tuple[int, int, int, int]:
    """M(entries) as (a, b, c, d), exact if ``modulus`` is None or 0, else as residues mod it."""
    if modulus and modulus <= _TABLE_BOUND:
        elements, steps = _steps(modulus)
        state = 0
        for e in map(operator.index, entries):
            state = steps[state][e % modulus]
        return elements[state]
    entries = tuple(map(operator.index, entries))
    level = [_kernel(entries[i : i + _LEAF]) for i in range(0, len(entries), _LEAF)] or [(1, 0, 0, 1)]
    if modulus:  # past the table: the reduced block products, multiplied left to right
        return functools.reduce(lambda m, x: tuple(v % modulus for v in _mul(m, x)), level, (1, 0, 0, 1))
    while len(level) > 1:
        paired = [_mul(x, y) for x, y in zip(level[::2], level[1::2])]
        level = paired + level[-1:] if len(level) % 2 else paired
    return level[0]


def m_product(seq) -> Mat2:
    """Left-to-right product of elementary factors for the given entries.

    Each block of ``_LEAF`` entries is one ``_kernel`` call; adjacent block
    products are then multiplied pairwise, level by level, keeping their
    left-to-right order.
    """
    entries = tuple(seq)
    if not entries:
        raise ValueError("m_product requires a nonempty sequence")
    return Mat2(*_fold(entries))


def m_product_mod(seq, modulus: int) -> Mat2Mod:
    """Same product in SL(2, Z/modulus), equal to ``m_product(seq).mod(modulus)``.

    No integer grows past the product of one ``_LEAF`` block (see ``_fold``).
    """
    entries = tuple(seq)
    if not entries:
        raise ValueError("m_product_mod requires a nonempty sequence")
    modulus = operator.index(modulus)
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    return Mat2Mod(*_fold(entries, modulus), modulus)


def classify_pm_identity(m: Mat2) -> MatClass:
    """Exact comparison of a matrix against +Id and -Id."""
    if m == MAT_IDENTITY:
        return MatClass.PLUS_ID
    if m == MAT_MINUS_IDENTITY:
        return MatClass.MINUS_ID
    return MatClass.OTHER


def in_principal_congruence(m: Mat2, modulus: int) -> bool:
    """True iff every entry of ``m - Id`` is divisible by ``modulus``."""
    return m.mod(modulus) == Mat2Mod.identity(modulus)


# The six elements of SL(2, F2) as (a, b, c, d) mod 2, and _MOD2_STEPS[s][e]
# is state s times E(e): 0 = Id = (1, 0, 0, 1), 1 = E(0) = (0, 1, 1, 0),
# 2 = E(1) = (1, 1, 1, 0), 3 = E(0)E(1) = (1, 0, 1, 1), 4 = E(1)E(0) =
# (1, 1, 0, 1) and 5 = E(1)E(1) = (0, 1, 1, 1).
_MOD2_STEPS = _steps(2)[1]


def is_gamma2_solution(seq) -> bool:
    """True iff the mod-2 product of the sequence is the identity.

    Entries may be arbitrary integers, read with ``operator.index``; only
    their parities matter, each one step on ``_MOD2_STEPS``.  A length-1
    sequence is never a solution (the product has a 0 in the bottom-right
    corner).
    """
    entries = tuple(seq)
    if not entries:
        raise ValueError("is_gamma2_solution requires a nonempty sequence")
    return _fold(entries, 2) == (1, 0, 0, 1)


# Words in the standard generators.  S^-1 = -S because S^2 = -Id, which is
# why its positive-entry expression reuses the one for S with opposite sign.

_GENERATOR_MATRICES = {
    "T": Mat2(1, 1, 0, 1),
    "T^-1": Mat2(1, -1, 0, 1),
    "S": Mat2(0, -1, 1, 0),
    "S^-1": Mat2(0, 1, -1, 0),
}

_GENERATOR_SEQUENCES = {
    "T": (-1, (2, 1, 1)),
    "T^-1": (-1, (1, 1, 2, 1)),
    "S": (-1, (1, 1, 2, 1, 1)),
    "S^-1": (1, (1, 1, 2, 1, 1)),
}


@dataclass(frozen=True, slots=True)
class GroupWord:
    """A word over {T, T^-1, S, S^-1} together with a global sign."""

    sign: int = 1
    letters: tuple[str, ...] = ()

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        for letter in self.letters:
            if letter not in _GENERATOR_MATRICES:
                raise ValueError(f"unknown generator letter {letter!r}")


def generator_value(letter: str) -> Mat2:
    """The standard matrix of a generator letter."""
    try:
        return _GENERATOR_MATRICES[letter]
    except KeyError:
        raise ValueError(f"unknown generator letter {letter!r}") from None


def word_value(word: GroupWord) -> Mat2:
    """Evaluate a word to its matrix."""
    m = MAT_IDENTITY
    for letter in word.letters:
        m = m * _GENERATOR_MATRICES[letter]
    return m if word.sign == 1 else -m


def word_to_sequence(word: GroupWord) -> tuple[int, IntSeq]:
    """Rewrite a word as ``(sign, seq)`` with ``sign * m_product(seq)`` its value.

    Plain concatenation of the per-letter expressions with sign
    accumulation; no simplification of the resulting sequence is attempted.
    The empty word maps to ``(-sign, (1, 1, 1))`` since the length-3 run of
    ones multiplies to -Id.
    """
    sign = word.sign
    parts: list[int] = []
    for letter in word.letters:
        letter_sign, letter_seq = _GENERATOR_SEQUENCES[letter]
        sign *= letter_sign
        parts.extend(letter_seq)
    if not parts:
        return -word.sign, (1, 1, 1)
    return sign, tuple(parts)


def parse_word(text: str) -> GroupWord:
    """Parse a compact word such as ``TS``, ``-T^-1S`` or ``T S' T``.

    An inverse is written ``^-1`` or ``'`` right after its letter; a leading
    ``-`` flips the global sign; whitespace is ignored.
    """
    rest = text.strip()
    sign = 1
    while rest.startswith("-"):
        sign = -sign
        rest = rest[1:].lstrip()
    letters: list[str] = []
    i = 0
    while i < len(rest):
        ch = rest[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in ("T", "S"):
            raise ValueError(f"unexpected character {ch!r} in word {text!r}")
        i += 1
        if rest[i : i + 3] == "^-1":
            letters.append(ch + "^-1")
            i += 3
        elif rest[i : i + 1] == "'":
            letters.append(ch + "^-1")
            i += 1
        else:
            letters.append(ch)
    return GroupWord(sign, tuple(letters))


def as_int_seq(entries) -> IntSeq:
    """Validate and freeze a sequence of positive integers (read with ``operator.index``)."""
    seq = tuple(map(operator.index, entries))
    if not seq:
        raise ValueError("sequence must be nonempty")
    if min(seq) < 1:
        raise ValueError(f"entries must be positive integers, got {seq}")
    return seq


def as_mod2_seq(entries) -> Mod2Seq:
    """Validate and freeze a sequence over {0, 1} (read with ``operator.index``)."""
    seq = tuple(map(operator.index, entries))
    if not seq:
        raise ValueError("sequence must be nonempty")
    if not {0, 1}.issuperset(seq):
        raise ValueError(f"entries must be 0 or 1, got {seq}")
    return seq


def _decimal(text: str) -> str:
    """``text`` if ASCII with no "_": ``int`` then reads [+-]?[0-9]+ only, not "1_0" or other scripts' digits."""
    if not text.isascii() or "_" in text:
        raise ValueError("entries must be ASCII decimal integers")
    return text


def parse_int_seq(text: str) -> IntSeq:
    """Parse a comma-separated sequence of positive integers, e.g. ``1,3,1,2,2``."""
    try:
        return as_int_seq(int(part.strip()) for part in _decimal(text).split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse integer sequence {text!r}: {exc}") from None


def parse_mod2_seq(text: str) -> Mod2Seq:
    """Parse a comma-separated sequence over {0, 1}, e.g. ``0,1,0,1``."""
    try:
        return as_mod2_seq(int(part.strip()) for part in _decimal(text).split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse mod-2 sequence {text!r}: {exc}") from None


def format_seq(seq) -> str:
    """Comma-separated entries, read with ``operator.index`` (bools print as 1/0)."""
    return ",".join(map(str, map(operator.index, seq)))


def rotate(seq: tuple, k: int) -> tuple:
    """Cyclic left rotation by k positions."""
    seq = tuple(seq)
    if not seq:
        return seq
    k %= len(seq)
    return seq[k:] + seq[:k]


def rotations(seq: tuple) -> list[tuple]:
    seq = tuple(seq)
    return [rotate(seq, k) for k in range(len(seq))]


def min_rotation(seq: tuple) -> tuple:
    """Lexicographically minimal rotation; canonical cyclic representative."""
    return min(rotations(seq), default=())


def dihedral_min(seq: tuple) -> tuple:
    """Canonical representative under rotation and reflection."""
    seq = tuple(seq)
    return min(min_rotation(seq), min_rotation(seq[::-1]))
