"""Exact combinatorics of 2x2 matrix words over the integers and Z/2Z.

The package computes products of elementary matrices [[c, -1], [1, 0]],
decides membership in the level-2 principal congruence subgroup, relates
mod-2 solutions to dissections of convex polygons into triangles and
quadrilaterals via local surgery, builds frieze patterns from triangulation
quiddities, and ships exhaustive desk-scale verification sweeps plus a CLI.
"""

from .algebra import (
    GroupWord,
    IntSeq,
    MAT_IDENTITY,
    MAT_MINUS_IDENTITY,
    Mat2,
    Mat2Mod,
    MatClass,
    Mod2Seq,
    as_int_seq,
    as_mod2_seq,
    classify_pm_identity,
    dihedral_min,
    elementary_matrix,
    format_seq,
    generator_value,
    in_principal_congruence,
    is_gamma2_solution,
    m_product,
    m_product_mod,
    min_rotation,
    parse_int_seq,
    parse_mod2_seq,
    parse_word,
    rotate,
    rotations,
    word_to_sequence,
    word_value,
)
from .dissections import (
    CapExceeded,
    CrossingDiagonals,
    DEFAULT_POLYGON_CAP,
    DiagonalOutOfRange,
    Dissection,
    DissectionError,
    DissectionFlags,
    SideAsDiagonal,
    enumerate_dissections,
)
from .enumeration import (
    DEFAULT_INT_CAP,
    DEFAULT_MOD2_CAP,
    SWEEP_NAMES,
    SolutionReport,
    SweepReport,
    cyclic_classes,
    entries_one_check,
    jacobsthal_count,
    solution_report,
    solutions_gamma2,
    solutions_pm_identity,
    theorem_sweep,
)
from .frieze import (
    BorderViolation,
    DiamondViolation,
    FriezeError,
    FriezePattern,
    NonIntegralEntry,
    NonPositiveEntry,
    build_frieze,
    coxeter_row_check,
    frieze_to_json_dict,
    render_text,
    sum_condition,
    validate_frieze,
)
from .surgery import (
    AllEven,
    InvalidSplit,
    NotASolution,
    PairNotZero,
    PivotNotOne,
    ReduceResult,
    SurgeryError,
    SurgeryStep,
    SurgeryTrace,
    TooShort,
    alpha,
    apply_step,
    beta,
    inv_a,
    inv_b,
    op_a,
    op_b,
    realize_dissection,
    realize_triangulation,
    reduce_to_base,
    replay_trace,
    trace_from_json_dict,
    trace_to_json_dict,
)

__version__ = "0.1.0"
