"""Exact computation with left orderings of groups.

Order oracles for flag orderings of Z^n and the Dehornoy ordering of braid
groups, the bracketing quasimorphism of an anchored ordering and its
translation numbers, rotation-class invariants, ordering construction from
prescribed translation data, convexity certificates for abelian subgroups,
and dynamical realizations on the line and circle.
"""

from .exactreal import (
    ONE,
    ZERO,
    RealConstant,
    combine,
    div_by_rational,
    linear_combination,
    mod_one,
    q_rank,
)
from .groups import (
    BraidWord,
    GroupRef,
    LatticeElement,
    full_twist,
    half_twist,
    parse_element,
)
from .orderings import (
    Cone,
    Decision,
    DehornoyOrdering,
    Density,
    FlagOrdering,
    act,
    axioms_check,
    compare,
    cone_sign,
    is_cofinal,
    is_dense,
    is_right_invariant,
    level_kernels,
    ordering_from_json,
    ordering_to_json,
)
from .quasimorph import (
    AnchorContext,
    StableValue,
    defect_cocycle,
    power_floor,
    stable_approx,
    stable_enclosure,
    stable_exact,
    stable_map_properties,
)
from .cohmaps import (
    RotationClass,
    SikoraPoint,
    TranslationValues,
    construct_from_translations,
    is_realizable,
    naturality_check,
    rotation_class,
    sikora_coordinate,
    slope_of,
    translation_values,
)
from .convexity import (
    ExponentMatrix,
    WordExpression,
    brute_convex,
    check_convex,
    nesting_check,
    word_constraints,
)
from .dynamics import (
    RealizationTable,
    SampledCircleAction,
    ball_enumeration,
    circle_action_for_samples,
    circle_action_from_ball,
    dynamically_equivalent,
    euler_cocycle_survey,
    euler_identity_check,
    partial_action_check,
    realize,
    unit_translation_check,
)

__version__ = "0.1.0"
