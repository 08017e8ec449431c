"""Groupoid convolution algebras on finite differential spaces.

The pipeline: a finite measured point set with generating functions
(:mod:`~ncgroupoid.diffspace`) induces a gluing relation whose pair
groupoid (:mod:`~ncgroupoid.groupoid`) carries a convolution *-algebra
with first-order jets (:mod:`~ncgroupoid.algebra`).  Derivations of the
base lift to that algebra (:mod:`~ncgroupoid.calculus`); the algebra
acts fiberwise as a measurable field of matrices
(:mod:`~ncgroupoid.representation`); states and commutant closures turn
the fields into a noncommutative probability space
(:mod:`~ncgroupoid.vonneumann`); and the deformation chain walks from
the fully glued structure to the fully resolved one
(:mod:`~ncgroupoid.deform`).
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    BaseFunction,
    Jet,
    arrow_basis,
    convolve,
    from_expression,
    involution,
    max_diff,
    module_action,
    random_element,
    unit,
)
from .calculus import (
    Derivation,
    commutator_apply,
    commutator_defect,
    leibniz_defect,
    lift_horizontal,
    lift_symmetrized,
    lift_vertical,
)
from .deform import (
    ChainLevel,
    ChainReport,
    DeformationChain,
    StepNReport,
    deformation_chain,
    homomorphism_defect_chain,
    restrict,
    step_n_pointwise_check,
)
from .diffspace import (
    ConfigError,
    ConsistencyReport,
    DiffSpace,
    GeneratorFunction,
    Partition,
    Point,
    QuotientResult,
    build_space,
    classes_are_fibers,
    consistent_family,
    hausdorff_relation,
    load_config,
    load_space,
    quotient,
)
from .gallery import gallery, gallery_config
from .groupoid import (
    Arrow,
    FiberReport,
    Groupoid,
    build_groupoid,
    compose,
    fibers,
    inverse,
    is_transitive,
)
from .representation import (
    FiberSpace,
    RandomOperator,
    RandomOperatorReport,
    fiber_space,
    homomorphism_defect,
    random_operator_report,
    represent,
    star_defect,
)
from .vonneumann import (
    MAX_TOTAL_DIM,
    BicommutantReport,
    DensityField,
    NCProbabilitySpace,
    OperatorBasis,
    State,
    StateReport,
    big_matrix,
    commutant,
    double_commutant,
    expect,
    make_state,
)

__all__ = [
    "AlgebraElement",
    "Arrow",
    "BaseFunction",
    "BicommutantReport",
    "ChainLevel",
    "ChainReport",
    "ConfigError",
    "ConsistencyReport",
    "DeformationChain",
    "DensityField",
    "Derivation",
    "DiffSpace",
    "FiberReport",
    "FiberSpace",
    "GeneratorFunction",
    "Groupoid",
    "Jet",
    "MAX_TOTAL_DIM",
    "NCProbabilitySpace",
    "OperatorBasis",
    "Partition",
    "Point",
    "QuotientResult",
    "RandomOperator",
    "RandomOperatorReport",
    "State",
    "StateReport",
    "StepNReport",
    "arrow_basis",
    "big_matrix",
    "build_groupoid",
    "build_space",
    "classes_are_fibers",
    "commutant",
    "commutator_apply",
    "commutator_defect",
    "compose",
    "consistent_family",
    "convolve",
    "deformation_chain",
    "double_commutant",
    "expect",
    "fiber_space",
    "fibers",
    "from_expression",
    "gallery",
    "gallery_config",
    "hausdorff_relation",
    "homomorphism_defect",
    "homomorphism_defect_chain",
    "inverse",
    "involution",
    "is_transitive",
    "leibniz_defect",
    "lift_horizontal",
    "lift_symmetrized",
    "lift_vertical",
    "load_config",
    "load_space",
    "make_state",
    "max_diff",
    "module_action",
    "quotient",
    "random_element",
    "random_operator_report",
    "represent",
    "restrict",
    "star_defect",
    "step_n_pointwise_check",
    "unit",
]
