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
    DeformationChain,
    deformation_chain,
    homomorphism_defect_chain,
    restrict,
    step_n_pointwise_check,
)
from .diffspace import (
    ConfigError,
    DiffSpace,
    GeneratorFunction,
    Partition,
    Point,
    build_space,
    classes_are_fibers,
    consistent_family,
    hausdorff_relation,
    load_config,
    quotient,
)
from .gallery import gallery, gallery_config
from .groupoid import (
    Groupoid,
    build_groupoid,
)
from .representation import (
    RandomOperator,
    homomorphism_defect,
    represent,
    star_defect,
)
from .vonneumann import (
    MAX_TOTAL_DIM,
    DensityField,
    big_matrix,
    double_commutant,
    expect,
    make_state,
)

__all__ = [
    "AlgebraElement",
    "BaseFunction",
    "ConfigError",
    "DeformationChain",
    "DensityField",
    "Derivation",
    "DiffSpace",
    "GeneratorFunction",
    "Groupoid",
    "Jet",
    "MAX_TOTAL_DIM",
    "Partition",
    "Point",
    "RandomOperator",
    "arrow_basis",
    "big_matrix",
    "build_groupoid",
    "build_space",
    "classes_are_fibers",
    "commutator_apply",
    "commutator_defect",
    "consistent_family",
    "convolve",
    "deformation_chain",
    "double_commutant",
    "expect",
    "from_expression",
    "gallery",
    "gallery_config",
    "hausdorff_relation",
    "homomorphism_defect",
    "homomorphism_defect_chain",
    "involution",
    "leibniz_defect",
    "lift_horizontal",
    "lift_symmetrized",
    "lift_vertical",
    "load_config",
    "make_state",
    "max_diff",
    "module_action",
    "quotient",
    "random_element",
    "represent",
    "restrict",
    "star_defect",
    "step_n_pointwise_check",
    "unit",
]
