"""The deformation chain: resolving a space coordinate by coordinate.

Level 0 carries the constants-only structure, which glues everything into
one class; level k carries the first k coordinate projections pi1..pik;
level n (the space dimension) separates any two points with distinct
coordinates.  The projections are synthesized from the coordinates, so
the chain is a property of the measured point set alone, independent of
whatever generator family the space was built with.

Walking down the chain, the gluing relations refine and the groupoids
shrink (arrow sets nest).  Restriction of an arrow function to the next
level is literal: keep the values on the arrows that survive.  It is NOT
multiplicative in general, because the convolution sum loses the terms
that ran over the larger class; :func:`homomorphism_defect_chain`
measures exactly that loss.  At the top level every class is a single
point (when coordinates are distinct), and convolution degenerates to
the weighted pointwise product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, convolve, max_diff
from .diffspace import (
    DiffSpace,
    GeneratorFunction,
    Partition,
    classes_are_fibers,
    hausdorff_relation,
)
from .groupoid import Groupoid, build_groupoid


@dataclass(frozen=True)
class ChainLevel:
    """One rung: the structure C_k, its gluing relation, and its groupoid."""

    k: int
    space: DiffSpace
    partition: Partition
    groupoid: Groupoid


@dataclass(frozen=True)
class ChainReport:
    """Structural checks over the whole chain; computed, not assumed.

    ``fibers_exact`` records that every class at every level is exactly a
    fiber of the evaluated projection tuple, the finite-level form of
    measurability of the classes.  ``top_is_diagonal`` can legitimately be
    False when two points share all coordinates.
    """

    block_counts: tuple[int, ...]
    arrow_counts: tuple[int, ...]
    arrows_monotone: bool
    partitions_refine: bool
    top_is_diagonal: bool
    fibers_exact: bool


class DeformationChain:
    def __init__(self, base: DiffSpace, levels, report: ChainReport):
        self.base = base
        self.levels: tuple[ChainLevel, ...] = tuple(levels)
        self.report = report

    def level(self, k: int) -> ChainLevel:
        if not 0 <= k <= self.top:
            raise ValueError(f"level {k} outside 0..{self.top}")
        return self.levels[k]

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def __repr__(self) -> str:
        return f"DeformationChain(levels=0..{self.top}, blocks={self.report.block_counts})"


def deformation_chain(space: DiffSpace) -> DeformationChain:
    """Build levels 0..n for a space of dimension n.  See the module docstring."""
    n = space.dimension
    levels = []
    for k in range(n + 1):
        gens = [GeneratorFunction(f"pi{i}", f"x{i}", n) for i in range(1, k + 1)]
        sk = DiffSpace(space.points, n, gens, compare_mode=space.compare_mode,
                       eps=space.eps, constants_only=k == 0)
        rho = hausdorff_relation(sk)
        levels.append(ChainLevel(k=k, space=sk, partition=rho, groupoid=build_groupoid(sk, rho)))

    refine = all(
        levels[k + 1].partition.refines(levels[k].partition) for k in range(n)
    )
    report = ChainReport(
        block_counts=tuple(l.partition.n_blocks for l in levels),
        arrow_counts=tuple(l.groupoid.arrow_count for l in levels),
        # arrows of a pair groupoid are the related pairs, so one arrow set
        # contains the next exactly when the next partition refines this one
        arrows_monotone=refine,
        partitions_refine=refine,
        top_is_diagonal=levels[-1].partition.is_identity,
        fibers_exact=all(classes_are_fibers(l.space, l.partition) for l in levels),
    )
    return DeformationChain(space, levels, report)


def restrict(a: AlgebraElement, chain: DeformationChain, k: int) -> AlgebraElement:
    """Restrict an element of level k to the arrows of level k+1.

    Values (and jets, when present) are copied on the surviving arrows;
    nothing is renormalized.  A remembered defining expression survives,
    since restriction of a tabulated function is tabulation over fewer
    arrows.
    """
    if k >= chain.top:
        raise ValueError(f"no level below {k}; chain ends at {chain.top}")
    src_level = chain.level(k)
    dst_level = chain.level(k + 1)
    if not a.groupoid.same_structure(src_level.groupoid):
        raise ValueError(f"element does not live on level {k}")
    g = dst_level.groupoid
    return AlgebraElement(
        g, a.value_stack.restrict(g),
        d_src=a.d_src_stack.restrict(g) if a.has_jets else None,
        d_dst=a.d_dst_stack.restrict(g) if a.has_jets else None,
        expr=a.expr,
    )


def homomorphism_defect_chain(
    a: AlgebraElement, b: AlgebraElement, chain: DeformationChain, k: int
) -> float:
    """max |restrict(a * b) - restrict(a) * restrict(b)| from level k to k+1.

    The restriction maps are not homomorphisms in general: the left side
    still sums over the whole level-k class, the right side only over the
    smaller level-(k+1) class.  The defect is the measure of the dropped
    terms, and is typically nonzero.
    """
    # values only: jets would be convolved and restricted and never read
    a, b = AlgebraElement(a.groupoid, a.value_stack), AlgebraElement(b.groupoid, b.value_stack)
    lhs = restrict(convolve(a, b), chain, k)
    rhs = convolve(restrict(a, chain, k), restrict(b, chain, k))
    return max_diff(lhs, rhs)


@dataclass(frozen=True)
class StepNReport:
    """How the top-level convolution compares with the pointwise product.

    On a diagonal groupoid (a * b)(x, x) = a(x, x) b(x, x) w(x) exactly;
    with unit weights the measure factor disappears and convolution IS the
    commutative pointwise product.
    """

    top_is_diagonal: bool
    unit_weights: bool
    weighted_defect: float
    plain_defect: float


def step_n_pointwise_check(
    chain: DeformationChain, a: AlgebraElement, b: AlgebraElement
) -> StepNReport:
    """Compare a * b against the (weighted) pointwise product at the top level."""
    top = chain.level(chain.top)
    if not a.groupoid.same_structure(top.groupoid):
        raise ValueError("elements do not live on the top level")
    conv = convolve(a, b)
    weighted = plain = 0.0
    diag = top.partition.is_identity
    unit_w = all(top.space.weight(x) == 1.0 for x in top.space.ids)
    stacks = (a.value_stack.arrays, b.value_stack.arrays, conv.value_stack.arrays)
    for grp, A, B, C in zip(a.groupoid.groups, *stacks):
        if grp.m == 1:  # the singleton classes
            ab = A[:, 0, 0] * B[:, 0, 0]
            weighted = float(np.abs(C[:, 0, 0] - ab * grp.weights[:, 0]).max())
            plain = float(np.abs(C[:, 0, 0] - ab).max())
    return StepNReport(
        top_is_diagonal=diag,
        unit_weights=unit_w,
        weighted_defect=weighted,
        plain_defect=plain,
    )
