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

from .algebra import AlgebraElement, _fractions, convolve, max_diff
from .diffspace import (
    DiffSpace,
    GeneratorFunction,
    Partition,
    classes_are_fibers,
    hausdorff_relation,
)
from .groupoid import BlockStack, Groupoid, build_groupoid


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
    def __init__(self, levels, report: ChainReport):
        self.levels: tuple[ChainLevel, ...] = tuple(levels)
        self.report = report

    def level(self, k: int) -> ChainLevel:
        if not 0 <= k <= self.top:
            raise ValueError(f"level {k} outside 0..{self.top}")
        return self.levels[k]

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def lost_mass(self) -> tuple[float, ...]:
        """Per level k < top, the restriction defect of the constant 1 to level k+1, read off
        the labels: max over level-(k+1) classes B' of W(B) - W(B'), W the class weight and
        B the level-k class that holds B' (the product of restrictions sums over B' only)."""
        w = self.levels[0].space.weights
        # each member's class weight per level: the members of B' all lie in B
        mass = [np.bincount(p.labels, weights=w)[p.labels] for p in
                (level.partition for level in self.levels)]
        return tuple(float((mass[k] - mass[k + 1]).max()) for k in range(self.top))

    def __repr__(self) -> str:
        return f"DeformationChain(levels=0..{self.top}, blocks={self.report.block_counts})"


def deformation_chain(space: DiffSpace) -> DeformationChain:
    """Levels 0..n for a space of dimension n, all on the space's own point arrays."""
    n = space.dimension
    levels = []
    for k in range(n + 1):
        gens = [GeneratorFunction(f"pi{i}", f"x{i}", n) for i in range(1, k + 1)]
        sk = space.with_generators(gens)
        rho = hausdorff_relation(sk)
        levels.append(ChainLevel(k=k, space=sk, partition=rho, groupoid=build_groupoid(sk, rho)))

    refine = all(levels[k + 1].partition.refines(levels[k].partition) for k in range(n))
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
    return DeformationChain(levels, report)


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
    return AlgebraElement.from_stack(a.stack.restrict(dst_level.groupoid), a._expr)


def homomorphism_defect_chain(
    a: AlgebraElement, b: AlgebraElement, chain: DeformationChain, k: int
) -> float:
    """max |restrict(a * b) - restrict(a) * restrict(b)| from level k to k+1.

    The restriction maps are not homomorphisms in general: the left side
    still sums over the whole level-k class, the right side only over the
    smaller level-(k+1) class.  The defect is the measure of the dropped
    terms, and is typically nonzero.  The left side is formed on the
    level-(k+1) blocks alone (see :func:`_restricted_product`), so the
    product over a level-k class is never built.
    """
    # values only: jets would be restricted and never read
    a, b = a.values_only(), b.values_only()
    rhs = convolve(restrict(a, chain, k), restrict(b, chain, k))
    lhs = _restricted_product(a.stack, b.stack, rhs.groupoid)
    return max_diff(AlgebraElement.from_stack(lhs), rhs)


def _restricted_product(a: BlockStack, b: BlockStack, finer: Groupoid) -> BlockStack:
    """The values of a * b on the blocks of ``finer``, which refines the stacks' groupoid.

    On a finer block B' inside the block B they are A[B', B] W_B B[B, B'],
    from rows and columns gathered a chunk of finer blocks at a time, so
    that a chunk's rows and columns together hold no more entries than the
    finer output does (or one block's).  A single point x reads the
    diagonal entry sum over z in B of A[x, z] w(z) B[z, x], a
    row-times-column sum taken for every point of B at once, with nothing
    gathered.  Exact stacks take their weights as Fractions of their integer parts.
    """
    g = a.groupoid
    arrays = []
    for grp in finer.groups:
        block, at = g.point_pos[grp.index, 0], g.point_pos[grp.index, 1]  # (k', m') each
        slot, row = g.slots[block[:, 0]].T
        out = np.empty((len(grp.blocks), 1, grp.m, grp.m),
                       dtype=np.result_type(*a.arrays, *b.arrays))
        for s, (coarse, A, B) in enumerate(zip(g.groups, a.arrays, b.arrays)):
            sel = slot == s
            if not sel.any():
                continue
            A, B = A[:, 0], B[:, 0]  # (k, M, M)
            w = coarse.weights if A.dtype != object else _fractions(*coarse.integer_weights)
            r, i = row[sel], at[sel]
            if grp.m == 1:
                out[sel, 0, 0, 0] = np.einsum("kxz,kz,kzx->kx", A, w, B)[r, i[:, 0]]
                continue
            # per chunk of finer blocks, the columns are a fresh copy weighted in place,
            # then the rows are gathered: 2 step m' M entries, at most k' m'^2
            pos, step = np.flatnonzero(sel), max(1, len(r) * grp.m // (2 * coarse.m))
            for c in range(0, len(r), step):
                rc, ic = r[c:c + step], i[c:c + step]
                cols = np.swapaxes(B[rc[:, None], :, ic], 1, 2)  # (step, M, m')
                cols *= w[rc][:, :, None]
                out[pos[c:c + step], 0] = A[rc[:, None], ic] @ cols  # rows (step, m', M)
        arrays.append(out)
    return BlockStack(finer, arrays)


@dataclass(frozen=True)
class StepNReport:
    """How the top-level convolution compares with the pointwise product.

    On a diagonal groupoid (a * b)(x, x) = a(x, x) b(x, x) w(x) exactly;
    with unit weights the measure factor disappears and convolution IS the
    commutative pointwise product.  The defects are taken over the
    singleton classes of the top level; without one they are None.
    """

    top_is_diagonal: bool
    unit_weights: bool
    weighted_defect: float | None
    plain_defect: float | None


def step_n_pointwise_check(
    chain: DeformationChain, a: AlgebraElement, b: AlgebraElement
) -> StepNReport:
    """Compare a * b against the (weighted) pointwise product at the top level."""
    top = chain.level(chain.top)
    if not a.groupoid.same_structure(top.groupoid):
        raise ValueError("elements do not live on the top level")
    weighted, plain = singleton_defects(a, b) or (None, None)
    return StepNReport(top_is_diagonal=top.partition.is_identity,
                       unit_weights=bool((top.space.weights == 1.0).all()),
                       weighted_defect=weighted, plain_defect=plain)


def singleton_defects(a: AlgebraElement, b: AlgebraElement) -> tuple[float, float] | None:
    """Over the singleton classes, the largest |(a * b)(x, x) - a(x, x) b(x, x) w(x)| and
    the largest |(a * b)(x, x) - a(x, x) b(x, x)|; None without a singleton class."""
    conv = convolve(a, b)
    stacks = (a.stack.arrays, b.stack.arrays, conv.stack.arrays)
    for grp, A, B, C in zip(a.groupoid.groups, *stacks):
        if grp.m == 1:
            # a 1x1 matmul, as convolve forms the product; hypot, as Python's abs of a
            # complex number (np.abs may differ from it in the last bit)
            ab, c = (A[:, 0] @ B[:, 0])[:, 0, 0], C[:, 0, 0, 0]
            weighted, plain = c - ab * grp.weights[:, 0], c - ab
            return tuple(float(np.hypot(d.real, d.imag).max()) for d in (weighted, plain))
    return None
