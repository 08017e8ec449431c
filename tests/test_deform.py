"""Deformation chain: level structure, restrictions, and their defects."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ncgroupoid import (
    AlgebraElement,
    DiffSpace,
    GeneratorFunction,
    Point,
    convolve,
    deformation_chain,
    from_expression,
    homomorphism_defect_chain,
    max_diff,
    random_element,
    restrict,
    step_n_pointwise_check,
)

from conftest import DYADIC_WEIGHTS, grid_space, random_int_space


# ----------------------------------------------------------- chain shape

def test_grid_chain_counts():
    chain = deformation_chain(grid_space())
    assert chain.top == 2
    assert chain.report.block_counts == (1, 2, 4)
    assert chain.report.arrow_counts == (16, 8, 4)


def test_grid_chain_flags():
    rep = deformation_chain(grid_space()).report
    assert rep.arrows_monotone
    assert rep.partitions_refine
    assert rep.top_is_diagonal
    assert rep.fibers_exact


def test_level_zero_glues_everything():
    chain = deformation_chain(grid_space())
    assert chain.level(0).partition.is_total
    assert [g.name for g in chain.level(0).space.generators] == ["one"]


def test_level_k_projections_are_coordinates():
    chain = deformation_chain(grid_space())
    lvl = chain.level(2)
    assert [g.name for g in lvl.space.generators] == ["pi1", "pi2"]
    assert lvl.space.generator_values.tolist() == lvl.space.coords.tolist()


def test_level_bounds_checked():
    chain = deformation_chain(grid_space())
    with pytest.raises(ValueError):
        chain.level(3)
    with pytest.raises(ValueError):
        chain.level(-1)


def test_chain_on_random_spaces_reports_clean_flags(rng):
    for _ in range(10):
        space = random_int_space(rng)
        rep = deformation_chain(space).report
        assert rep.arrows_monotone
        assert rep.partitions_refine
        assert rep.fibers_exact
        # arrow counts monotone as plain numbers too
        assert all(
            rep.arrow_counts[k + 1] <= rep.arrow_counts[k]
            for k in range(len(rep.arrow_counts) - 1)
        )


def test_duplicate_coordinates_leave_top_non_diagonal():
    pts = [
        Point(0, (1.0, 2.0), 1.0),
        Point(1, (1.0, 2.0), 1.0),  # same coordinates as point 0
        Point(2, (0.0, 0.0), 1.0),
    ]
    space = DiffSpace(pts, 2, ())
    rep = deformation_chain(space).report
    assert not rep.top_is_diagonal
    assert rep.block_counts[-1] == 2
    assert rep.partitions_refine  # still a chain, just not separating


# ----------------------------------------------------------- restriction

def test_restrict_keeps_surviving_values():
    chain = deformation_chain(grid_space())
    a = from_expression(chain.level(0).groupoid, "x1 + 2*x2 + y1*y2")
    r = restrict(a, chain, 0)
    for block in chain.level(1).groupoid.blocks:
        for x in block:
            for y in block:
                assert r.value_at(x, y) == a.value_at(x, y)
    assert r.expr is not None
    # jets survive restriction alongside values
    assert restrict(a.with_jets(), chain, 0).has_jets


def test_restrict_demands_matching_level():
    chain = deformation_chain(grid_space())
    a = from_expression(chain.level(1).groupoid, "1")
    with pytest.raises(ValueError):
        restrict(a, chain, 0)  # element lives on level 1, not 0
    with pytest.raises(ValueError):
        restrict(a, chain, 2)  # nothing below the top


def test_restriction_defect_of_ones_counts_lost_mass():
    # On the 2x2 grid with unit weights, (1 * 1) at level 0 sums over all
    # four points = 4; after restricting, the level-1 product sums over the
    # two-point class = 2.  The defect is exactly 2.
    chain = deformation_chain(grid_space())
    ones = from_expression(chain.level(0).groupoid, "1")
    defect = homomorphism_defect_chain(ones, ones, chain, 0)
    assert defect == 2.0


def test_restriction_defect_vanishes_on_arrow_supported_elements():
    # An element supported on arrows that survive to the next level loses
    # nothing... unless the convolution routes through glued points.  A
    # diagonal element whose class survives is the clean case.
    chain = deformation_chain(grid_space())
    g0 = chain.level(0).groupoid
    vals = [np.zeros((4, 4), dtype=complex)]
    vals[0][0, 0] = 3.0  # supported on the single arrow (0, 0)
    a = AlgebraElement(g0, vals)
    defect = homomorphism_defect_chain(a, a, chain, 0)
    assert defect == 0.0


def _staircase_space(rng, weights):
    """3-D points whose chain has blocks of several sizes at every level, singletons and
    larger blocks inside one coarser block, and two coincident points at the top."""
    x1 = [0.0] * 9 + [1.0] * 5 + [2.0]
    x2 = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 1.0, 2.0, 2.0, 0.0]
    x3 = [0.0, 0.0, 1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]
    pts = [Point(i, c, float(w)) for i, (c, w) in
           enumerate(zip(zip(x1, x2, x3), rng.choice(weights, len(x1))))]
    return DiffSpace(pts, 3, ())


def _full_product_defect(a, b, chain, k):
    """The defect as defined: the product over the level-k blocks, then restricted."""
    lhs = restrict(convolve(a, b), chain, k)
    return max_diff(lhs, convolve(restrict(a, chain, k), restrict(b, chain, k)))


def test_restriction_defect_matches_the_full_product(rng):
    chain = deformation_chain(_staircase_space(rng, [0.3, 1.0, 1.7, 2.5]))
    sizes = [sorted(lvl.partition.sizes.tolist()) for lvl in chain.levels]
    assert sizes == [[15], [1, 5, 9], [1, 1, 1, 1, 1, 2, 2, 2, 4], [1] * 13 + [2]]
    for k in range(chain.top):
        g = chain.level(k).groupoid
        for _ in range(3):
            a, b = random_element(g, rng), random_element(g, rng, with_jets=True)
            want = _full_product_defect(a, b.values_only(), chain, k)
            got = homomorphism_defect_chain(a, b, chain, k)
            scale = convolve(a, b).max_abs()
            assert want > 0.0 and abs(got - want) <= 1e-12 * scale
        # rational elements give the same Fraction sums, so the defects are equal
        exact = [AlgebraElement(g, [np.array(
            [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in blk]
             for _ in blk], dtype=object) for blk in g.blocks]) for _ in range(2)]
        assert homomorphism_defect_chain(*exact, chain, k) == _full_product_defect(
            *exact, chain, k)


def test_restriction_defect_of_constants_is_the_lost_class_mass(rng):
    space = _staircase_space(rng, DYADIC_WEIGHTS)
    chain = deformation_chain(space)
    for k in range(chain.top):
        coarse, fine = chain.level(k).partition, chain.level(k + 1).partition
        mass = [sum(space.weight(x) for x in block) for block in coarse.blocks]
        lost = max(mass[coarse.block_of[block[0]]] - sum(space.weight(x) for x in block)
                   for block in fine.blocks)
        ones = from_expression(chain.level(k).groupoid, "1")
        dense = homomorphism_defect_chain(ones, ones, chain, k)
        assert dense == chain.lost_mass()[k] == lost > 0.0


def test_lost_mass_matches_the_dense_defect_on_any_weights(rng):
    # the dense defect and the label sums add the weights in different orders: each of
    # the four class sums over at most n positive weights is off by at most (n - 1) eps W
    # and each of the two differences by eps W, W the total weight
    spaces = [_staircase_space(rng, [0.1, 0.3, 1.7, 10 / 3])]
    for _ in range(20):
        # a coarse grid: classes of several sizes, coincident points at the top
        n, dim = int(rng.integers(1, 120)), int(rng.integers(1, 4))
        coords, w = rng.integers(0, 3, (n, dim)).astype(float), rng.uniform(0.1, 3.4, n)
        spaces.append(DiffSpace([Point(i, tuple(c), float(x)) for i, (c, x) in
                                 enumerate(zip(coords.tolist(), w.tolist()))], dim, ()))
    spaces.append(DiffSpace([Point(7, (0.3, 0.7), 0.1)], 2, ()))
    for space in spaces:
        chain = deformation_chain(space)
        lost = chain.lost_mass()
        bound = 4 * len(space.id_array) * np.finfo(float).eps * space.weights.sum()
        assert len(lost) == space.dimension
        for k in range(chain.top):
            ones = from_expression(chain.level(k).groupoid, "1")
            assert abs(lost[k] - homomorphism_defect_chain(ones, ones, chain, k)) <= bound
    flat = DiffSpace([Point(0, (), 0.3), Point(1, (), 2.5)], 0, ())
    assert deformation_chain(flat).lost_mass() == ()


def test_restriction_defect_never_builds_the_coarse_product():
    # one class of 1000 points at level 0, singletons at level 1: the product over
    # the class would be 8 MB; the defect reads a diagonal of 1000 entries
    n = 1000
    space = DiffSpace([Point(i, (float(i),), 1.0) for i in range(n)], 1, ())
    chain = deformation_chain(space)
    ones = from_expression(chain.level(0).groupoid, "1")
    tracemalloc.start()
    try:
        defect = homomorphism_defect_chain(ones, ones, chain, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defect == n - 1.0
    assert peak < 2**20


def test_restriction_defect_on_pairs_stays_under_a_mebibyte():
    # one class of 1000 points at level 0, pairs at level 1: gathered for the whole
    # class at once, the rows and the weighted columns would be 8 MB each; a chunk of
    # pairs gathers no more entries than the 4000 of the finer output
    n = 1000
    space = DiffSpace([Point(i, (float(i // 2),), 1.0) for i in range(n)], 1, ())
    chain = deformation_chain(space)
    ones = from_expression(chain.level(0).groupoid, "1")
    tracemalloc.start()
    try:
        defect = homomorphism_defect_chain(ones, ones, chain, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defect == n - 2.0
    assert peak < 2**20


def _pairs_of_pairs_space(rng):
    """2,000 classes of 4 points at level 1 that split into pairs at level 2, and one
    more that splits into a pair and two singletons: 4,001 pairs in one size group."""
    i = np.arange(8004)
    x1, x2 = i // 4, (i % 4) // 2
    x2[-2:] = [1, 2]
    w = rng.choice(DYADIC_WEIGHTS, len(i))
    return DiffSpace([Point(int(p), (float(a), float(b)), float(c))
                      for p, a, b, c in zip(i, x1, x2, w)], 2, ())


def test_restriction_defect_on_many_small_classes_matches_the_full_product(rng):
    # the pairs inside the classes of 4 are gathered in chunks of 1,000, the last of one
    chain = deformation_chain(_pairs_of_pairs_space(rng))
    assert sorted(chain.level(2).partition.sizes.tolist()) == [1, 1] + [2] * 4001
    g = chain.level(1).groupoid
    a, b = random_element(g, rng), random_element(g, rng)
    want = _full_product_defect(a, b, chain, 1)
    got = homomorphism_defect_chain(a, b, chain, 1)
    assert want > 0.0 and abs(got - want) <= 1e-12 * convolve(a, b).max_abs()
    exact = [AlgebraElement(g, [
        np.array([[Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, len(blk)),
                                                             rng.integers(1, 6, len(blk)))]
                  for _ in blk], dtype=object) for blk in g.blocks]) for _ in range(2)]
    assert homomorphism_defect_chain(*exact, chain, 1) == _full_product_defect(*exact, chain, 1)


def test_restriction_composes_to_top(rng):
    chain = deformation_chain(grid_space())
    a = from_expression(chain.level(0).groupoid, "x1*y2 + 3")
    step = restrict(restrict(a, chain, 0), chain, 1)
    for x in chain.level(2).space.ids:
        assert step.value_at(x, x) == a.value_at(x, x)


# ---------------------------------------------------------------- step n

def test_top_level_convolution_is_weighted_pointwise():
    chain = deformation_chain(grid_space())
    g = chain.top_groupoid if hasattr(chain, "top_groupoid") else chain.level(chain.top).groupoid
    a = from_expression(g, "x1 + y2 + 1")
    b = from_expression(g, "x1*x2 + 2")
    rep = step_n_pointwise_check(chain, a, b)
    assert rep.top_is_diagonal
    assert rep.unit_weights
    assert rep.weighted_defect == 0.0
    assert rep.plain_defect == 0.0  # unit weights: plain product too


def test_step_n_without_singleton_classes_measures_nothing():
    space = DiffSpace([Point(0, (0.5,), 1.0), Point(1, (0.5,), 1.0)], 1, ())
    chain = deformation_chain(space)
    a = from_expression(chain.level(chain.top).groupoid, "1 + x1*y1")
    step = step_n_pointwise_check(chain, a, a)
    assert not step.top_is_diagonal
    assert step.weighted_defect is None and step.plain_defect is None


def test_weighted_top_level_keeps_measure_factor():
    pts = [Point(i, (float(i),), w) for i, w in enumerate([0.5, 2.0, 1.0])]
    space = DiffSpace(pts, 1, ())
    chain = deformation_chain(space)
    g = chain.level(chain.top).groupoid
    a = from_expression(g, "x1 + 1")
    b = from_expression(g, "2*x1")
    rep = step_n_pointwise_check(chain, a, b)
    assert rep.top_is_diagonal
    assert not rep.unit_weights
    assert rep.weighted_defect == 0.0
    assert rep.plain_defect > 0.0


def test_step_n_requires_top_level_elements():
    chain = deformation_chain(grid_space())
    a = from_expression(chain.level(0).groupoid, "1")
    with pytest.raises(ValueError):
        step_n_pointwise_check(chain, a, a)


def test_chain_memory_stays_linear_in_the_points():
    # level 0 is one class of 2000 points, i.e. 4e6 arrows; the chain must
    # not materialize them
    n = 2000
    space = DiffSpace(
        [Point(id=i, coords=(float(i),), weight=1.0) for i in range(n)], 1,
        [GeneratorFunction("x", "x1", 1)],
    )
    tracemalloc.start()
    try:
        chain = deformation_chain(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.report.arrow_counts == (n * n, n)
    assert chain.report.arrows_monotone and chain.report.fibers_exact
    assert peak < 64 * 2**20
