"""Pair groupoid structure: arrows, their laws in the algebra, fibers, orbits.

An arrow (x, y) is entry (i, j) of one block; the arrow set is read back
through the stack's ``columns()`` and the partition's blocks, and composition and
inversion through the convolution and involution of arrow deltas.
"""

import itertools

import pytest

from ncgroupoid import (
    Partition,
    arrow_basis,
    build_groupoid,
    convolve,
    from_expression,
    hausdorff_relation,
    involution,
    max_diff,
    unit,
)

from conftest import grid_space, line_space, random_groupoid, total_pair_space


def total_pair_groupoid(weights=(1.0, 1.0)):
    space = total_pair_space(weights)
    return build_groupoid(space, hausdorff_relation(space))


def arrows(g):
    """The (src, dst) pairs of the groupoid, as an element's records list them."""
    src, dst = from_expression(g, "1").stack.columns()[:2]
    return list(zip(src.tolist(), dst.tolist()))


def deltas(g):
    """The arrow basis keyed by (src, dst); it runs block by block, each row-major."""
    pairs = [(x, y) for block in g.blocks for x in block for y in block]
    basis = dict(zip(pairs, arrow_basis(g)))
    assert all(e.value_at(x, y) == 1.0 and e.max_abs() == 1.0 for (x, y), e in basis.items())
    return basis


def test_total_pair_has_four_arrows():
    g = total_pair_groupoid()
    assert g.arrow_count == 4
    assert arrows(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_compose_and_inverse():
    # delta_(x,y) * delta_(y',z) = [y = y'] w(y) delta_(x,z), delta_(x,y)^* = delta_(y,x)
    g = total_pair_groupoid(weights=(1.0, 2.0))
    d = deltas(g)
    assert max_diff(convolve(d[0, 1], d[1, 0]), 2.0 * d[0, 0]) == 0.0
    assert max_diff(convolve(d[0, 1], d[1, 1]), 2.0 * d[0, 1]) == 0.0
    assert convolve(d[0, 1], d[0, 1]).max_abs() == 0.0
    assert max_diff(involution(d[0, 1]), d[1, 0]) == 0.0
    assert max_diff(involution(involution(d[0, 1])), d[0, 1]) == 0.0


def test_foreign_arrow_raises():
    space = grid_space()
    g = build_groupoid(space, hausdorff_relation(space))
    # 0 and 2 sit in different columns, so (0, 2) is not an arrow
    assert (0, 2) not in arrows(g)
    a = from_expression(g, "x1 + y2")
    with pytest.raises(ValueError, match="not an arrow"):
        a.value_at(0, 2)
    with pytest.raises(ValueError, match="not an arrow"):
        a.jet_at(0, 2)


def test_units_are_neutral(rng):
    # delta_(x,x) / w(x) is a left unit of every arrow from x, a right unit
    # of every arrow into x, and an arrow times its inverse is w(y) delta_(x,x)
    for _ in range(5):
        g = random_groupoid(rng)
        d = deltas(g)
        w = dict(zip(g.space.ids, (p.weight for p in g.space.points)))
        for (x, y), a in d.items():
            assert max_diff(convolve((1 / w[x]) * d[x, x], a), a) == 0.0
            assert max_diff(convolve(a, (1 / w[y]) * d[y, y]), a) == 0.0
            assert max_diff(convolve(a, involution(a)), w[y] * d[x, x]) == 0.0
            assert max_diff(convolve(involution(a), a), w[x] * d[y, y]) == 0.0
        e = unit(g)
        assert all(max_diff(convolve(e, a), a) == 0.0 for a in d.values())


def test_associativity_exhaustive(rng):
    for _ in range(3):
        g = random_groupoid(rng, max_points=6, max_block=4)
        d = deltas(g)
        for block in g.blocks:
            for x, y, z, u in itertools.product(block, repeat=4):
                lhs = convolve(convolve(d[x, y], d[y, z]), d[z, u])
                rhs = convolve(d[x, y], convolve(d[y, z], d[z, u]))
                assert max_diff(lhs, rhs) == 0.0


def test_fibers_and_isotropy():
    space = grid_space()
    g = build_groupoid(space, hausdorff_relation(space))
    pairs = set(arrows(g))
    outgoing = {(x, y) for x, y in pairs if x == 0}
    incoming = {(x, y) for x, y in pairs if y == 0}
    assert outgoing == {(0, 0), (0, 1)}
    assert incoming == {(0, 0), (1, 0)}
    assert outgoing & incoming == {(0, 0)}


def test_fiber_sizes_match_class_sizes(rng):
    for _ in range(5):
        g = random_groupoid(rng)
        pairs = arrows(g)
        for x in g.space.ids:
            m = len(g.blocks[g.block_index(x)])
            assert sum(src == x for src, _ in pairs) == m
            assert sum(dst == x for _, dst in pairs) == m
            assert pairs.count((x, x)) == 1


def test_transitivity():
    # one orbit exactly when the relation is total
    g = total_pair_groupoid()
    assert g.n_blocks == 1 and g.partition.is_total
    space = line_space()
    g = build_groupoid(space, hausdorff_relation(space))
    assert g.n_blocks == 5 and not g.partition.is_total


def test_arrow_count_is_sum_of_squares():
    space = line_space()
    rho = Partition([(0, 1, 2), (3, 4)])
    g = build_groupoid(space, rho)
    assert g.arrow_count == 9 + 4
    assert len(arrows(g)) == 13


def test_orbit_decomposition_partitions_arrows(rng):
    for _ in range(5):
        g = random_groupoid(rng)
        block_of = g.partition.block_of
        seen = {}
        for src, dst in arrows(g):
            assert block_of[src] == block_of[dst]
            seen.setdefault(block_of[src], set()).add((src, dst))
        assert sorted(seen) == list(range(g.n_blocks))
        for b, pairs in seen.items():
            assert pairs == set(itertools.product(g.blocks[b], repeat=2))


def test_partition_space_mismatch_raises():
    space = line_space()
    with pytest.raises(ValueError, match="does not cover the space's point ids"):
        build_groupoid(space, Partition([(0, 1)]))
    with pytest.raises(ValueError, match="does not cover the space's point ids"):
        build_groupoid(space, Partition([(0, 1, 2), (3, 4, 9)]))
