"""The label-array structure layer against set and dict oracles.

Every space here lists its points out of id order, with negative ids and
gaps between them, so a point's id, its place in the listing and its
position in the space's arrays (its rank among the ids) all differ.  Each
oracle is written with plain sets, dicts and sorted tuples, the way the
relation is defined.
"""

import numpy as np

from ncgroupoid import (
    DiffSpace,
    GeneratorFunction,
    Partition,
    Point,
    build_groupoid,
    classes_are_fibers,
    consistent_family,
    deformation_chain,
    hausdorff_relation,
    quotient,
)

from conftest import DYADIC_WEIGHTS, int_poly, sympy_coordinates


def scrambled_space(rng, quantized=False) -> DiffSpace:
    """A random space of small integer coordinates whose ids are scrambled."""
    n = int(rng.integers(1, 4))
    npts = int(rng.integers(2, 13))
    ids = rng.choice(np.arange(-40, 40), size=npts, replace=False).tolist()
    pts = [Point(pid, tuple(float(c) for c in rng.integers(-2, 3, size=n)),
                 float(rng.choice(DYADIC_WEIGHTS))) for pid in ids]
    syms = sympy_coordinates(n)
    gens = [GeneratorFunction(f"g{j}", int_poly(rng, syms), n)
            for j in range(int(rng.integers(1, 4)))]
    if quantized:
        # integer values a unit apart may share a key, so members of a class differ
        return DiffSpace(pts, n, gens, eps=2.0)
    return DiffSpace(pts, n, gens)


def spaces(rng, count=16):
    return [scrambled_space(rng, quantized=k % 2 == 1) for k in range(count)]


def raw_blocks(rng, ids, max_block=4) -> list[list[int]]:
    """The ids cut into random blocks, shuffled, members in no particular order."""
    ids = list(ids)
    rng.shuffle(ids)
    cuts = np.cumsum(rng.integers(1, max_block + 1, size=len(ids)))
    return [ids[a:b] for a, b in zip([0, *cuts], cuts) if a < len(ids)]


def key_of(space) -> dict:
    return {x: tuple(space.generator_keys[space.index_of(x)]) for x in space.ids}


def oracle_blocks(groups) -> tuple:
    """Classes given as any iterable of id collections, in the canonical order."""
    return tuple(sorted(tuple(sorted(c)) for c in groups))


def fibers(space) -> tuple:
    classes = {}
    for x, key in key_of(space).items():
        classes.setdefault(key, set()).add(x)
    return oracle_blocks(classes.values())


def relations(rng, space):
    """(partition, its blocks in canonical order by the oracle): the gluing relation
    and a random partition given in scrambled order."""
    raw = raw_blocks(rng, space.ids)
    return [(hausdorff_relation(space), fibers(space)), (Partition(raw), oracle_blocks(raw))]


def class_of(blocks) -> dict:
    return {x: b for b, block in enumerate(blocks) for x in block}


def test_relation_blocks_are_the_fibers_in_canonical_order(rng):
    for space in spaces(rng):
        for rho, blocks in relations(rng, space):
            assert rho.blocks == blocks
            assert rho.block_of == class_of(blocks)
            assert rho.members.tolist() == sorted(space.ids)
            assert rho.labels.tolist() == [class_of(blocks)[x] for x in sorted(space.ids)]
            assert rho.sizes.tolist() == [len(b) for b in blocks]


def test_refines_matches_the_set_definition(rng):
    for space in spaces(rng):
        ids = space.ids
        blocks = [fibers(space), [[x] for x in ids], [ids], raw_blocks(rng, ids),
                  raw_blocks(rng, ids, max_block=2)]
        # a coarsening of the fibers: merged in pairs
        blocks.append([sum(blocks[0][i:i + 2], ()) for i in range(0, len(blocks[0]), 2)])
        for p in blocks:
            for q in blocks:
                want = all(len({class_of(q)[x] for x in block}) == 1 for block in p)
                assert Partition(p).refines(Partition(q)) == want


def test_classes_are_fibers_matches_the_set_definition(rng):
    for space in spaces(rng):
        ids = space.ids
        for raw in ([[x] for x in ids], [ids], raw_blocks(rng, ids), fibers(space)):
            want = oracle_blocks(raw) == fibers(space)
            assert classes_are_fibers(space, Partition(raw)) == want


def test_consistent_family_spreads_and_witnesses(rng):
    for space in spaces(rng):
        ids = space.ids
        total = (Partition.total(ids), (tuple(sorted(ids)),))
        for rho, blocks in [*relations(rng, space), total]:
            for j, res in enumerate(consistent_family(space, rho)):
                value = {x: space.generator_values[space.index_of(x), j] for x in ids}
                key = {x: k[j] for x, k in key_of(space).items()}
                spread = max(max(value[x] for x in b) - min(value[x] for x in b) for b in blocks)
                split = [b for b in blocks if len({key[x] for x in b}) > 1]
                witness = None
                if split:
                    b = split[0]
                    witness = (b[0], next(x for x in b if key[x] != key[b[0]]))
                assert (res.max_spread, res.witness, res.consistent) == (
                    spread, witness, not split)


def test_quotient_projection_and_class_weights(rng):
    for space in spaces(rng):
        for rho, blocks in relations(rng, space):
            q = quotient(space, rho)
            # the quotient's point b is class b, so block_of is the projection
            assert rho.block_of == class_of(blocks)
            assert q.space.ids == tuple(range(len(blocks)))
            # coordinates read at each class's smallest member
            kept = [j for j, g in enumerate(space.generators) if g.name not in q.dropped]
            assert [p.coords for p in q.space.points] == [
                tuple(space.generator_values[space.index_of(block[0]), kept].tolist())
                for block in blocks]
            # summed in ascending id order, so equal to the last bit
            assert [p.weight for p in q.space.points] == [
                sum(space.weight(x) for x in block) for block in blocks]


def test_point_pos_and_size_groups(rng):
    for space in spaces(rng):
        position = {x: p for p, x in enumerate(space.ids)}
        for rho, blocks in relations(rng, space):
            g = build_groupoid(space, rho)
            for p, x in enumerate(space.ids):
                b = class_of(blocks)[x]
                assert g.point_pos[p].tolist() == [b, blocks[b].index(x)]
            assert [grp.m for grp in g.groups] == sorted({len(b) for b in blocks})
            for s, grp in enumerate(g.groups):
                rows = [b for b, block in enumerate(blocks) if len(block) == grp.m]
                assert grp.blocks.tolist() == rows
                assert g.slots[rows].tolist() == [[s, r] for r in range(len(rows))]
                assert grp.index.tolist() == [[position[x] for x in blocks[b]] for b in rows]
                assert grp.weights.tolist() == [[space.weight(x) for x in blocks[b]]
                                                for b in rows]


def test_chain_counts_match_coordinate_prefixes(rng):
    for space in spaces(rng):
        chain = deformation_chain(space)
        eps = space.eps
        blocks, arrows = [], []
        for k in range(space.dimension + 1):
            classes = {}
            for p in space.points:
                prefix = np.array(p.coords[:k])
                prefix = prefix if eps is None else np.rint(prefix / eps)
                classes.setdefault(tuple((prefix + 0.0).tolist()), []).append(p.id)
            blocks.append(len(classes))
            arrows.append(sum(len(c) ** 2 for c in classes.values()))
        assert chain.report.block_counts == tuple(blocks)
        assert chain.report.arrow_counts == tuple(arrows)
        # every level keeps the base space's point arrays
        assert all(level.space.id_array is space.id_array for level in chain.levels)


def test_space_keeps_ids_as_ints_made_once(rng):
    space = scrambled_space(rng)
    assert space.ids is space.ids and all(type(x) is int for x in space.ids)
    assert [space.index_of(x) for x in space.ids] == list(range(len(space.ids)))
    assert list(space.ids) == sorted(space.ids)
