"""The size-stacked block core against plain per-block numpy references.

The groupoid here has blocks of sizes 3, 1, 2, 1, 3 in block order, so
the size groups interleave, and its points are listed out of id order,
so point positions differ from point ids.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ncgroupoid import (
    AlgebraElement,
    BaseFunction,
    DensityField,
    Derivation,
    DiffSpace,
    Partition,
    Point,
    RandomOperator,
    build_groupoid,
    commutator_apply,
    convolve,
    deformation_chain,
    double_commutant,
    expect,
    from_expression,
    homomorphism_defect,
    involution,
    leibniz_defect,
    lift_symmetrized,
    make_state,
    max_diff,
    module_action,
    random_element,
    represent,
    restrict,
    unit,
)
from ncgroupoid.algebra import _integer_parts
from ncgroupoid.groupoid import BlockStack, promote

from conftest import DYADIC_WEIGHTS

BLOCKS = [(0, 4, 7), (1,), (2, 5), (3,), (6, 8, 9)]
ORDER = (5, 2, 9, 0, 7, 1, 8, 3, 6, 4)


@pytest.fixture
def g():
    pts = [
        Point(id=x, coords=(float(x), float(x % 3)), weight=DYADIC_WEIGHTS[x % 4])
        for x in ORDER
    ]
    space = DiffSpace(pts, 2, ())
    return build_groupoid(space, Partition(BLOCKS))


def weights(g, b):
    return np.array([g.space.weight(x) for x in g.blocks[b]])


def test_size_groups_cover_blocks_in_order(g):
    assert [len(b) for b in g.blocks] == [3, 1, 2, 1, 3]
    assert [grp.m for grp in g.groups] == [1, 2, 3]
    for grp in g.groups:
        for r, b in enumerate(grp.blocks):
            ids = [g.space.points[p].id for p in grp.index[r]]
            assert tuple(ids) == g.blocks[b]
            np.testing.assert_array_equal(grp.weights[r], weights(g, b))
    # the points are not listed in id or block order
    for p, (b, i) in enumerate(g.point_pos.tolist()):
        assert g.blocks[b][i] == g.space.points[p].id
        assert g.block_index(g.space.points[p].id) == b


def test_convolve_matches_per_block_reference(g, rng):
    for jets in (False, True):
        a = random_element(g, rng, with_jets=jets)
        b = random_element(g, rng, with_jets=jets)
        c = convolve(a, b)
        assert c.has_jets == jets
        for blk in range(g.n_blocks):
            W = np.diag(weights(g, blk))
            A, B = a.values[blk], b.values[blk]
            np.testing.assert_allclose(c.values[blk], A @ W @ B, rtol=1e-13, atol=1e-13)
            if not jets:
                continue
            for k in range(g.space.dimension):
                np.testing.assert_allclose(
                    c.d_src[blk][:, :, k], a.d_src[blk][:, :, k] @ W @ B, rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(
                    c.d_dst[blk][:, :, k], A @ W @ b.d_dst[blk][:, :, k], rtol=1e-13, atol=1e-13)


def test_involution_matches_per_block_reference(g, rng):
    for real in (False, True):
        a = random_element(g, rng, with_jets=True, real=real)
        s = involution(a)
        for blk in range(g.n_blocks):
            np.testing.assert_array_equal(s.values[blk], np.conj(a.values[blk].T))
            np.testing.assert_array_equal(
                s.d_src[blk], np.conj(np.transpose(a.d_dst[blk], (1, 0, 2))))
            np.testing.assert_array_equal(
                s.d_dst[blk], np.conj(np.transpose(a.d_src[blk], (1, 0, 2))))


def test_operators_match_per_block_reference(g, rng):
    a = random_element(g, rng)
    R = represent(a)
    S = R.adjoint()
    norms = []
    for blk, block in enumerate(g.blocks):
        w = weights(g, blk)
        M = a.values[blk] * w[None, :]
        np.testing.assert_allclose(R.class_matrices[blk], M, rtol=1e-15)
        np.testing.assert_allclose(
            S.class_matrices[blk], np.diag(1 / w) @ M.conj().T @ np.diag(w), rtol=1e-13)
        for x in block:
            assert R.fiber(x) is R.class_matrices[blk]
        # the operator norm for <psi, phi> = sum conj(psi) phi w: the plain spectral
        # norm, by SVD, of W^1/2 M W^-1/2
        root = np.sqrt(w)
        norms.append(np.linalg.norm(root[:, None] * M / root[None, :], 2))
    assert R.ess_sup() == pytest.approx(max(norms), rel=1e-13)


def test_expect_matches_pointwise_reference(g, rng):
    R = represent(random_element(g, rng))
    mats = []
    for x in g.space.ids:
        m = len(g.blocks[g.block_index(x)])
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        mats.append(X @ X.conj().T)
    z = sum(g.space.weight(x) * np.trace(M).real for x, M in zip(g.space.ids, mats))
    rho = DensityField(g, [M / z for M in mats])
    state = make_state(rho)
    want = sum(
        g.space.weight(x) * np.trace(rho.matrix(x) @ R.fiber(x)) for x in g.space.ids
    )
    assert expect(state, R) == pytest.approx(want, rel=1e-12)
    uniform = DensityField.uniform(g)
    want = sum(
        g.space.weight(x) * np.trace(uniform.matrix(x) @ R.fiber(x)) for x in g.space.ids
    )
    assert expect(make_state(uniform), R) == pytest.approx(want, rel=1e-12)


def test_fraction_associativity_is_exact_on_mixed_sizes(g, rng):
    for kind in EXACT_KINDS:
        a, b, c = (exact_element(g, rng, kind) for _ in range(3))
        lhs = convolve(convolve(a, b), c)
        rhs = convolve(a, convolve(b, c))
        for u, v in zip(lhs.values, rhs.values):
            assert u.dtype == object
            assert all(type(t) is Fraction for t in u.flat)
            assert np.array_equal(u, v)


# rational entries the exact kernel multiplies as integers
EXACT_KINDS = ("fraction", "int", "int64", "mixed")


def exact_entry(rng, kind):
    """One entry: a small Fraction, a small int (zero and negatives included), a numpy
    int64 near 2**62 of either sign, or any of these."""
    if kind == "mixed":
        kind = EXACT_KINDS[int(rng.integers(0, 3))]
    if kind == "fraction":
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
    if kind == "int":
        return int(rng.integers(-3, 4))
    return np.int64(int(rng.choice((-1, 1))) * (2 ** 62 - int(rng.integers(0, 1000))))


def exact_element(g, rng, kind="fraction"):
    return AlgebraElement(g, [
        np.array([[exact_entry(rng, kind) for _ in block] for _ in block], dtype=object)
        for block in g.blocks
    ])


@pytest.fixture
def g_exact():
    """Blocks of sizes 3, 1, 48, 2, 1, 3, 5 with weights 0.1 and 1/3 among them: as
    floats these have denominators 2**55 and 2**54."""
    sizes, awkward = (3, 1, 48, 2, 1, 3, 5), (0.1, 1 / 3, 1.0, 2.5, 0.7)
    ids = np.arange(sum(sizes))
    pts = [Point(id=int(x), coords=(float(x),), weight=awkward[x % len(awkward)]) for x in ids]
    space = DiffSpace(pts, 1, ())
    return build_groupoid(space, Partition(np.split(ids, np.cumsum(sizes)[:-1])))


@pytest.mark.parametrize("kind", EXACT_KINDS)
def test_exact_convolution_matches_per_entry_fractions(g_exact, rng, kind):
    a, b = exact_element(g_exact, rng, kind), exact_element(g_exact, rng, kind)
    got = convolve(a, b)
    for blk, block in enumerate(g_exact.blocks):
        # every entry as a Fraction of Python ints, so the reference cannot wrap
        x, y = ([[Fraction(int(t.numerator), int(t.denominator)) for t in row] for row in
                 el.values[blk]] for el in (a, b))
        w = [Fraction(g_exact.space.weight(z)) for z in block]
        m = len(block)
        for i in range(m):
            for j in range(m):
                want = sum(x[i][z] * w[z] * y[z][j] for z in range(m))
                t = got.values[blk][i, j]
                assert type(t) is Fraction and type(t.numerator) is int
                assert (t.numerator, t.denominator) == (want.numerator, want.denominator)


def test_integer_parts_use_one_denominator_per_block(g_exact, rng):
    a = exact_element(g_exact, rng, "mixed")
    for grp, arr in zip(g_exact.groups, a.stack.arrays):
        num, den = _integer_parts(arr)
        assert den.shape == arr.shape[:-2] + (1, 1)
        for r in range(len(grp.blocks)):
            block, n, d = arr[r, 0], num[r, 0], den[r, 0, 0, 0]
            assert d == math.lcm(*(int(t.denominator) for t in block.flat))
            assert all(type(p) is int and Fraction(p, d) == t for p, t in zip(n.flat, block.flat))


def test_involution_of_rational_stacks_only_transposes(g, rng):
    a = exact_element(g, rng, "mixed")
    s = involution(a)
    for u, v in zip(s.values, a.values):
        # the very same entry objects, transposed: nothing was conjugated or rebuilt
        assert u.dtype == object and all(p is q for p, q in zip(u.flat, v.T.flat))


RATIONAL_ONLY = "object entries must be rational"


def test_object_entries_that_are_not_rational_are_refused(g, rng):
    # blocks 2 (size 2) and 3 (size 1) sit in different size groups, and block 3's
    # group comes first: the first bad block in block order is named
    values = [np.array(v) for v in exact_element(g, rng).values]
    values[3][0, 0], values[2][1, 0] = 0.5, 1j
    with pytest.raises(ValueError, match=f"^block 2: {RATIONAL_ONLY}"):
        AlgebraElement(g, values)
    z = [np.array(v, dtype=object) for v in random_element(g, rng).values]
    with pytest.raises(ValueError, match=f"^block 0: {RATIONAL_ONLY}"):
        AlgebraElement(g, z)
    a = exact_element(g, rng)
    # a stack scaled by a float or given a float summand holds float entries in its
    # object groups (an element refuses both operations, see the test below)
    for bad in (a.stack.scale(0.5), a.stack + unit(g).stack):
        bad = AlgebraElement.from_stack(bad)
        for op in (lambda: convolve(bad, a), lambda: convolve(a, bad), lambda: involution(bad)):
            with pytest.raises(ValueError, match=RATIONAL_ONLY):
                op()
    # the unit of floats is not exact: the exact unit holds 1/w as Fractions
    for x, y in ((a, unit(g)), (unit(g), a)):
        with pytest.raises(ValueError, match="exact element convolves only with an exact one"):
            convolve(x, y)


def test_exact_elements_stay_exact_under_scaling_and_sums(g, rng):
    a, b = exact_element(g, rng), exact_element(g, rng, "int")
    for c in (a * 2, 2 * a, a * np.int64(-3), a * True, a * Fraction(1, 3), -a, a + b, b - a):
        assert all(u.dtype == object and all(type(t) in (int, Fraction) for t in u.flat)
                   for u in c.values)
    for scalar in (0.5, 2.0, np.float64(2.0), 1j, 1 + 0j):
        for op in (lambda: a * scalar, lambda: scalar * a):
            with pytest.raises(ValueError, match="exact element scales only by an int or a "
                                                 "Fraction"):
                op()
    numeric = unit(g)
    for op, verb in ((lambda: a + numeric, "adds"), (lambda: numeric + a, "adds"),
                     (lambda: a - numeric, "subtracts"), (lambda: numeric - a, "subtracts")):
        with pytest.raises(ValueError, match=f"^an exact element {verb} only with an exact one$"):
            op()
    # a numeric element scales by a Fraction as by its float value
    assert max_diff(numeric * Fraction(1, 4), numeric * 0.25) == 0.0


def assert_same_element(got, want):
    """Equal jets flag and bitwise equal values and jets, block by block."""
    assert got.has_jets == want.has_jets
    for fam in ("values", "d_src", "d_dst"):
        if getattr(want, fam) is None:
            assert getattr(got, fam) is None
            continue
        for u, v in zip(getattr(got, fam), getattr(want, fam)):
            assert u.shape == v.shape and u.dtype == v.dtype
            assert np.array_equal(u, v)


@pytest.mark.parametrize("op", [
    lambda x, y: x + y, lambda x, y: x - y, convolve,
    lambda x, y: y + x, lambda x, y: y - x, lambda x, y: convolve(y, x),
], ids=["add", "sub", "convolve", "add_swapped", "sub_swapped", "convolve_swapped"])
def test_jets_with_no_jets_gives_the_values_only_result(g, rng, op):
    a = random_element(g, rng, with_jets=True)
    b = random_element(g, rng)
    got = op(a, b)
    assert not got.has_jets
    assert_same_element(got, op(AlgebraElement(g, a.values), b))


def test_module_action_without_gradients_drops_jets(g, rng):
    a = random_element(g, rng, with_jets=True)
    f = BaseFunction(g.space, rng.standard_normal(len(g.space.points)))
    got = module_action(f, a)
    assert not got.has_jets
    assert_same_element(got, module_action(f, AlgebraElement(g, a.values)))


def split_chain():
    """x1 = x mod 3 splits the one level-0 class into classes of 4, 3 and 3 points."""
    pts = [Point(id=x, coords=(float(x % 3), float(x)), weight=DYADIC_WEIGHTS[x % 4])
           for x in ORDER]
    return deformation_chain(DiffSpace(pts, 2, ()))


def test_restrict_and_involution_keep_fractions_exact(rng):
    chain = split_chain()
    g0 = chain.level(0).groupoid
    a = exact_element(g0, rng)
    star, low = involution(a), restrict(a, chain, 0)
    for u, v in zip(star.values, a.values):
        assert u.dtype == object and all(type(t) is Fraction for t in u.flat)
        assert np.array_equal(u, v.T)
    g1 = chain.level(1).groupoid
    assert [len(b) for b in g1.blocks] == [4, 3, 3]
    for block, u in zip(g1.blocks, low.values):
        assert u.dtype == object and all(type(t) is Fraction for t in u.flat)
        assert np.array_equal(u, [[a.value_at(x, y) for y in block] for x in block])


@pytest.mark.parametrize("jets", [False, True])
def test_constructor_round_trips_the_views(g, rng, jets):
    a = random_element(g, rng, with_jets=jets)
    assert_same_element(AlgebraElement(g, a.values), a.values_only())
    assert_same_element(AlgebraElement.from_stack(a.stack), a)


def _interleaved(dimension):
    """Singletons between blocks of 2, 3 and 4 points, listed out of id order."""
    sizes = [1, 1, 3, 1, 2, 1, 1, 1, 4, 1, 2, 1, 3, 1, 1] * 3
    ids = np.random.default_rng(5).permutation(sum(sizes)).tolist()
    pts = [Point(x, (float(x),) * dimension, DYADIC_WEIGHTS[x % 4]) for x in ids]
    ends = np.cumsum(sizes).tolist()
    blocks = [ids[end - m:end] for end, m in zip(ends, sizes)]
    return build_groupoid(DiffSpace(pts, dimension, ()), Partition(blocks))


def test_random_element_draws_blocks_in_block_order(g):
    # the fixture with jets; without jets; dimension 0, whose jets have no channel;
    # many singletons between larger blocks
    cases = [(g, True), (g, False), (_interleaved(0), True), (_interleaved(2), True)]
    for (g, with_jets), real in itertools.product(cases, (False, True)):
        n = g.space.dimension
        drawn = np.random.default_rng(3)
        a = random_element(g, drawn, with_jets=with_jets, real=real)
        rng = np.random.default_rng(3)

        def draw(shape):
            if real:
                return rng.standard_normal(shape)
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        assert a.has_jets == (with_jets or n == 0)
        families = [(a.values, ())] + [(a.d_src, (n,)), (a.d_dst, (n,))] * with_jets
        for family, tail in families:
            want = [draw((len(b), len(b)) + tail) for b in g.blocks]
            assert len(family) == len(want)
            for got, ref in zip(family, want):
                assert got.dtype == ref.dtype
                np.testing.assert_array_equal(got, ref)
        assert drawn.bit_generator.state == rng.bit_generator.state


def test_per_block_views_are_made_once_and_read_only(g, rng):
    a = random_element(g, rng, with_jets=True)
    assert a.values is a.values and a.d_src is a.d_src
    R = represent(a)
    assert R.class_matrices is R.class_matrices
    with pytest.raises(ValueError):
        a.d_dst[0][0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        R.class_matrices[2][0, 0] = 1.0


def test_uniform_density_shares_one_matrix_per_class(g):
    rho = DensityField.uniform(g)
    for block in g.blocks:
        for x in block:
            assert rho.matrix(x) is rho.matrix(block[0])
    assert sum(len(s) for s in rho.stack.arrays) == g.n_blocks
    assert len({id(m) for m in rho.matrices}) == g.n_blocks


NOT_FINITE = np.eye(3) / 10
NOT_FINITE[1, 1] = np.nan
NOT_HERMITIAN = np.eye(3) / 10
NOT_HERMITIAN[0, 2] = 0.05


@pytest.mark.parametrize("bad, message", [
    (np.diag([1.0, 1.0, -0.5]) / 10, "negative eigenvalue"),
    (NOT_FINITE, "non-finite"),
    (NOT_HERMITIAN, "not Hermitian"),
])
def test_density_bad_at_one_point_of_a_class_is_rejected(g, bad, message):
    rho = DensityField.uniform(g)
    bad_point = g.blocks[4][1]
    mats = [np.array(rho.matrix(x)) for x in g.space.ids]
    mats[g.space.index_of(bad_point)] = bad
    with pytest.raises(ValueError, match=f"point {bad_point}: .*{message}"):
        make_state(DensityField(g, mats))


def test_shape_errors_name_the_block_or_point(g):
    values = [np.zeros((len(b), len(b))) for b in g.blocks]
    values[2] = np.zeros((3, 3))
    with pytest.raises(ValueError, match="block 2: value shape"):
        AlgebraElement(g, values)
    with pytest.raises(ValueError, match="one matrix array per block"):
        RandomOperator(g, values[:2])
    mats = [np.eye(len(g.blocks[g.block_index(x)])) for x in g.space.ids]
    mats[3] = np.eye(2)
    with pytest.raises(ValueError, match=f"point {g.space.ids[3]}: density shape"):
        DensityField(g, mats)


def test_shape_errors_name_the_first_bad_block_in_block_order(g):
    def shapes(bad):
        return [np.zeros((4, 4) if b in bad else (len(block), len(block)))
                for b, block in enumerate(g.blocks)]

    # blocks 2 (size 2) and 3 (size 1) sit in different size groups, and block 3's
    # group comes first; so do blocks 3 and 4 (size 3)
    with pytest.raises(ValueError, match=r"^block 2: value shape \(4, 4\), need \(2, 2\)$"):
        BlockStack.of(g, shapes({2, 3}))
    with pytest.raises(ValueError, match=r"^block 3: value shape \(4, 4\), need \(1, 1\)$"):
        BlockStack.of(g, shapes({3, 4}))


@pytest.mark.parametrize("exact", [False, True])
def test_stacking_promotes_as_np_stack_and_copies(g, rng, exact):
    kinds = {
        "float": lambda m: rng.standard_normal((m, m)),
        "complex": lambda m: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)),
        "int": lambda m: rng.integers(-5, 5, (m, m)),
        "int32": lambda m: rng.integers(-5, 5, (m, m)).astype(np.int32),
        "float32": lambda m: rng.standard_normal((m, m)).astype(np.float32),
        "object": lambda m: np.array([[Fraction(int(rng.integers(-9, 9)), 7)] * m] * m,
                                     dtype=object),
        "list": lambda m: rng.integers(-5, 5, (m, m)).tolist(),
    }
    names = list(kinds)
    for _ in range(40):
        picks = [names[int(rng.integers(0, len(names)))] for _ in g.blocks]
        data = [kinds[k](len(block)) for k, block in zip(picks, g.blocks)]
        stack = BlockStack.of(g, data, exact=exact)
        for grp, arr in zip(g.groups, stack.arrays):
            want = promote(np.stack([np.asarray(data[b]) for b in grp.blocks]), exact)
            assert arr.dtype == want.dtype and np.array_equal(arr, want)
            for b in grp.blocks:
                assert not np.shares_memory(arr, np.asarray(data[b]))
    arrays = [rng.standard_normal((len(b), len(b))) for b in g.blocks]
    stack = BlockStack.of(g, arrays)
    arrays[0][0, 0] += 1.0
    s, r = g.slots[0]
    assert stack.arrays[s][r, 0, 0] == arrays[0][0, 0] - 1.0


def assert_integer_form_is_the_split(el):
    """The integer parts an element carries are those of its entries, array by array."""
    assert "_integers" in el.__dict__, "the integer parts were not passed on"
    for parts, arr in zip(el._integers, el.stack.arrays):
        num, den = _integer_parts(arr)
        got_num, got_den = parts
        assert got_num.shape == num.shape and got_den.shape == den.shape
        assert all(type(p) is int and p == q for p, q in zip(got_num.flat, num.flat))
        assert all(type(p) is int and p == q for p, q in zip(got_den.flat, den.flat))


@pytest.mark.parametrize("kind", EXACT_KINDS + ("zeros",))
def test_integer_parts_passed_on_are_those_of_the_result(g_exact, rng, kind):
    if kind == "zeros":
        # zero blocks (the even ones) and zero entries in the others
        values = [np.array(v) * (blk % 2) for blk, v in
                  enumerate(exact_element(g_exact, rng).values)]
        for v in values:
            v.flat[::3] = 0
        a, b = AlgebraElement(g_exact, values), exact_element(g_exact, rng, "int")
    else:
        a, b = exact_element(g_exact, rng, kind), exact_element(g_exact, rng, kind)
    for c in (convolve(a, b), convolve(b, a), involution(convolve(a, b)), convolve(a, a)):
        assert_integer_form_is_the_split(c)
        assert all(type(t) is Fraction for u in c.values for t in u.flat)
    # the operand's own parts, made when it was built, go to its involution
    assert None not in a._integers
    assert_integer_form_is_the_split(involution(a))


def test_integer_parts_stay_reduced_along_a_chain_of_unit_products(g_exact, rng):
    # the unit exactly, 1/w on the diagonal
    e = AlgebraElement(g_exact, [
        np.diag(np.array([1 / Fraction(g_exact.space.weight(x)) for x in block], dtype=object))
        for block in g_exact.blocks])
    a = exact_element(g_exact, rng, "mixed")
    c = a
    for step in range(30):
        c = convolve(e, c) if step % 2 else convolve(c, e)
        assert_integer_form_is_the_split(c)
    for u, v in zip(c.values, a.values):
        assert all(type(t) is Fraction for t in u.flat)
        assert np.array_equal(u, v)


def test_fiber_norms_match_per_point_reference(g, rng):
    R = represent(random_element(g, rng))
    for grp, norms in zip(g.groups, R.norms):
        assert norms.shape == (len(grp.blocks),)
        for b, norm in zip(grp.blocks.tolist(), norms):
            for x in g.blocks[b]:
                # the weighted norm squared is the largest eigenvalue of
                # R^dagger R = W^-1 M^H W M (not symmetric, but similar to a positive
                # semidefinite matrix)
                M, w = R.fiber(x), weights(g, g.block_index(x))
                evals = np.linalg.eigvals(np.diag(1 / w) @ M.conj().T @ np.diag(w) @ M)
                assert norm == pytest.approx(np.sqrt(evals.real.max()), rel=1e-12)
    assert R.ess_sup() == max(float(norms.max()) for norms in R.norms)
    assert math.isfinite(R.ess_sup())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nan_and_inf_in_the_last_size_group_reach_the_maxima(g, bad):
    # block 4 is the second row of the last size group (size 3)
    assert g.slots[4].tolist() == [len(g.groups) - 1, 1]
    values = [np.ones((len(b), len(b))) for b in g.blocks]
    values[4][1, 2] = bad
    a, b = AlgebraElement(g, values), from_expression(g, "1")
    with np.errstate(invalid="ignore"):
        got = {"max_abs": a.max_abs(), "max_diff": max_diff(a, b),
               "ess_sup": represent(a).ess_sup(), "homomorphism_defect": homomorphism_defect(a, b)}
    for name, value in got.items():
        assert not math.isfinite(value), name
    if np.isinf(bad):
        # an infinite entry makes an infinite fiber norm
        assert got["max_abs"] == got["max_diff"] == got["ess_sup"] == np.inf


# Real expressions in x1, x2 (source) and y1, y2 (destination); on the
# fixture's points x1 = id and x2 = id mod 3.
REAL_ELEMENTS = ("x1*y2 + 1", "sin(x1) - y1*y2")


def stored_dtypes(*things):
    """The dtypes of every array stored by elements, operator fields and densities."""
    return {arr.dtype for t in things for arr in t.stack.arrays}


def test_real_data_stays_float64(g, rng):
    a, b = (from_expression(g, e) for e in REAL_ELEMENTS)
    plain = AlgebraElement(g, a.values)
    f = BaseFunction.from_expression(g.space, "x1^2 + x2")
    P = Derivation.from_expressions(g.space, ["x2", "1"])
    R = represent(a)
    uniform = DensityField.uniform(g)
    results = [
        a, b, plain, convolve(a, b), convolve(plain, b), involution(a), unit(g),
        convolve(unit(g), a), module_action(f, a), module_action(f, plain),
        a + b, a - plain, -a, 2 * a, a * 0.5, a * Fraction(1, 3),
        lift_symmetrized(P, a), commutator_apply(P, f, a),
        random_element(g, rng, with_jets=True, real=True),
        R, R.adjoint(), R.adjoint() @ R, R - RandomOperator.identity(g), 3 * R,
        0 * RandomOperator.identity(g), uniform,
    ]
    assert stored_dtypes(*results) == {np.dtype(float)}
    assert f.values.dtype == f.grads.dtype == P.coeffs.dtype == float
    assert make_state(uniform).normalization == pytest.approx(1.0, abs=1e-14)
    chain = split_chain()
    top = from_expression(chain.level(0).groupoid, REAL_ELEMENTS[1])
    assert stored_dtypes(top, restrict(top, chain, 0)) == {np.dtype(float)}


def test_one_complex_operand_makes_the_result_complex128(g, rng):
    a = from_expression(g, REAL_ELEMENTS[0]).with_jets()
    z = random_element(g, rng, with_jets=True)
    n, dim = len(g.space.points), g.space.dimension
    complex_f = BaseFunction(g.space, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                             rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
    # real values, complex gradient: the jet update must still fit
    complex_grad = BaseFunction(g.space, rng.standard_normal(n),
                                1j * rng.standard_normal((n, dim)))
    complex_P = Derivation(g.space, 1j * rng.standard_normal((n, dim)))
    results = [
        convolve(a, z), convolve(z, a), convolve(a.values_only(), z), a + z, z - a, a * 1j,
        module_action(complex_f, a), module_action(complex_grad, a),
        lift_symmetrized(complex_P, a), commutator_apply(complex_P, complex_f, a),
        represent(a) @ represent(z), represent(z) @ represent(a), represent(a) * (1 + 2j),
        DensityField(g, [M.astype(complex) for M in DensityField.uniform(g).matrices]),
    ]
    assert stored_dtypes(*results) == {np.dtype(complex)}
    assert np.isfinite(leibniz_defect(complex_P, a, z))


def test_object_dtype_stays_object(g, rng):
    a, b = exact_element(g, rng), exact_element(g, rng)
    for c in (convolve(a, b), involution(a), a + b, a - b, -a, a * Fraction(2, 3), 3 * a):
        for u in c.values:
            assert u.dtype == object and all(type(t) is Fraction for t in u.flat)
    x, y = g.blocks[0][:2]
    assert (a * Fraction(2, 3)).value_at(x, y) == a.value_at(x, y) * Fraction(2, 3)
    # integer entries convolve to Fractions and stay what they are under the involution
    for kind in ("int", "int64"):
        i, j = exact_element(g, rng, kind), exact_element(g, rng, kind)
        for u in convolve(i, j).values + convolve(a, i).values:
            assert u.dtype == object and all(type(t) is Fraction for t in u.flat)
        for u, v in zip(involution(i).values, i.values):
            assert u.dtype == object and [type(t) for t in u.flat] == [type(t) for t in v.T.flat]


def test_exact_weights_are_made_once(g_exact):
    for grp in g_exact.groups:
        parts = grp.integer_weights
        num, den = parts
        assert parts is grp.integer_weights and not (num.flags.writeable or den.flags.writeable)
        assert num.shape == grp.weights.shape and den.shape == (len(grp.blocks), 1)
        for n, d, v in zip(num, den[:, 0], grp.weights):
            assert d == math.lcm(*(Fraction(x).denominator for x in v))
            assert all(type(p) is int and Fraction(p, d) == Fraction(x) for p, x in zip(n, v))


def as_complex(a):
    """The same element with every channel cast to complex128."""
    return AlgebraElement.from_stack(a.stack.map(lambda arr: arr.astype(complex)))


def test_real_results_match_the_complex_cast_computation(g):
    a, b = (from_expression(g, e).with_jets() for e in REAL_ELEMENTS)
    f = BaseFunction.from_expression(g.space, "x1^2 + x2")
    P = Derivation.from_expressions(g.space, ["x2", "1"])
    az, bz = as_complex(a), as_complex(b)
    fz = BaseFunction(g.space, f.values.astype(complex), f.grads.astype(complex))
    Pz = Derivation(g.space, P.coeffs.astype(complex))
    uniform = DensityField.uniform(g)
    uniform_z = DensityField(g, [M.astype(complex) for M in uniform.matrices])
    pairs = [
        (convolve(a, b), convolve(az, bz)),
        (convolve(a.values_only(), b), convolve(az.values_only(), bz)),
        (involution(a), involution(az)),
        (module_action(f, a), module_action(fz, az)),
        (lift_symmetrized(P, a), lift_symmetrized(Pz, az)),
        (commutator_apply(P, f, a), commutator_apply(Pz, fz, az)),
        (represent(a).adjoint() @ represent(b), represent(az).adjoint() @ represent(bz)),
    ]
    # each entry sums at most one class of products of two operands
    mass = max(float(grp.weights.sum(axis=1).max()) for grp in g.groups)
    largest = max(float(np.abs(x).max()) for x in (*a.stack.arrays, *b.stack.arrays,
                                                    f.values, f.grads, P.coeffs))
    scale = largest ** 2 * mass
    for real, cplx in pairs:
        for u, v in zip(real.stack.arrays, cplx.stack.arrays):
            assert u.dtype == float and v.dtype == complex
            np.testing.assert_allclose(u, v, rtol=0, atol=1e-14 * scale)
    for u, v in zip(uniform.matrices, uniform_z.matrices):
        assert u.dtype == float and v.dtype == complex
        np.testing.assert_array_equal(u, v)
    R = represent(a)
    got = expect(make_state(uniform), R)
    want = expect(make_state(uniform_z), represent(az))
    assert abs(got - want) <= 1e-14 * R.ess_sup()


def test_single_values_are_python_complex_on_real_stacks(g):
    a = from_expression(g, REAL_ELEMENTS[0])
    f = BaseFunction.from_expression(g.space, "x1^2 + x2")
    x, y = g.blocks[0][:2]
    jet = a.jet_at(x, y)
    state = make_state(DensityField.uniform(g))
    got = [a.value_at(x, y), f.value_at(x), expect(state, represent(a)),
           jet.value, *jet.d_src, *jet.d_dst]
    assert all(type(v) is complex for v in got)
    assert a.value_at(x, y) == jet.value == x * (y % 3) + 1
    assert jet.d_src == (y % 3, 0) and jet.d_dst == (0, x)
    assert f.value_at(x) == x ** 2 + x % 3


def _diagonal(g):
    """The same points, glued by the identity relation instead."""
    return build_groupoid(g.space, Partition.identity(g.space.id_array))


@pytest.mark.parametrize("misuse, message", [
    (lambda g: double_commutant([represent(unit(g)), represent(unit(_diagonal(g)))]),
     "generators live on different groupoids"),
    (lambda g: max_diff(unit(g), unit(_diagonal(g))), "elements live on different groupoids"),
    (lambda g: module_action(
        BaseFunction.from_expression(DiffSpace(g.space.points, 2, ()), "x1"), unit(g)),
     "function and element live on different spaces"),
    (lambda g: unit(g).stack.restrict(build_groupoid(g.space, Partition.total(g.space.id_array))),
     "levels do not refine"),
], ids=["_gather", "max_diff", "module_action", "BlockStack.restrict"])
def test_operands_from_different_groupoids_are_refused(g, misuse, message):
    with pytest.raises(ValueError, match=message):
        misuse(g)
