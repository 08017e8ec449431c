"""The size-stacked block core against plain per-block numpy references.

The groupoid here has blocks of sizes 3, 1, 2, 1, 3 in block order, so
the size groups interleave, and its points are listed out of id order,
so point positions differ from point ids.
"""

from fractions import Fraction

import numpy as np
import pytest

from ncgroupoid import (
    AlgebraElement,
    BaseFunction,
    DensityField,
    DiffSpace,
    Partition,
    Point,
    RandomOperator,
    build_groupoid,
    convolve,
    deformation_chain,
    expect,
    involution,
    make_state,
    module_action,
    random_element,
    random_operator_report,
    represent,
    restrict,
)

from conftest import DYADIC_WEIGHTS

BLOCKS = [(0, 4, 7), (1,), (2, 5), (3,), (6, 8, 9)]
ORDER = (5, 2, 9, 0, 7, 1, 8, 3, 6, 4)


@pytest.fixture
def g():
    pts = [
        Point(id=x, coords=(float(x), float(x % 3)), weight=DYADIC_WEIGHTS[x % 4])
        for x in ORDER
    ]
    space = DiffSpace(pts, 2, (), constants_only=True)
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
    a = random_element(g, rng, with_jets=True)
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
        norms.append(np.linalg.norm(M, 2))
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
    def element():
        return AlgebraElement(g, [
            np.array([[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                       for _ in block] for _ in block], dtype=object)
            for block in g.blocks
        ])

    a, b, c = element(), element(), element()
    lhs = convolve(convolve(a, b), c)
    rhs = convolve(a, convolve(b, c))
    for u, v in zip(lhs.values, rhs.values):
        assert u.dtype == object
        assert all(type(t) is Fraction for t in u.flat)
        assert np.array_equal(u, v)


def fraction_element(g, rng):
    return AlgebraElement(g, [
        np.array([[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                   for _ in block] for _ in block], dtype=object)
        for block in g.blocks
    ])


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


def test_restrict_and_involution_keep_fractions_exact(rng):
    # x1 = x mod 3 splits the one level-0 class into classes of 4, 3 and 3 points
    pts = [Point(id=x, coords=(float(x % 3), float(x)), weight=DYADIC_WEIGHTS[x % 4])
           for x in ORDER]
    chain = deformation_chain(DiffSpace(pts, 2, (), constants_only=True))
    g0 = chain.level(0).groupoid
    a = fraction_element(g0, rng)
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
    assert_same_element(AlgebraElement(g, a.values, d_src=a.d_src, d_dst=a.d_dst), a)


def test_random_element_draws_blocks_in_block_order(g):
    n = g.space.dimension
    for real in (False, True):
        a = random_element(g, np.random.default_rng(3), with_jets=True, real=real)
        rng = np.random.default_rng(3)

        def draw(shape):
            if real:
                return rng.standard_normal(shape)
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for family, tail in ((a.values, ()), (a.d_src, (n,)), (a.d_dst, (n,))):
            want = [draw((len(b), len(b)) + tail) for b in g.blocks]
            for got, ref in zip(family, want):
                np.testing.assert_array_equal(got, ref)


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
    assert sum(len(s) for s in rho.stacks) == g.n_blocks
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


def test_operator_report_matches_per_point_reference(g, rng):
    R = represent(random_element(g, rng))
    report = random_operator_report(R)
    assert list(report.fiber_norms) == list(g.space.ids)
    for x in g.space.ids:
        assert report.fiber_norms[x] == np.linalg.norm(R.fiber(x), 2)
    assert report.ess_sup == R.ess_sup() == max(report.fiber_norms.values())
    assert report.measurable and report.bounded
