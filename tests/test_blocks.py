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
    Derivation,
    DiffSpace,
    Partition,
    Point,
    RandomOperator,
    build_groupoid,
    commutator_apply,
    convolve,
    deformation_chain,
    expect,
    from_expression,
    involution,
    leibniz_defect,
    lift_symmetrized,
    make_state,
    module_action,
    random_element,
    random_operator_report,
    represent,
    restrict,
    unit,
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


def split_chain():
    """x1 = x mod 3 splits the one level-0 class into classes of 4, 3 and 3 points."""
    pts = [Point(id=x, coords=(float(x % 3), float(x)), weight=DYADIC_WEIGHTS[x % 4])
           for x in ORDER]
    return deformation_chain(DiffSpace(pts, 2, (), constants_only=True))


def test_restrict_and_involution_keep_fractions_exact(rng):
    chain = split_chain()
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
        RandomOperator.zeros(g), uniform,
    ]
    assert stored_dtypes(*results) == {np.dtype(float)}
    assert f.values.dtype == f.grads.dtype == P.coeffs.dtype == float
    assert make_state(uniform).report.normalization == pytest.approx(1.0, abs=1e-14)
    chain = split_chain()
    top = from_expression(chain.level(0).groupoid, REAL_ELEMENTS[1])
    assert stored_dtypes(top, restrict(top, chain, 0)) == {np.dtype(float)}


def test_one_complex_operand_makes_the_result_complex128(g, rng):
    a = from_expression(g, REAL_ELEMENTS[0])
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
    a, b = fraction_element(g, rng), fraction_element(g, rng)
    for c in (convolve(a, b), involution(a), a + b, a - b, -a, a * Fraction(2, 3), 3 * a):
        for u in c.values:
            assert u.dtype == object and all(type(t) is Fraction for t in u.flat)
    x, y = g.blocks[0][:2]
    assert (a * Fraction(2, 3)).value_at(x, y) == a.value_at(x, y) * Fraction(2, 3)


def test_exact_weights_are_made_once(g):
    for grp in g.groups:
        w = grp.exact_weights
        assert w is grp.exact_weights and not w.flags.writeable
        assert all(type(t) is Fraction and t == Fraction(v) for t, v in zip(w.flat, grp.weights.flat))


def as_complex(a):
    """The same element with every channel cast to complex128."""
    return AlgebraElement.from_stack(a.stack.map(lambda arr: arr.astype(complex)), a.has_jets)


def test_real_results_match_the_complex_cast_computation(g):
    a, b = (from_expression(g, e) for e in REAL_ELEMENTS)
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
