"""Fiberwise representation: matrices, adjoints, norms, measurability."""

import math

import numpy as np
import pytest
import scipy.linalg

from ncgroupoid import (
    DiffSpace,
    Point,
    RandomOperator,
    build_groupoid,
    convolve,
    from_expression,
    hausdorff_relation,
    homomorphism_defect,
    involution,
    random_element,
    represent,
    star_defect,
    unit,
)

from conftest import random_groupoid, random_partition, total_pair_space


def total_pair_groupoid(weights=(1.0, 1.0)):
    space = total_pair_space(weights)
    return build_groupoid(space, hausdorff_relation(space))


# ---------------------------------------------------------------- fibers

def test_fiber_space_shape():
    # the fiber over 0 is its class (0, 1) with weights (1, 2): its group row
    g = total_pair_groupoid(weights=(1.0, 2.0))
    b, _ = g.point_pos[g.space.index_of(0)]
    s, r = g.slots[b]
    grp = g.groups[s]
    assert grp.m == 2
    assert [g.space.points[p].id for p in grp.index[r]] == [0, 1]
    np.testing.assert_array_equal(grp.weights[r], [1.0, 2.0])
    assert represent(from_expression(g, "1")).fiber(0).shape == (2, 2)


def test_represented_matrix_entries():
    # M[i, j] = a(z_i, z_j) * w_j
    g = total_pair_groupoid(weights=(1.0, 2.0))
    a = from_expression(g, "x1 + 2*y1 + 1")
    R = represent(a)
    m = R.fiber(0)
    assert m[0, 0] == a.value_at(0, 0) * 1.0
    assert m[0, 1] == a.value_at(0, 1) * 2.0
    assert m[1, 0] == a.value_at(1, 0) * 1.0
    assert m[1, 1] == a.value_at(1, 1) * 2.0


def test_fibers_share_matrix_per_class():
    g = total_pair_groupoid()
    R = represent(from_expression(g, "x1*y1 + 1"))
    assert R.fiber(0) is R.fiber(1)


def test_action_matches_convolution_on_vectors(rng):
    # The matrix acts as psi(x) -> sum_z a(x, z) psi(z) w_z, the same sum
    # convolution uses; check against an explicit loop.
    g = random_groupoid(rng)
    a = random_element(g, rng)
    R = represent(a)
    for block in g.blocks:
        w = np.array([g.space.weight(x) for x in block])
        psi = rng.standard_normal(len(block)) + 1j * rng.standard_normal(len(block))
        out = R.fiber(block[0]) @ psi
        for i, x in enumerate(block):
            s = sum(a.value_at(x, z) * psi[j] * w[j] for j, z in enumerate(block))
            assert out[i] == pytest.approx(s, rel=1e-12, abs=1e-12)


# --------------------------------------------------------- homomorphism

def test_representation_is_multiplicative(rng):
    for _ in range(20):
        g = random_groupoid(rng)
        a = random_element(g, rng)
        b = random_element(g, rng)
        scale = max(1.0, a.max_abs() * b.max_abs())
        assert homomorphism_defect(a, b) <= 1e-12 * scale


def test_representation_is_multiplicative_exactly_on_small_ints():
    g = total_pair_groupoid()
    a = from_expression(g, "x1 + y1")
    b = from_expression(g, "x1*y1 + 2")
    lhs = represent(convolve(a, b))
    rhs = represent(a) @ represent(b)
    assert (lhs - rhs).ess_sup() == 0.0


def test_unit_represents_as_identity(rng):
    for _ in range(5):
        g = random_groupoid(rng)
        R = represent(unit(g))
        E = RandomOperator.identity(g)
        assert (R - E).ess_sup() == 0.0


def test_star_maps_to_weighted_adjoint(rng):
    for _ in range(20):
        g = random_groupoid(rng)
        a = random_element(g, rng)
        assert star_defect(a) <= 1e-12 * max(1.0, a.max_abs())


def test_adjoint_is_adjoint_for_weighted_inner_product(rng):
    # <R psi, phi>_w = <psi, R^+ phi>_w with <u, v>_w = sum conj(u_i) v_i w_i
    g = random_groupoid(rng)
    R = represent(random_element(g, rng))
    S = R.adjoint()
    for block in g.blocks:
        x = block[0]
        w = np.array([g.space.weight(y) for y in block])
        n = len(block)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.sum(np.conj(R.fiber(x) @ psi) * phi * w)
        rhs = np.sum(np.conj(psi) * (S.fiber(x) @ phi) * w)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_adjoint_is_involutive(rng):
    g = random_groupoid(rng)
    R = represent(random_element(g, rng))
    assert (R.adjoint().adjoint() - R).ess_sup() <= 1e-14 * max(1.0, R.ess_sup())


# ------------------------------------------------------------ sup norm

def test_ess_sup_of_all_ones_two_point_class():
    # a = 1 on a two point class with unit weights represents as the 2x2
    # all-ones matrix, whose operator norm is 2.
    g = total_pair_groupoid()
    R = represent(from_expression(g, "1"))
    assert R.ess_sup() == pytest.approx(2.0, abs=1e-12)


def test_ess_sup_matches_eigenvalue_oracle(rng):
    g = random_groupoid(rng)
    a = random_element(g, rng)
    R = represent(a)
    best = 0.0
    for block in g.blocks:
        m = R.fiber(block[0])
        W = np.diag([g.space.weight(x) for x in block])
        # the squared operator norm for <psi, phi> = psi^H W phi is the largest
        # eigenvalue of the pencil (m^H W m, W)
        evals = scipy.linalg.eigh(m.conj().T @ W @ m, W, eigvals_only=True)
        best = max(best, float(np.sqrt(max(evals[-1], 0.0))))
    assert R.ess_sup() == pytest.approx(best, rel=1e-10, abs=1e-12)


def test_ess_sup_is_submultiplicative(rng):
    for _ in range(10):
        g = random_groupoid(rng)
        R = represent(random_element(g, rng))
        S = represent(random_element(g, rng))
        assert (R @ S).ess_sup() <= R.ess_sup() * S.ess_sup() + 1e-10


def random_weight_groupoid(rng):
    """Random classes of up to 6 of 12 points with weights drawn from [0.1, 5]."""
    pts = [Point(id=i, coords=(float(i),), weight=float(w))
           for i, w in enumerate(rng.uniform(0.1, 5.0, size=12))]
    space = DiffSpace(pts, 1, ())
    return build_groupoid(space, random_partition(rng, space.ids))


def test_ess_sup_is_a_c_star_norm_for_non_unit_weights(rng):
    # ||R^dagger R|| = ||R||^2 holds for the norm of the weighted fiber space only
    for _ in range(20):
        R = represent(random_element(random_weight_groupoid(rng), rng))
        assert (R.adjoint() @ R).ess_sup() == pytest.approx(R.ess_sup() ** 2, rel=1e-12)
    # weights 1 and 2, a = 1: the plain norm of [[1, 2], [1, 2]] would be sqrt(10)
    R = represent(from_expression(total_pair_groupoid(weights=(1.0, 2.0)), "1"))
    assert R.ess_sup() == pytest.approx(3.0, rel=1e-15)
    assert (R.adjoint() @ R).ess_sup() == pytest.approx(9.0, rel=1e-15)


def test_ess_sup_of_all_ones_is_the_largest_class_mass(rng):
    # a = 1 acts on a class as psi -> <1, psi>_w 1, of norm ||1||_w^2 = the class mass
    for _ in range(20):
        g = random_weight_groupoid(rng)
        mass = max(sum(g.space.weight(x) for x in block) for block in g.blocks)
        R = represent(from_expression(g, "1"))
        assert R.ess_sup() == pytest.approx(mass, rel=1e-13)


def test_fiber_norms_are_computed_once(rng):
    R = represent(random_element(random_weight_groupoid(rng), rng))
    norms = R.norms
    assert R.norms is norms
    sup = R.ess_sup()
    assert R.norms is norms and sup == max(float(n.max()) for n in norms)


def test_huge_and_tiny_fibers_keep_their_norms():
    # S^H S is formed after dividing each block by its largest entry
    g = total_pair_groupoid(weights=(1.0, 2.0))
    for c in (1e200, 1e-200):
        R = represent(from_expression(g, "1")) * c
        assert R.ess_sup() == pytest.approx(3.0 * c, rel=1e-14)
    assert (0 * RandomOperator.identity(g)).ess_sup() == 0.0


# ---------------------------------------------------------------- report

def test_report_on_represented_element(rng):
    g = random_groupoid(rng)
    R = represent(random_element(g, rng))
    sup = R.ess_sup()
    assert math.isfinite(sup)
    # the largest of the class norms, read block by block
    assert sup == max(float(R.norms[s][r]) for s, r in g.slots.tolist())


def test_constructor_rejects_wrong_fiber_shape():
    g = total_pair_groupoid()
    with pytest.raises(ValueError):
        RandomOperator(g, [np.eye(3)])


def test_operator_algebra_ops():
    g = total_pair_groupoid()
    R = RandomOperator.identity(g)
    Z = 0 * RandomOperator.identity(g)
    assert ((R - R) - Z).ess_sup() == 0.0
    assert (2.0 * R + Z).fiber(0)[0, 0] == 2.0
    assert (R @ R - R).ess_sup() == 0.0


def test_structure_mismatch_rejected(rng):
    g1 = total_pair_groupoid()
    g2 = random_groupoid(rng, dim=2)
    if g1.same_structure(g2):
        pytest.skip("random structure happens to match")
    with pytest.raises(ValueError):
        RandomOperator.identity(g1) + RandomOperator.identity(g2)
