"""States, expectation functionals, commutants and bicommutants."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ncgroupoid import (
    DensityField,
    DiffSpace,
    GeneratorFunction,
    Partition,
    Point,
    RandomOperator,
    arrow_basis,
    big_matrix,
    build_groupoid,
    double_commutant,
    expect,
    hausdorff_relation,
    make_state,
    random_element,
    represent,
    unit,
)
from ncgroupoid.vonneumann import MAX_TOTAL_DIM, NORM_TOL

from conftest import grid_space, line_space, random_groupoid, total_pair_space


def total_pair_groupoid(weights=(1.0, 1.0)):
    space = total_pair_space(weights)
    return build_groupoid(space, hausdorff_relation(space))


def fiber_dim(g, x):
    return len(g.blocks[g.block_index(x)])


def ambient_dim(g):
    return sum(fiber_dim(g, x) for x in g.space.ids)


def commutant_dim_oracle(mats, D):
    """dim{X : XG = GX for all G} by explicit row construction and SVD rank.

    Independent of the library path: rows of the linear system are indexed
    by (generator, i, j), the unknown is vec(X) with X[k, l] at k*D + l.
    """
    rows = []
    for G in mats:
        for i in range(D):
            for j in range(D):
                row = np.zeros(D * D, dtype=complex)
                for k in range(D):
                    # (XG - GX)[i, j] = sum_k X[i,k] G[k,j] - G[i,k] X[k,j]
                    row[i * D + k] += G[k, j]
                    row[k * D + j] -= G[i, k]
                rows.append(row)
    K = np.array(rows)
    s = np.linalg.svd(K, compute_uv=False)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size and s[0] > 0 else 1.0)))
    return D * D - rank


# ----------------------------------------------------------------- states

def test_uniform_state_is_valid_and_faithful():
    g = total_pair_groupoid(weights=(1.0, 2.0))
    state = make_state(DensityField.uniform(g))
    assert state.faithful and state.min_eigenvalue > 0
    assert state.normalization == pytest.approx(1.0, abs=1e-12)


def test_uniform_state_normalization_by_hand():
    # z = sum_x w_x m_x with m_x the fiber dimension; uniform density is
    # I/z per point, so the integral of the trace is exactly 1.
    g = total_pair_groupoid(weights=(1.0, 2.0))
    z = sum(g.space.weight(x) * fiber_dim(g, x) for x in g.space.ids)
    field = DensityField.uniform(g)
    for x in g.space.ids:
        np.testing.assert_allclose(field.matrix(x), np.eye(2) / z)


def test_uniform_state_normalizes_on_a_glued_pair_at_weight_1e308():
    # z = 2 (1e308 + 1) overflows as a plain sum; the density is about 5e-309 per entry
    g = total_pair_groupoid(weights=(1e308, 1.0))
    state = make_state(DensityField.uniform(g))
    assert abs(state.normalization - 1.0) <= NORM_TOL
    assert state.faithful


def test_rank_deficient_density_is_valid_but_not_faithful():
    g = total_pair_groupoid()
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    z = sum(g.space.weight(x) for x in g.space.ids)
    state = make_state(DensityField(g, [p / z, p / z]))
    assert state.min_eigenvalue == 0.0
    assert not state.faithful


def test_non_hermitian_density_rejected():
    g = total_pair_groupoid()
    m = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex) / 2
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        make_state(DensityField(g, [m, m]))


def test_negative_eigenvalue_rejected():
    g = total_pair_groupoid()
    m = np.diag([1.5, -0.5]).astype(complex) / 2
    with pytest.raises(ValueError, match="negative"):
        make_state(DensityField(g, [m, m]))


def test_unnormalized_density_rejected():
    g = total_pair_groupoid()
    m = np.eye(2, dtype=complex)  # integral of the trace is 4, not 1
    with pytest.raises(ValueError, match="normali"):
        make_state(DensityField(g, [m, m]))


def test_density_shape_guard():
    g = total_pair_groupoid()
    with pytest.raises(ValueError, match="shape"):
        DensityField(g, [np.eye(3), np.eye(3)])


# ----------------------------------------------------------- expectations

def test_expectation_of_identity_is_one(rng):
    for _ in range(5):
        g = random_groupoid(rng)
        state = make_state(DensityField.uniform(g))
        val = expect(state, RandomOperator.identity(g))
        assert val == pytest.approx(1.0, abs=1e-12)


def test_expectation_is_linear(rng):
    g = random_groupoid(rng)
    state = make_state(DensityField.uniform(g))
    R = represent(arrow_basis(g)[0])
    S = RandomOperator.identity(g)
    lhs = expect(state, 2.0 * R + S)
    rhs = 2.0 * expect(state, R) + expect(state, S)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_expectation_by_hand():
    # Phi(R) = sum_x w_x tr(rho(x) R(x)) on the two point class
    g = total_pair_groupoid(weights=(1.0, 3.0))
    state = make_state(DensityField.uniform(g))
    R = RandomOperator(g, [np.array([[2.0, 0.0], [0.0, 6.0]], dtype=complex)])
    z = 1.0 * 2 + 3.0 * 2
    want = sum(g.space.weight(x) * (2.0 + 6.0) / z for x in g.space.ids)
    assert expect(state, R) == pytest.approx(want, abs=1e-12)


def test_positivity_on_squares_uniform_weights(rng):
    # With the uniform density the weighted adjoint commutes with rho, so
    # Phi(R^+ R) >= 0 holds; exercised on random operators.
    g = total_pair_groupoid()
    state = make_state(DensityField.uniform(g))
    for _ in range(50):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        R = RandomOperator(g, [m])
        val = expect(state, R.adjoint() @ R)
        assert val.real >= -1e-12
        assert abs(val.imag) <= 1e-12


def test_probability_space_rejects_mismatched_parts(rng):
    g1 = total_pair_groupoid()
    g2 = random_groupoid(rng, dim=2)
    if g1.same_structure(g2):
        pytest.skip("random structure happens to match")
    state = make_state(DensityField.uniform(g1))
    with pytest.raises(ValueError, match="different groupoids"):
        expect(state, RandomOperator.identity(g2))


# ------------------------------------------------------------- commutant

def test_big_matrix_is_block_diagonal():
    space = grid_space()
    g = build_groupoid(space, hausdorff_relation(space))
    R = RandomOperator.identity(g)
    B = big_matrix(R)
    D = ambient_dim(g)
    assert B.shape == (D, D)
    np.testing.assert_array_equal(B, np.eye(D))


def test_big_matrix_repeats_class_fibers():
    g = total_pair_groupoid(weights=(1.0, 2.0))
    R = represent(unit(g))
    B = big_matrix(R)
    want = scipy.linalg.block_diag(R.fiber(0), R.fiber(1))
    np.testing.assert_array_equal(B, want)


def test_commutant_of_identity_is_everything():
    space = line_space(2)
    g = build_groupoid(space, hausdorff_relation(space))
    basis = double_commutant([RandomOperator.identity(g)]).commutant
    assert basis.dim == 4  # ambient D = 2, commutant of {I} is all of M_2


def test_commutant_dims_on_total_two_point_class():
    # The represented arrow basis generates the full 2x2 matrix algebra,
    # embedded twice (one block per point).  Its commutant in M_4 is
    # spanned by scalars on the joint copy and the swap-free complement:
    # dimension 4; the bicommutant recovers the span, dimension 4.
    g = total_pair_groupoid()
    gens = [represent(e) for e in arrow_basis(g)]
    mats = [big_matrix(G) for G in gens]
    D = mats[0].shape[0]
    rep = double_commutant(gens)
    assert rep.commutant.dim == commutant_dim_oracle(mats, D)
    assert rep.commutant.dim == 4
    assert rep.bicommutant.dim == 4
    assert rep.span_dim == 4
    assert rep.equals_span
    assert rep.generator_residual <= 1e-10


def test_commutant_dims_on_diagonal_three_points():
    # Three singleton classes: the algebra is the diagonal 3x3 matrices,
    # which is its own commutant (dimension 3).
    space = line_space(3)
    g = build_groupoid(space, hausdorff_relation(space))
    gens = [represent(e) for e in arrow_basis(g)]
    mats = [big_matrix(G) for G in gens]
    rep = double_commutant(gens)
    assert rep.commutant.dim == commutant_dim_oracle(mats, 3)
    assert rep.commutant.dim == 3
    assert rep.bicommutant.dim == 3
    assert rep.equals_span


def test_commutant_matches_oracle_on_random_structures(rng):
    for _ in range(5):
        g = random_groupoid(rng, max_points=5, max_block=3)
        if ambient_dim(g) > MAX_TOTAL_DIM:
            continue
        gens = [represent(e) for e in arrow_basis(g)]
        mats = [big_matrix(G) for G in gens]
        rep = double_commutant(gens)
        assert rep.commutant.dim == commutant_dim_oracle(mats, mats[0].shape[0])


def test_commutant_basis_actually_commutes():
    g = total_pair_groupoid()
    gens = [represent(e) for e in arrow_basis(g)]
    basis = double_commutant(gens).commutant
    mats = [big_matrix(G) for G in gens]
    for X in basis.stack:
        for G in mats:
            assert np.linalg.norm(X @ G - G @ X) <= 1e-10


def test_commutant_basis_is_orthonormal():
    g = total_pair_groupoid()
    basis = double_commutant([represent(e) for e in arrow_basis(g)]).commutant
    for i, A in enumerate(basis.stack):
        for j, B in enumerate(basis.stack):
            want = 1.0 if i == j else 0.0
            assert np.vdot(A, B) == pytest.approx(want, abs=1e-10)


def test_generators_land_in_bicommutant(rng):
    g = random_groupoid(rng, max_points=4, max_block=3)
    gens = [represent(e) for e in arrow_basis(g)]
    rep = double_commutant(gens)
    for G in gens:
        assert rep.bicommutant.residual(big_matrix(G)) <= 1e-10


@pytest.mark.parametrize("glued", [False, True])
@pytest.mark.parametrize("tiny", [1e-11, 5e-324])
def test_span_counts_a_generator_far_smaller_than_another(glued, tiny):
    # weights (tiny, 1): the arrow basis's generators on the first point are tiny
    # times those on the second, and still span their own directions
    pts = [Point(id=0, coords=(0.0,), weight=tiny), Point(id=1, coords=(1.0,), weight=1.0)]
    space = DiffSpace(pts, 1, () if glued else [GeneratorFunction("f", "x1", 1)])
    g = build_groupoid(space, hausdorff_relation(space))
    rep = double_commutant([represent(e) for e in arrow_basis(g)])
    assert rep.span_dim == rep.bicommutant.dim == (4 if glued else 2)
    assert rep.equals_span


def _weighted_groupoid(blocks):
    """Constants-only points 0..n-1 with weights 1, 0.5, 2 in turn, partitioned into ``blocks``."""
    n = sum(len(b) for b in blocks)
    pts = [Point(id=x, coords=(float(x),), weight=(1.0, 0.5, 2.0)[x % 3]) for x in range(n)]
    space = DiffSpace(pts, 1, ())
    return build_groupoid(space, Partition(blocks))


def _two_random_elements(g):
    rng = np.random.default_rng(7)
    return [represent(random_element(g, rng)) for _ in range(2)]


GENERATOR_SETS = {
    "arrow_basis": lambda g: [represent(e) for e in arrow_basis(g)],
    "identity": lambda g: [RandomOperator.identity(g)],
    # the delta on the arrow (0, 4), inside the first class
    "unit_and_delta": lambda g: [represent(unit(g)), represent(arrow_basis(g)[1])],
    "random_elements": _two_random_elements,
}


def _assert_orthonormal(basis):
    flat = np.array([m.ravel() for m in basis.stack])
    np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(basis.dim), atol=1e-10)


def test_total_class_of_eight_points():
    # D = 64, the largest ambient dimension the guard admits
    space = line_space(8)
    g = build_groupoid(space, Partition.total(space.ids))
    gens = [represent(e) for e in arrow_basis(g)]
    gc.collect()
    tracemalloc.start()
    try:
        rep = double_commutant(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.commutant.dim, rep.bicommutant.dim, rep.span_dim) == (64, 64, 64)
    assert rep.commutant.ambient_dim == 64
    assert rep.equals_span
    assert rep.generator_residual <= 1e-10
    assert peak < 200 * 2 ** 20


@pytest.mark.parametrize("gens", sorted(set(GENERATOR_SETS) - {"arrow_basis"}))
def test_commutant_matches_oracle_on_mixed_class_sizes(gens):
    # class sizes 3, 1, 2, 1, 3 with interleaved points, D = 24; the arrow
    # basis there is left to the closed form (the oracle's system would be
    # 13,824 x 576)
    g = _weighted_groupoid([(0, 4, 7), (1,), (2, 5), (3,), (6, 8, 9)])
    G = GENERATOR_SETS[gens](g)
    mats = [big_matrix(R) for R in G]
    basis = double_commutant(G).commutant
    assert basis.ambient_dim == 24
    assert basis.dim == commutant_dim_oracle(mats, 24)
    _assert_orthonormal(basis)
    for X in basis.stack:
        for M in mats:
            assert np.linalg.norm(X @ M - M @ X) <= 1e-10


def test_commutant_of_arrow_basis_on_mixed_class_sizes():
    g = _weighted_groupoid([(0, 4, 7), (1,), (2, 5), (3,), (6, 8, 9)])
    rep = double_commutant(GENERATOR_SETS["arrow_basis"](g))
    assert (rep.commutant.dim, rep.bicommutant.dim, rep.span_dim) == (24, 24, 24)
    assert rep.equals_span and rep.generator_residual <= 1e-10


@pytest.mark.parametrize("gens", sorted(GENERATOR_SETS))
def test_bicommutant_matches_dense_nullspace(gens):
    # class sizes 2, 1, 2, D = 9: the commutant of the returned commutant
    # basis, solved densely, has the bicommutant's dimension
    g = _weighted_groupoid([(0, 3), (1,), (2, 4)])
    G = GENERATOR_SETS[gens](g)
    rep = double_commutant(G)
    first = list(rep.commutant.stack)
    assert rep.bicommutant.dim == commutant_dim_oracle(first, 9)
    assert rep.commutant.dim == commutant_dim_oracle([big_matrix(R) for R in G], 9)
    _assert_orthonormal(rep.commutant)
    _assert_orthonormal(rep.bicommutant)
    for X in rep.bicommutant.stack:
        for Y in first:
            assert np.linalg.norm(X @ Y - Y @ X) <= 1e-10
    for R in G:
        assert rep.bicommutant.residual(big_matrix(R)) <= 1e-10


@pytest.mark.parametrize("gens", sorted(GENERATOR_SETS))
def test_bicommutant_basis_is_big_matrix_of_its_class_matrices(gens):
    # each basis matrix is class-constant and block-diagonal: reading the class matrices
    # off the diagonal and embedding them again through big_matrix gives it back exactly
    g = _weighted_groupoid([(0, 3), (1,), (2, 4)])
    rep = double_commutant(GENERATOR_SETS[gens](g))
    dims = [fiber_dim(g, x) for x in g.space.ids]
    offset = dict(zip(g.space.ids, np.cumsum(dims) - dims))
    for X in rep.bicommutant.stack:
        mats = [X[offset[b[0]]:offset[b[0]] + len(b), offset[b[0]]:offset[b[0]] + len(b)]
                for b in g.blocks]
        assert big_matrix(RandomOperator(g, mats)).tobytes() == X.tobytes()


def test_dimension_guard():
    space = line_space(MAX_TOTAL_DIM + 1)
    g = build_groupoid(space, hausdorff_relation(space))
    with pytest.raises(ValueError, match="dimension"):
        double_commutant([RandomOperator.identity(g)])


def test_library_runs_without_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from ncgroupoid import *\n"
        "space = build_space(gallery_config('grid_2x2'))\n"
        "g = build_groupoid(space, hausdorff_relation(space))\n"
        "report = double_commutant([represent(e) for e in arrow_basis(g)])\n"
        "assert report.equals_span, report\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_runs_without_sympy(tmp_path):
    # sympy is a test-only oracle: the command line and the README quick
    # start run with its import blocked
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "import ncgroupoid.cli\n"
        f"code = ncgroupoid.cli.run(['verify', 'all', '--out', {str(tmp_path)!r}])\n"
        f"exec({quick_start!r})\n"
        "print(code, sorted(m for m, mod in sys.modules.items()\n"
        "                   if m.split('.')[0] == 'sympy' and mod is not None))\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "94 checks: 93 passed, 0 failed, 1 skipped" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_evaluation_loads_no_numpy_test_machinery():
    # lambdify with modules="numpy" runs `from numpy import *`, which loads
    # numpy.f2py, numpy.testing and unittest on the first expression
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from ncgroupoid import *\n"
        "space = build_space(gallery_config('grid_2x2'))\n"
        "g = build_groupoid(space, hausdorff_relation(space))\n"
        "a = from_expression(g, 'x1*y2 + sin(x2)')\n"
        "report = double_commutant([represent(e) for e in arrow_basis(g)])\n"
        "print(sorted(m for m in ('numpy.f2py', 'numpy.testing', 'unittest') if m in sys.modules))\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
