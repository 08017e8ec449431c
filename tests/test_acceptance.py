"""End-to-end acceptance gate: ten pinned criteria, one printed line each.

Every criterion prints ``[ACCEPTANCE k] label: PASS`` (or FAIL) even under
pytest's capture, so a plain run shows the whole scorecard.  Tolerances are
pinned here and must not be loosened; where a value is claimed exact the
comparison is ``==``.
"""

import math
from fractions import Fraction

import numpy as np
import sympy

from ncgroupoid import (
    AlgebraElement,
    BaseFunction,
    DensityField,
    Derivation,
    DiffSpace,
    GeneratorFunction,
    Partition,
    Point,
    RandomOperator,
    arrow_basis,
    big_matrix,
    build_groupoid,
    commutator_apply,
    commutator_defect,
    consistent_family,
    convolve,
    deformation_chain,
    double_commutant,
    expect,
    from_expression,
    hausdorff_relation,
    homomorphism_defect,
    homomorphism_defect_chain,
    involution,
    leibniz_defect,
    lift_symmetrized,
    make_state,
    max_diff,
    module_action,
    random_element,
    represent,
    star_defect,
    step_n_pointwise_check,
    unit,
)

from conftest import (
    grid_space,
    int_poly,
    line_space,
    make_points,
    random_groupoid,
    random_int_space,
    sympy_coordinates,
    total_pair_space,
)


def verdict(capsys, k, label, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[ACCEPTANCE {k:2d}] {label}: {status}")
    assert not failures, f"{len(failures)} violation(s); first: {failures[0]!r}"


# --------------------------------------------------------------------- 1

def test_criterion_01_gluing_consistency_and_superposition(capsys):
    """50 random spaces: generators constant on classes, relation invariant
    under polynomial recombinations of the generator family."""
    rng = np.random.default_rng(101)
    failures = []
    for trial in range(50):
        space = random_int_space(rng)
        rho = hausdorff_relation(space)
        rep = consistent_family(space, rho)
        if not all(r.consistent for r in rep):
            failures.append((trial, "inconsistent", [r.name for r in rep if not r.consistent]))
            continue
        k = len(space.generators)
        tsyms = sympy.symbols(f"t1:{k + 1}")
        omega = int_poly(rng, tsyms, degree=2)
        combined = omega.subs(
            {t: sympy.sympify(g.expr_text) for t, g in zip(tsyms, space.generators)},
            simultaneous=True,
        )
        extended = DiffSpace(
            space.points, space.dimension,
            list(space.generators)
            + [GeneratorFunction("recombined", combined, space.dimension)],
            eps=space.eps,
        )
        if hausdorff_relation(extended) != rho:
            failures.append((trial, "superposition changed the relation"))
    verdict(capsys, 1, "gluing consistency and superposition invariance", failures)


# --------------------------------------------------------------------- 2

def test_criterion_02_separated_collapse_to_pointwise(capsys):
    """On identity partitions with unit weights convolution is the
    pointwise product: exactly over rationals, to 1e-14 in float."""
    failures = []
    rng = np.random.default_rng(202)
    for trial in range(20):
        space = line_space(int(rng.integers(2, 8)))
        g = build_groupoid(space, hausdorff_relation(space))
        if not g.partition.is_identity:
            failures.append((trial, "partition is not the diagonal"))
            continue
        a = random_element(g, rng)
        b = random_element(g, rng)
        c = convolve(a, b)
        for x in space.ids:
            d = abs(c.value_at(x, x) - a.value_at(x, x) * b.value_at(x, x))
            if d > 1e-14:
                failures.append((trial, x, d))
    space = line_space(4)
    g = build_groupoid(space, hausdorff_relation(space))
    fr = np.random.default_rng(203)
    mk = lambda: AlgebraElement(g, [
        np.array([[Fraction(int(fr.integers(-9, 10)), int(fr.integers(1, 10)))]],
                 dtype=object)
        for _ in range(4)
    ])
    a, b = mk(), mk()
    c = convolve(a, b)
    for x in space.ids:
        lhs = c.value_at(x, x)
        rhs = a.value_at(x, x) * b.value_at(x, x)
        if not (isinstance(lhs, Fraction) and lhs == rhs):
            failures.append(("exact", x, lhs, rhs))
    verdict(capsys, 2, "collapse to pointwise product on separated points", failures)


# --------------------------------------------------------------------- 3

def test_criterion_03_star_algebra_laws(capsys):
    """Associativity and the involution anti-homomorphism on 100 random
    triples/pairs, relative defect at most 1e-12."""
    rng = np.random.default_rng(303)
    failures = []
    for trial in range(100):
        g = random_groupoid(rng, max_points=8, max_block=6)
        a = random_element(g, rng)
        b = random_element(g, rng)
        c = random_element(g, rng)
        assoc = max_diff(convolve(convolve(a, b), c), convolve(a, convolve(b, c)))
        s3 = max(1.0, a.max_abs() * b.max_abs() * c.max_abs())
        if assoc > 1e-12 * s3:
            failures.append((trial, "associativity", assoc / s3))
        anti = max_diff(
            involution(convolve(a, b)),
            convolve(involution(b), involution(a)),
        )
        s2 = max(1.0, a.max_abs() * b.max_abs())
        if anti > 1e-12 * s2:
            failures.append((trial, "anti-homomorphism", anti / s2))
    verdict(capsys, 3, "associativity and involution anti-homomorphism", failures)


# --------------------------------------------------------------------- 4

def test_criterion_04_representation_properties(capsys):
    """Representation is a *-homomorphism on 100 random pairs; the unit
    represents as the identity; fibers are class-constant by construction."""
    rng = np.random.default_rng(404)
    failures = []
    for trial in range(100):
        g = random_groupoid(rng)
        a = random_element(g, rng)
        b = random_element(g, rng)
        s = max(1.0, a.max_abs() * b.max_abs())
        hd = homomorphism_defect(a, b)
        if hd > 1e-12 * s:
            failures.append((trial, "homomorphism", hd / s))
        sd = star_defect(a)
        if sd > 1e-12 * max(1.0, a.max_abs()):
            failures.append((trial, "star", sd))
    g = random_groupoid(np.random.default_rng(405))
    if (represent(unit(g)) - RandomOperator.identity(g)).ess_sup() != 0.0:
        failures.append(("unit", "represent(unit) is not the identity"))
    R = represent(random_element(g, np.random.default_rng(406)))
    for block in g.blocks:
        for x in block:
            if R.fiber(x) is not R.fiber(block[0]):
                failures.append(("class-constancy", x))
    verdict(capsys, 4, "representation homomorphism, star, unit, constancy", failures)


# --------------------------------------------------------------------- 5

def test_criterion_05_operator_norm_of_all_ones(capsys):
    """The all-ones element on the unit-weight two point class has
    essential sup norm exactly 2 (eigenvalues {2, 0}); certified finite."""
    failures = []
    space = total_pair_space((1.0, 1.0))
    g = build_groupoid(space, hausdorff_relation(space))
    R = represent(from_expression(g, "1"))
    sup = R.ess_sup()
    if not math.isfinite(sup):
        failures.append(("bounded", sup))
    if abs(sup - 2.0) > 1e-12:
        failures.append(("ess_sup", sup))
    # independent oracle: direct eigensolve of the explicit fiber matrix
    M = R.fiber(0)
    np.testing.assert_array_equal(M, np.ones((2, 2)))
    eigs = np.linalg.eigvalsh(M.conj().T @ M)
    oracle = float(np.sqrt(max(eigs)))
    if abs(oracle - 2.0) > 1e-12 or abs(sup - oracle) > 1e-12:
        failures.append(("oracle", oracle, sup))
    verdict(capsys, 5, "essential sup norm of the all-ones element", failures)


# --------------------------------------------------------------------- 6

def test_criterion_06_state_axioms(capsys):
    """Uniform density: positive, integrable, normalized, faithful;
    expectation of the identity is 1; nonnegative on squares; a
    rank-deficient density is flagged not faithful."""
    rng = np.random.default_rng(606)
    failures = []
    for trial in range(10):
        g = random_groupoid(rng)
        try:
            state = make_state(DensityField.uniform(g))
        except ValueError as exc:
            failures.append((trial, "axioms", str(exc)))
            continue
        if not (state.faithful and state.min_eigenvalue > 0):
            failures.append((trial, "flags", state))
        if abs(state.normalization - 1.0) > 1e-12:
            failures.append((trial, "normalization", state.normalization))
        if abs(expect(state, RandomOperator.identity(g)) - 1.0) > 1e-12:
            failures.append((trial, "expect(identity)"))
    g = random_groupoid(np.random.default_rng(607), max_points=6, max_block=4)
    state = make_state(DensityField.uniform(g))
    for trial in range(100):
        R = represent(random_element(g, rng))
        val = expect(state, R.adjoint() @ R)
        if val.real < -1e-12 or abs(val.imag) > 1e-12:
            failures.append((trial, "positivity on squares", val))
    gp = build_groupoid(
        total_pair_space((1.0, 1.0)),
        hausdorff_relation(total_pair_space((1.0, 1.0))),
    )
    p = np.array([[0.5, 0.0], [0.0, 0.0]], dtype=complex)
    flagged = make_state(DensityField(gp, [p, p]))
    if flagged.faithful:
        failures.append(("rank-deficient density not flagged",))
    verdict(capsys, 6, "state axioms, positivity, faithfulness flag", failures)


# --------------------------------------------------------------------- 7

def _commutation_rows(mats, D):
    """Rows of the system XG = GX, built entry by entry (oracle path)."""
    rows = []
    for G in mats:
        for i in range(D):
            for j in range(D):
                row = np.zeros(D * D, dtype=complex)
                for k in range(D):
                    row[i * D + k] += G[k, j]
                    row[k * D + j] -= G[i, k]
                rows.append(row)
    return np.array(rows)


def _nullspace_matrices(K, D):
    s = np.linalg.svd(K, compute_uv=False)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size and s[0] > 0 else 1.0)))
    _, _, Vh = np.linalg.svd(K)
    return [Vh[r].conj().reshape(D, D) for r in range(rank, D * D)]


def test_criterion_07_double_commutant(capsys):
    """Commutant and bicommutant dimensions on the two bundled examples,
    against an independent elementwise nullspace oracle."""
    failures = []

    # one glued two point class: full 2x2 algebra, doubled block-diagonally
    space = total_pair_space((1.0, 1.0))
    g = build_groupoid(space, hausdorff_relation(space))
    gens = [represent(e) for e in arrow_basis(g)]
    mats = [big_matrix(G) for G in gens]
    D = mats[0].shape[0]
    rep = double_commutant(gens)
    first_oracle = _nullspace_matrices(_commutation_rows(mats, D), D)
    second_oracle = _nullspace_matrices(
        _commutation_rows(first_oracle, D), D
    )
    if rep.commutant.dim != 4 or len(first_oracle) != 4:
        failures.append(("glued pair commutant", rep.commutant.dim, len(first_oracle)))
    if rep.bicommutant.dim != 4 or len(second_oracle) != 4:
        failures.append(("glued pair bicommutant", rep.bicommutant.dim, len(second_oracle)))
    if rep.span_dim != 4 or not rep.equals_span:
        failures.append(("glued pair span", rep.span_dim, rep.equals_span))
    if rep.generator_residual > 1e-10:
        failures.append(("generator residual", rep.generator_residual))

    # three separated points: the diagonal algebra, its own commutant
    space3 = line_space(3)
    g3 = build_groupoid(space3, hausdorff_relation(space3))
    gens3 = [represent(e) for e in arrow_basis(g3)]
    mats3 = [big_matrix(G) for G in gens3]
    rep3 = double_commutant(gens3)
    oracle3 = _nullspace_matrices(_commutation_rows(mats3, 3), 3)
    if rep3.bicommutant.dim != 3 or len(oracle3) != 3:
        failures.append(("separated bicommutant", rep3.bicommutant.dim, len(oracle3)))
    for X in rep3.bicommutant.stack:
        off = X - np.diag(np.diag(X))
        if np.abs(off).max() > 1e-10:
            failures.append(("separated bicommutant not diagonal",))
            break
    verdict(capsys, 7, "commutant and bicommutant dimensions", failures)


# --------------------------------------------------------------------- 8

def test_criterion_08_deformation_chain(capsys):
    """On the 2x2 grid: class counts (1, 2, 4), nested arrow sets ending in
    the diagonal, pointwise product at the top, and the exact lost-mass
    defect 2 for constants from level 0 to 1."""
    failures = []
    chain = deformation_chain(grid_space())
    if chain.report.block_counts != (1, 2, 4):
        failures.append(("block counts", chain.report.block_counts))
    arrow_sets = [
        {(x, y) for block in chain.level(k).partition.blocks for x in block for y in block}
        for k in range(chain.top + 1)
    ]
    if not (arrow_sets[0] >= arrow_sets[1] >= arrow_sets[2]):
        failures.append(("arrow sets do not nest",))
    if not chain.level(2).partition.is_identity:
        failures.append(("top level is not the diagonal",))
    g_top = chain.level(chain.top).groupoid
    rng = np.random.default_rng(808)
    a = random_element(g_top, rng)
    b = random_element(g_top, rng)
    rep = step_n_pointwise_check(chain, a, b)
    if not (rep.top_is_diagonal and rep.unit_weights):
        failures.append(("top flags", rep))
    if rep.plain_defect > 1e-12:
        failures.append(("pointwise defect", rep.plain_defect))
    ones = from_expression(chain.level(0).groupoid, "1")
    defect = homomorphism_defect_chain(ones, ones, chain, 0)
    if defect != 2.0:
        failures.append(("restriction defect", defect))
    verdict(capsys, 8, "deformation chain structure and defects", failures)


# --------------------------------------------------------------------- 9

def test_criterion_09_lifted_derivation_calculus(capsys):
    """Generalized Leibniz and commutation rules on 100 random
    (P, f, a, b); the coordinate pair gives back the element exactly."""
    rng = np.random.default_rng(909)
    failures = []
    for trial in range(100):
        if trial % 2 == 0:
            g = random_groupoid(rng, max_points=6, max_block=6)
        else:
            base = random_groupoid(rng, max_points=6, max_block=6)
            g = build_groupoid(base.space, Partition.total(base.space.ids))
        n = g.space.dimension
        syms = sympy_coordinates(n)
        P = Derivation.from_expressions(
            g.space, [str(int_poly(rng, syms, degree=1)) for _ in range(n)]
        )
        f = BaseFunction.from_expression(g.space, str(int_poly(rng, syms)))
        a = random_element(g, rng, with_jets=True)
        b = random_element(g, rng, with_jets=True)
        # relative to the magnitude of the quantity both routes compute
        ls = max(1.0, lift_symmetrized(P, convolve(a, b)).max_abs())
        ld = leibniz_defect(P, a, b)
        if ld > 1e-12 * ls:
            failures.append((trial, "leibniz", ld, ls))
        cs = max(1.0, module_action(P.apply_to(f), a).max_abs())
        cd = commutator_defect(P, f, a)
        if cd > 1e-12 * cs:
            failures.append((trial, "commutator", cd, cs))
    # coordinate position/momentum pair: [lift(d/dx_i), Q(x_i)] a = a
    g = build_groupoid(
        grid_space(), hausdorff_relation(grid_space())
    )
    rng2 = np.random.default_rng(910)
    for i in (1, 2):
        texts = ["0", "0"]
        texts[i - 1] = "1"
        P = Derivation.from_expressions(g.space, texts)
        f = BaseFunction.from_expression(g.space, f"x{i}")
        a = random_element(g, rng2, with_jets=True)
        comm = commutator_apply(P, f, a)
        for block in g.blocks:
            for x in block:
                for y in block:
                    va, vc = a.value_at(x, y), comm.value_at(x, y)
                    if abs(vc - va) > 1e-14 * max(1.0, abs(va)):
                        failures.append(("heisenberg", i, x, y, vc, va))
    verdict(capsys, 9, "Leibniz, commutation, coordinate pair identity", failures)


# -------------------------------------------------------------------- 10

def test_criterion_10_jet_fidelity(capsys):
    """Stored jets agree with central finite differences (h = 1e-4) to
    1e-6 relative on 50 random expression elements."""
    rng = np.random.default_rng(1010)
    h = 1e-4
    failures = []
    for trial in range(50):
        n = int(rng.integers(1, 4))
        npts = int(rng.integers(2, 6))
        pts = [
            Point(i, tuple(float(c) for c in rng.uniform(-2.0, 2.0, size=n)), 1.0)
            for i in range(npts)
        ]
        space = DiffSpace(pts, n, ())
        g = build_groupoid(space, Partition.total(space.ids))
        syms = [*sympy_coordinates(n), *sympy_coordinates(n, prefix="y")]
        expr = int_poly(rng, syms, degree=3, max_terms=5)
        a = from_expression(g, expr)
        fn = sympy.lambdify(syms, expr, modules="math")
        for block in g.blocks:
            for x in block:
                for y in block:
                    cx = list(space.point(x).coords)
                    cy = list(space.point(y).coords)
                    jet = a.jet_at(x, y)
                    for c in range(n):
                        up, dn = list(cx), list(cx)
                        up[c] += h
                        dn[c] -= h
                        fd = (fn(*up, *cy) - fn(*dn, *cy)) / (2 * h)
                        if abs(jet.d_src[c] - fd) > 1e-6 * max(1.0, abs(fd)):
                            failures.append((trial, "d_src", x, y, c))
                        up, dn = list(cy), list(cy)
                        up[c] += h
                        dn[c] -= h
                        fd = (fn(*cx, *up) - fn(*cx, *dn)) / (2 * h)
                        if abs(jet.d_dst[c] - fd) > 1e-6 * max(1.0, abs(fd)):
                            failures.append((trial, "d_dst", x, y, c))
    verdict(capsys, 10, "jets against central finite differences", failures)
