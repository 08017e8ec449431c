"""Convolution algebra: products, involution, unit, jets, module action."""

import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgroupoid import (
    AlgebraElement,
    BaseFunction,
    Derivation,
    DiffSpace,
    GeneratorFunction,
    Partition,
    Point,
    arrow_basis,
    build_groupoid,
    build_space,
    convolve,
    deformation_chain,
    from_expression,
    hausdorff_relation,
    involution,
    lift_horizontal,
    lift_symmetrized,
    lift_vertical,
    max_diff,
    module_action,
    quotient,
    random_element,
    restrict,
    unit,
)

from ncgroupoid._expr import Expr, ValueGradFn, coordinate_symbols
from ncgroupoid.deform import singleton_defects
from ncgroupoid.groupoid import BlockStack

from conftest import grid_space, line_space, make_points, random_groupoid, total_pair_space


def total_pair_groupoid(weights=(1.0, 1.0)):
    space = total_pair_space(weights)
    return build_groupoid(space, hausdorff_relation(space))


def convolve_oracle(g, a, b):
    """Independent elementwise sum, no matrix machinery."""
    out = {}
    for block in g.blocks:
        for x in block:
            for y in block:
                s = 0.0 + 0.0j
                for z in block:
                    s += a.value_at(x, z) * b.value_at(z, y) * g.space.weight(z)
                out[(x, y)] = s
    return out


# ------------------------------------------------------------- products

def test_ones_convolve_to_class_mass():
    g = total_pair_groupoid()
    ones = from_expression(g, "1")
    c = convolve(ones, ones)
    # sum over the two points of the class, unit weights
    assert all(c.value_at(x, y) == 2.0 for x in (0, 1) for y in (0, 1))


def test_weighted_ones_convolve_to_weighted_mass():
    g = total_pair_groupoid(weights=(1.0, 2.0))
    ones = from_expression(g, "1")
    c = convolve(ones, ones)
    assert c.value_at(0, 0) == 3.0
    assert c.value_at(1, 1) == 3.0


def test_convolution_matches_elementwise_oracle(rng):
    for _ in range(10):
        g = random_groupoid(rng)
        a = random_element(g, rng)
        b = random_element(g, rng)
        c = convolve(a, b)
        oracle = convolve_oracle(g, a, b)
        for (x, y), v in oracle.items():
            assert c.value_at(x, y) == pytest.approx(v, rel=1e-13, abs=1e-13)


def test_diagonal_groupoid_collapses_to_pointwise_product(rng):
    space = line_space()
    g = build_groupoid(space, hausdorff_relation(space))
    a = random_element(g, rng)
    b = random_element(g, rng)
    c = convolve(a, b)
    for x in space.ids:
        assert c.value_at(x, x) == a.value_at(x, x) * b.value_at(x, x)


def test_singleton_defects_equal_the_per_point_oracle(rng):
    pts = [Point(x, (float(x),), (1.0, 1.5, 2.0)[x % 3]) for x in (4, 0, 6, 2, 5, 1, 3)]
    space = DiffSpace(pts, 1, [GeneratorFunction("f", "x1", 1)])
    g = build_groupoid(space, Partition.identity(space.id_array))
    for _ in range(5):
        a, b = random_element(g, rng), random_element(g, rng)
        c = convolve(a, b)
        ab = {x: a.value_at(x, x) * b.value_at(x, x) for x in space.ids}
        weighted = max(abs(c.value_at(x, x) - ab[x] * space.weight(x)) for x in space.ids)
        plain = max(abs(c.value_at(x, x) - ab[x]) for x in space.ids)
        assert singleton_defects(a, b) == (weighted, plain)
    glued = total_pair_groupoid()
    assert singleton_defects(random_element(glued, rng), random_element(glued, rng)) is None


def test_associativity_random(rng):
    for _ in range(20):
        g = random_groupoid(rng)
        a, b, c = (random_element(g, rng) for _ in range(3))
        lhs = convolve(convolve(a, b), c)
        rhs = convolve(a, convolve(b, c))
        assert max_diff(lhs, rhs) <= 1e-12 * max(1.0, lhs.max_abs())


def test_unit_is_two_sided(rng):
    for _ in range(10):
        g = random_groupoid(rng)
        e = unit(g)
        a = random_element(g, rng)
        assert max_diff(convolve(e, a), a) <= 1e-12 * max(1.0, a.max_abs())
        assert max_diff(convolve(a, e), a) <= 1e-12 * max(1.0, a.max_abs())


def test_unit_values():
    g = total_pair_groupoid(weights=(2.0, 4.0))
    e = unit(g)
    assert e.value_at(0, 0) == 0.5
    assert e.value_at(1, 1) == 0.25
    assert e.value_at(0, 1) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
        min_size=12, max_size=12,
    )
)
def test_associativity_hypothesis(values):
    g = total_pair_groupoid(weights=(1.0, 2.0))
    mk = lambda vs: AlgebraElement(g, [np.array(vs).reshape(2, 2)])
    a, b, c = mk(values[0:4]), mk(values[4:8]), mk(values[8:12])
    lhs = convolve(convolve(a, b), c)
    rhs = convolve(a, convolve(b, c))
    assert max_diff(lhs, rhs) <= 1e-10 * max(1.0, lhs.max_abs())


# ------------------------------------------------------------ involution

def test_involution_flips_and_conjugates():
    g = total_pair_groupoid()
    a = AlgebraElement(g, [np.array([[1 + 2j, 3 - 1j], [0.5j, -2]])])
    s = involution(a)
    assert s.value_at(0, 1) == np.conj(a.value_at(1, 0))
    assert s.value_at(1, 0) == np.conj(a.value_at(0, 1))
    assert max_diff(involution(s), a) == 0.0


def test_involution_antihomomorphism(rng):
    for _ in range(20):
        g = random_groupoid(rng)
        a = random_element(g, rng)
        b = random_element(g, rng)
        ab = convolve(a, b)
        lhs = involution(ab)
        rhs = convolve(involution(b), involution(a))
        assert max_diff(lhs, rhs) <= 1e-12 * max(1.0, ab.max_abs())


def test_involution_fixes_real_symmetric_expression():
    g = total_pair_groupoid()
    a = from_expression(g, "x1 + y1")
    assert max_diff(involution(a), a) == 0.0


def test_involution_swaps_jets():
    g = total_pair_groupoid()
    a = from_expression(g, "x1^2 * y1")
    s = involution(a)
    ja = a.jet_at(0, 1)
    js = s.jet_at(1, 0)
    assert js.value == np.conj(ja.value)
    assert js.d_src == tuple(np.conj(ja.d_dst))
    assert js.d_dst == tuple(np.conj(ja.d_src))
    # the expression view agrees: swapping arguments of x1^2*y1 gives y1^2*x1
    recomputed = s.with_jets()
    assert max_diff(recomputed, s) == 0.0


# ------------------------------------------------------------------ jets

def test_expression_jets_are_exact_partials():
    g = total_pair_groupoid()
    a = from_expression(g, "x1*y1")
    jet = a.jet_at(0, 1)
    # d/dx (x*y) = y = 1, d/dy (x*y) = x = 0 at the arrow (0, 1)
    assert jet.value == 0.0
    assert jet.d_src == (1.0,)
    assert jet.d_dst == (0.0,)


def test_convolution_propagates_jets_exactly():
    g = total_pair_groupoid()
    a = from_expression(g, "x1*y1").with_jets()
    b = from_expression(g, "x1 + y1").with_jets()
    c = convolve(a, b)
    assert c.has_jets
    # (a*b)(x,y) = sum_z x z (z + y); d/dx = sum_z z(z+y), d/dy = sum_z xz
    for x in (0, 1):
        for y in (0, 1):
            cx = g.space.point(x).coords[0]
            cy = g.space.point(y).coords[0]
            d_src = sum(cz * (cz + cy) for cz in (0.0, 1.0))
            d_dst = sum(cx * cz for cz in (0.0, 1.0))
            jet = c.jet_at(x, y)
            assert jet.d_src == (d_src,)
            assert jet.d_dst == (d_dst,)


def test_with_jets_requires_expression_or_jets(rng):
    g = random_groupoid(rng)
    a = random_element(g, rng, with_jets=True)
    assert a.with_jets() is a
    b = AlgebraElement(g, [np.zeros((len(blk), len(blk))) for blk in g.blocks])
    with pytest.raises(ValueError):
        b.with_jets()
    assert b.d_src is None and b.d_dst is None


def _plane_groupoid(rng, shape):
    """Points of the plane in len(shape) classes, class c of shape[c] points sharing x1,
    with random weights; one entry is one glued class, all ones singletons."""
    x1 = np.repeat(rng.uniform(-1, 1, len(shape)), shape)
    coords = np.column_stack([x1, rng.uniform(-1, 1, len(x1))])
    pts = [Point(i, tuple(c), float(w)) for i, (c, w) in
           enumerate(zip(coords.tolist(), rng.uniform(0.5, 2, len(x1))))]
    space = DiffSpace(pts, 2, [GeneratorFunction("pi1", "x1", 2)])
    return build_groupoid(space, hausdorff_relation(space))


@pytest.mark.parametrize("shape", [(1,) * 40, (48,) * 12, (64,)],
                         ids=["singletons", "clustered_12x48", "one_glued_class"])
def test_values_first_equal_the_values_with_jets(rng, shape):
    g = _plane_groupoid(rng, shape)
    assert sorted(g.partition.sizes.tolist()) == sorted(shape)
    for text in ("x1 + 2*y2 + 1", "x1*y1 + sin(x2)", "cos(y1) - x2*y2", "exp(x1 - y2)/(3 + y1)"):
        a = from_expression(g, text)
        assert not a.has_jets and a.stack.arrays[0].shape[1] == 1
        jets = a.with_jets()
        assert jets.has_jets and jets is a.with_jets() and jets.expr == a.expr
        for u, v in zip(a.stack.arrays, jets.stack.arrays):
            assert u[:, 0].tobytes() == v[:, 0].tobytes()
        # the jet views read through the tabulated jets
        for view in ("d_src", "d_dst"):
            for u, v in zip(getattr(a, view), getattr(jets, view)):
                assert u.tobytes() == v.tobytes()
        x, y = g.blocks[-1][0], g.blocks[-1][-1]
        assert a.jet_at(x, y) == jets.jet_at(x, y)


def test_values_first_derives_no_partials(monkeypatch):
    g = total_pair_groupoid()

    def refuse(*args):
        raise AssertionError("a partial was derived")
    with monkeypatch.context() as patch:
        patch.setattr(Expr, "diff", refuse)
        a = from_expression(g, "x1*y1 + sin(x1)")
        assert a.value_at(0, 1) == 0.0
        with pytest.raises(AssertionError, match="a partial was derived"):
            a.with_jets()
        # nor do spaces, their quotients and chains, derivations and point functions
        space = build_space({"dimension": 2, "generators": [{"name": "f", "expr": "x1*sin(x2)"}],
                             "points": [{"id": i, "coords": [i % 2, i // 2]} for i in range(4)]})
        bigger = space.with_generators([*space.generators, GeneratorFunction("h", "exp(x1)", 2)])
        assert quotient(bigger, hausdorff_relation(bigger)).space.dimension == 2
        assert deformation_chain(bigger).top == 2
        P = Derivation.from_expressions(space, ["x2", "x1^2"])
        f = BaseFunction.from_expression(space, "x1*x2 + cos(x1)")
        with pytest.raises(AssertionError, match="a partial was derived"):
            f.grads
    # Pf is derived from the expressions; it evaluates no partial, its own or f's
    with monkeypatch.context() as patch:
        patch.setattr(ValueGradFn, "__call__", refuse)
        Pf = P.apply_to(f)
    syms = coordinate_symbols(2)
    for h in (f, Pf):
        assert h.grads is h.grads and not h.grads.flags.writeable
        assert h.grads.tobytes() == ValueGradFn(h.expr, syms)(space.coords)[1].tobytes()


def test_product_of_point_functions_forms_its_gradients_on_first_read(monkeypatch, rng):
    g = random_groupoid(rng, dim=2)
    f1 = BaseFunction.from_expression(g.space, "x1 + 1")
    f2 = BaseFunction.from_expression(g.space, "x2^2")
    diffs = []
    diff = Expr.diff
    monkeypatch.setattr(Expr, "diff", lambda e, s: diffs.append(s) or diff(e, s))
    fg = f1 * f2
    assert fg.values.tobytes() == (f1.values * f2.values).tobytes()
    assert fg.expr is not None and diffs == []
    # the product rule on the factors' partials, as the product once formed at once
    want = f1.grads * f2.values[:, None] + f1.values[:, None] * f2.grads
    assert fg.grads is fg.grads and not fg.grads.flags.writeable
    assert fg.grads.tobytes() == want.tobytes()
    # a factor without gradients or an expression leaves the product without gradients
    assert (BaseFunction(g.space, f1.values) * f2).grads is None
    tabulated = BaseFunction(g.space, f1.values, f1.grads)
    assert (tabulated * f2).grads.tobytes() == want.tobytes()


# --------------------------------------------------------- module action

def test_module_action_scales_rows():
    g = total_pair_groupoid()
    f = BaseFunction.from_expression(g.space, "2*x1 + 1")
    a = from_expression(g, "1")
    fa = module_action(f, a)
    assert fa.value_at(0, 0) == 1.0
    assert fa.value_at(0, 1) == 1.0
    assert fa.value_at(1, 0) == 3.0
    assert fa.value_at(1, 1) == 3.0


def test_module_action_is_algebra_morphism_in_f(rng):
    # Q(f) Q(g) a = Q(fg) a for the pointwise product of functions
    g = random_groupoid(rng, dim=2)
    f1 = BaseFunction.from_expression(g.space, "x1 + 1")
    f2 = BaseFunction.from_expression(g.space, "x2^2")
    a = random_element(g, rng)
    lhs = module_action(f1, module_action(f2, a))
    rhs = module_action(f1 * f2, a)
    assert max_diff(lhs, rhs) <= 1e-13 * max(1.0, rhs.max_abs())


def test_module_action_commutes_with_right_convolution(rng):
    # Q(f)(a) * b = Q(f)(a * b): the action touches only the source slot
    g = random_groupoid(rng)
    f = BaseFunction.from_expression(g.space, "x1^2 + 1")
    a = random_element(g, rng)
    b = random_element(g, rng)
    lhs = convolve(module_action(f, a), b)
    rhs = module_action(f, convolve(a, b))
    assert max_diff(lhs, rhs) <= 1e-12 * max(1.0, rhs.max_abs())


def test_module_action_jet_product_rule():
    g = total_pair_groupoid()
    f = BaseFunction.from_expression(g.space, "x1^2")
    a = from_expression(g, "x1*y1 + 1")
    fa = module_action(f, a)
    direct = from_expression(g, "x1^2 * (x1*y1 + 1)")
    assert max_diff(fa, direct) == 0.0
    for x in (0, 1):
        for y in (0, 1):
            got = fa.jet_at(x, y)
            want = direct.jet_at(x, y)
            assert got.d_src == pytest.approx(want.d_src, abs=1e-14)
            assert got.d_dst == pytest.approx(want.d_dst, abs=1e-14)


# ------------------------------------------------------------ exact mode

def frac_element(g, entries):
    return AlgebraElement(g, [np.array(entries, dtype=object)])


def test_exact_fraction_associativity():
    g = total_pair_groupoid()
    a = frac_element(g, [[Fraction(1, 3), Fraction(2, 7)], [Fraction(-1, 2), Fraction(5)]])
    b = frac_element(g, [[Fraction(3, 5), Fraction(1)], [Fraction(0), Fraction(-2, 9)]])
    c = frac_element(g, [[Fraction(1, 11), Fraction(4, 3)], [Fraction(2), Fraction(-1, 6)]])
    lhs = convolve(convolve(a, b), c)
    rhs = convolve(a, convolve(b, c))
    assert all((x == y).all() for x, y in zip(lhs.values, rhs.values))
    assert isinstance(lhs.values[0][0, 0], Fraction)


def test_exact_fraction_collapse_on_diagonal():
    space = line_space(3)
    g = build_groupoid(space, hausdorff_relation(space))
    a = AlgebraElement(g, [np.array([[Fraction(2, 3)]], dtype=object)] * 3)
    b = AlgebraElement(g, [np.array([[Fraction(9, 4)]], dtype=object)] * 3)
    c = convolve(a, b)
    assert c.value_at(0, 0) == Fraction(3, 2)
    assert max_diff(c, convolve(b, a)) == 0


def test_exact_fraction_involution():
    g = total_pair_groupoid()
    a = frac_element(g, [[Fraction(1, 3), Fraction(2, 7)], [Fraction(-1, 2), Fraction(5)]])
    s = involution(a)
    assert s.value_at(0, 1) == Fraction(-1, 2)
    assert max_diff(involution(s), a) == 0


# ------------------------------------------------------------- plumbing

def test_arrow_basis_spans_pointwise():
    g = total_pair_groupoid()
    basis = arrow_basis(g)
    assert len(basis) == g.arrow_count
    total = basis[0]
    for e in basis[1:]:
        total = total + e
    ones = from_expression(g, "1")
    assert max_diff(total, ones) == 0.0


def test_groupoid_mismatch_raises(rng):
    g1 = random_groupoid(rng)
    g2 = random_groupoid(rng)
    a = random_element(g1, rng)
    b = random_element(g2, rng)
    if not g1.same_structure(g2):
        with pytest.raises(ValueError):
            convolve(a, b)


def test_value_at_rejects_foreign_pairs():
    space = grid_space()
    g = build_groupoid(space, hausdorff_relation(space))
    a = from_expression(g, "1")
    with pytest.raises(ValueError):
        a.value_at(0, 2)


def test_scalar_and_addition():
    g = total_pair_groupoid()
    a = from_expression(g, "x1 + y1").with_jets()
    two_a = 2 * a
    assert two_a.value_at(0, 1) == 2.0
    assert max_diff(a + a, two_a) == 0.0
    assert two_a.has_jets
    assert two_a.jet_at(0, 1).d_src == (2.0,)


# the operations whose results carry jets in dimension n >= 1; in dimension 0
# the 1 + 2n channels are the values alone, so every element has its (empty) jets
_MAKES_JETS = {"with_jets", "add", "sub", "scale", "convolve", "involution", "module_action",
               "restrict", "random_with_jets", "from_stack_with_jets"}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_has_jets_is_the_channel_count(rng, n):
    space = DiffSpace(make_points(rng, 5, n, int_coords=False), n, ())
    chain = deformation_chain(space)
    g = chain.level(0).groupoid
    a = from_expression(g, "2 + x1*y1" if n else "2")
    aj, bj = a.with_jets(), random_element(g, rng, with_jets=True)
    f = BaseFunction.from_expression(g.space, "1 + x1" if n else "1")
    P = Derivation.from_expressions(g.space, ["1"] * n)
    made = {
        "from_expression": a, "with_jets": aj, "values_only": aj.values_only(),
        "add": aj + bj, "sub": aj - bj, "scale": 2 * aj, "convolve": convolve(aj, bj),
        "involution": involution(aj),
        "module_action": module_action(f, aj),
        "lift_horizontal": lift_horizontal(P, aj), "lift_vertical": lift_vertical(P, aj),
        "lift_symmetrized": lift_symmetrized(P, aj), "unit": unit(g),
        "random": random_element(g, rng), "random_with_jets": random_element(g, rng, True),
        "from_stack_with_jets": AlgebraElement.from_stack(BlockStack(g, [
            np.ones((len(grp.blocks), 1 + 2 * n, grp.m, grp.m)) for grp in g.groups])),
    }
    if n:
        made["restrict"] = restrict(aj, chain, 0)
    for name, element in made.items():
        channels = {arr.shape[1] for arr in element.stack.arrays}
        assert element.has_jets == (channels == {1 + 2 * n}), name
        assert element.has_jets == (n == 0 or name in _MAKES_JETS), name
        if element.has_jets:
            assert element.with_jets() is element, name
            assert {d.shape[-1] for d in element.d_src} == {n}, name


def test_csv_roundtrip(tmp_path, rng):
    g = random_groupoid(rng, dim=2)
    a = random_element(g, rng, with_jets=True)
    n = g.space.dimension
    path = tmp_path / "a.csv"
    # -0.0 where a is positive: the signs of zeros survive the round trip too
    for element in (a, -0.0 * a):
        element.to_csv(path)
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[:4] == ["src", "dst", "re", "im"] and len(header) == 4 + 4 * n
        back = [(int(x), int(y), *map(float, rest)) for x, y, *rest in rows]
        records = list(zip(*(col.tolist() for col in element.stack.columns())))
        # repr tells -0.0 from 0.0
        assert list(map(repr, back)) == list(map(repr, records))
        # the records are every arrow's value and jets, in (src, dst) order
        arrows = sorted((x, y) for block in g.blocks for x in block for y in block)
        assert [r[:2] for r in records] == arrows
        for x, y, *channels in records:
            jet = element.jet_at(x, y)
            want = np.array([jet.value, *jet.d_src, *jet.d_dst]).view(float)
            assert repr(channels) == repr(want.tolist())


def test_csv_text_is_deterministic(tmp_path, rng):
    g = random_groupoid(rng)
    a = random_element(g, rng, with_jets=True)
    p1, p2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    a.to_csv(p1)
    a.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_values_are_read_only():
    g = total_pair_groupoid()
    a = from_expression(g, "1")
    with pytest.raises(ValueError):
        a.values[0][0, 0] = 5.0
