"""Derivations, horizontal/vertical lifts, Leibniz and commutation identities."""

import gc
import weakref

import numpy as np
import pytest

from ncgroupoid import (
    BaseFunction,
    Derivation,
    build_groupoid,
    commutator_apply,
    commutator_defect,
    convolve,
    from_expression,
    hausdorff_relation,
    involution,
    leibniz_defect,
    lift_horizontal,
    lift_symmetrized,
    lift_vertical,
    max_diff,
    module_action,
    random_element,
)

from ncgroupoid._expr import Expr, format_expr

from conftest import grid_space, random_groupoid, total_pair_space


def total_pair_groupoid(weights=(1.0, 1.0)):
    space = total_pair_space(weights)
    return build_groupoid(space, hausdorff_relation(space))


def coordinate_derivation(space, axis=0):
    texts = ["0"] * space.dimension
    texts[axis] = "1"
    return Derivation.from_expressions(space, texts)


# ----------------------------------------------------------------- lifts

def test_horizontal_lift_of_product_expression():
    # a(x,y) = x1*y1, P = d/dx1: horizontal lift differentiates the source
    # slot, so (P_hor a)(x,y) = y1.
    g = total_pair_groupoid()
    a = from_expression(g, "x1*y1")
    lifted = lift_horizontal(coordinate_derivation(g.space), a)
    expected = from_expression(g, "y1")
    assert max_diff(lifted, expected) == 0.0


def test_vertical_lift_of_product_expression():
    g = total_pair_groupoid()
    a = from_expression(g, "x1*y1")
    lifted = lift_vertical(coordinate_derivation(g.space), a)
    expected = from_expression(g, "x1")
    assert max_diff(lifted, expected) == 0.0


def test_symmetrized_lift_is_sum():
    g = total_pair_groupoid()
    a = from_expression(g, "x1^2 + x1*y1")
    P = coordinate_derivation(g.space)
    s = lift_symmetrized(P, a)
    hv = lift_horizontal(P, a) + lift_vertical(P, a)
    assert max_diff(s, hv) == 0.0


def test_lift_is_linear(rng):
    g = random_groupoid(rng, dim=2)
    P = Derivation.from_expressions(g.space, ["x2", "1"])
    a = random_element(g, rng, with_jets=True)
    b = random_element(g, rng, with_jets=True)
    lhs = lift_horizontal(P, a + 3 * b)
    rhs = lift_horizontal(P, a) + 3 * lift_horizontal(P, b)
    assert max_diff(lhs, rhs) <= 1e-13 * max(1.0, rhs.max_abs())


def test_lift_requires_jets(rng):
    g = random_groupoid(rng)
    a = random_element(g, rng)  # no jets, no expression
    with pytest.raises(ValueError):
        lift_horizontal(coordinate_derivation(g.space), a)


def test_lifted_element_can_be_lifted_again_via_expression():
    # Lifts drop jets but keep the symbolic form, so a second application
    # re-tabulates from that.  P = d/dx1 twice on x1^2*y1 gives 2*y1.
    g = total_pair_groupoid()
    a = from_expression(g, "x1^2 * y1")
    P = coordinate_derivation(g.space)
    once = lift_horizontal(P, a)
    assert not once.has_jets and once.expr is not None
    twice = lift_horizontal(P, once)
    expected = from_expression(g, "2*y1")
    assert max_diff(twice, expected) == 0.0


# a(x, y) = x1^2*y2 + sin(x2), P = x2 d/dx1 + x1 d/dx2 and f = x1 + 1:
# each result's expression as it reads once derived, and how it is built
PENDING = {
    "lift_horizontal": ("x2*(2*x1*y2) + x1*cos(x2)", lambda P, f, a: lift_horizontal(P, a)),
    "lift_vertical": ("y1*x1^2", lambda P, f, a: lift_vertical(P, a)),
    "lift_symmetrized": ("x2*(2*x1*y2) + x1*cos(x2) + y1*x1^2",
                         lambda P, f, a: lift_symmetrized(P, a)),
    "module_action": ("(x1 + 1)*(x1^2*y2 + sin(x2))", lambda P, f, a: module_action(f, a)),
    "involution": ("y1^2*x2 + sin(y2)", lambda P, f, a: involution(a)),
}


@pytest.mark.parametrize("name", sorted(PENDING))
def test_expressions_are_derived_on_first_read(name, monkeypatch):
    text, build = PENDING[name]
    g = build_groupoid(grid_space(), hausdorff_relation(grid_space()))
    P = Derivation.from_expressions(g.space, ["x2", "x1"])
    f = BaseFunction.from_expression(g.space, "x1 + 1")
    a = from_expression(g, "x1^2*y2 + sin(x2)")
    if name.startswith("lift"):
        a = a.with_jets()  # what the lift reads; its jets derive partials
    operand = weakref.ref(a.stack.arrays[0])
    calls = []
    for method in ("diff", "subs", "__add__", "__mul__"):
        original = getattr(Expr, method)
        monkeypatch.setattr(Expr, method,
                            lambda *args, run=original: calls.append(run) or run(*args))
    out = build(P, f, a)
    assert calls == []
    monkeypatch.undo()
    # the pending expression holds no part of its operand
    del a
    gc.collect()
    assert operand() is None
    first = out.expr
    assert format_expr(first) == text
    assert out.expr is first
    expected = from_expression(g, text).with_jets()
    assert [x.tobytes() for x in out.with_jets().stack.arrays] == \
        [x.tobytes() for x in expected.stack.arrays]


def test_pending_chains_deeper_than_the_recursion_limit_resolve():
    g = build_groupoid(grid_space(), hausdorff_relation(grid_space()))
    f = BaseFunction.from_expression(g.space, "x1*x1 - x1 + 1")  # 1 on the grid
    a = b = from_expression(g, "x1*y2")
    for _ in range(3000):
        a, b = involution(a), module_action(f, b)
    assert format_expr(a.expr) == "x1*y2"
    assert format_expr(b.expr) == "(x1*x1 - x1 + 1)*(" * 3000 + "x1*y2" + ")" * 3000


def test_space_mismatch_rejected(rng):
    g = total_pair_groupoid()
    other = random_groupoid(rng, dim=2)
    P = coordinate_derivation(other.space)
    a = from_expression(g, "x1*y1")
    with pytest.raises(ValueError):
        lift_horizontal(P, a)


# ------------------------------------------------------------ derivations

def test_apply_to_matches_directional_derivative():
    space = total_pair_space()
    P = Derivation.from_expressions(space, ["x1^2 + 1"])
    f = BaseFunction.from_expression(space, "3*x1")
    Pf = P.apply_to(f)
    # (x^2+1) d/dx (3x) = 3x^2 + 3, at coords 0 and 1
    assert Pf.value_at(0) == 3.0
    assert Pf.value_at(1) == 6.0


def test_apply_to_symbolic_supports_iteration():
    space = total_pair_space()
    P = Derivation.from_expressions(space, ["x1"])
    f = BaseFunction.from_expression(space, "x1^2")
    Pf = P.apply_to(f)       # x * 2x = 2x^2
    PPf = P.apply_to(Pf)     # x * 4x = 4x^2
    assert PPf.value_at(1) == 4.0


def test_apply_to_on_tabulated_data_matches_the_symbolic_result(rng):
    g = random_groupoid(rng, dim=2)
    P = Derivation.from_expressions(g.space, ["x1 + x2", "x1*x2"])
    f = BaseFunction.from_expression(g.space, "x1^2 * x2 + sin(x2)")
    tabulated = Derivation(g.space, P.coeffs).apply_to(BaseFunction(g.space, f.values, f.grads))
    assert tabulated.expr is None
    np.testing.assert_allclose(tabulated.values, P.apply_to(f).values, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match="no gradient data"):
        Derivation(g.space, P.coeffs).apply_to(BaseFunction(g.space, f.values))


def test_commutator_apply_refuses_a_function_without_gradients(rng):
    g = random_groupoid(rng, dim=2)
    P = Derivation.from_expressions(g.space, ["1", "x1"])
    f = BaseFunction(g.space, BaseFunction.from_expression(g.space, "x1").values)
    with pytest.raises(ValueError, match="no gradient data"):
        commutator_apply(P, f, random_element(g, rng, with_jets=True))


def test_constant_derivation_kills_constants(rng):
    g = random_groupoid(rng, dim=2)
    P = Derivation.from_expressions(g.space, ["1.0", "-2.0"])
    ones = from_expression(g, "1")
    lifted = lift_symmetrized(P, ones)
    assert lifted.max_abs() == 0.0


# ------------------------------------------------- Leibniz and commutators

def test_generalized_leibniz_identity(rng):
    # P_hor(a*b) = P_hor(a)*b and P_ver(a*b) = a*P_ver(b); the symmetrized
    # lift then satisfies the two-sided rule.  Checked via the packaged
    # defect, which must vanish to rounding.
    for _ in range(10):
        g = random_groupoid(rng, dim=2)
        P = Derivation.from_expressions(g.space, ["x1 + x2", "x1*x2"])
        a = random_element(g, rng, with_jets=True)
        b = random_element(g, rng, with_jets=True)
        scale = max(1.0, a.max_abs() * b.max_abs())
        assert leibniz_defect(P, a, b) <= 1e-12 * scale


def test_horizontal_lift_is_left_leibniz(rng):
    g = random_groupoid(rng, dim=1)
    P = coordinate_derivation(g.space)
    a = random_element(g, rng, with_jets=True)
    b = random_element(g, rng, with_jets=True)
    lhs = lift_horizontal(P, convolve(a, b))
    rhs = convolve(lift_horizontal(P, a), b)
    assert max_diff(lhs, rhs) <= 1e-12 * max(1.0, lhs.max_abs())


def test_commutator_reproduces_derivative_of_multiplier(rng):
    # [P_hor, Q(f)] a = Q(Pf) a
    for _ in range(10):
        g = random_groupoid(rng, dim=2)
        P = Derivation.from_expressions(g.space, ["1", "x1"])
        f = BaseFunction.from_expression(g.space, "x1^2 * x2 + x2")
        a = random_element(g, rng, with_jets=True)
        scale = max(1.0, a.max_abs())
        assert commutator_defect(P, f, a) <= 1e-12 * scale


def test_position_momentum_pair():
    # f = x1 with P = d/dx1 gives [P_hor, Q(x1)] = identity on the algebra.
    g = total_pair_groupoid()
    P = coordinate_derivation(g.space)
    f = BaseFunction.from_expression(g.space, "x1")
    a = from_expression(g, "x1^2*y1 + 2")
    lhs = lift_horizontal(P, module_action(f, a))
    rhs = module_action(f, lift_horizontal(P, a))
    commutator = lhs - rhs
    assert max_diff(commutator, a) == 0.0


def test_mixed_slot_commutator_defect_nonzero_for_vertical():
    # The vertical lift differentiates the target slot, so it does not obey
    # the source-slot commutation rule; the packaged defect singles out the
    # horizontal one.
    g = total_pair_groupoid()
    P = coordinate_derivation(g.space)
    f = BaseFunction.from_expression(g.space, "x1")
    a = from_expression(g, "x1*y1")
    lhs = lift_vertical(P, module_action(f, a))
    rhs = module_action(f, lift_vertical(P, a))
    assert max_diff(lhs - rhs, a) > 0.1
