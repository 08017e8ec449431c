"""Lifting first-order differential operators from points to arrows.

A derivation P = sum_i c_i(x) d/dx_i on the base has two natural lifts to
the arrow algebra: one differentiating through the source slot of an
arrow function (coefficients evaluated at the source point), one through
the destination slot (coefficients at the destination).  Their sum is the
symmetrized lift, which satisfies a generalized Leibniz rule with respect
to convolution,

    P(a * b) = P_hor(a) * b + a * P_ver(b),

and interacts with the point-function action through the commutator

    [P, Q(f)] a = Q(Pf) a.

Both identities are linear algebra over the stored jets, so they hold to
roundoff; the functions here measure the defects rather than assume them.
"""

from __future__ import annotations

import numpy as np

from ._expr import ZERO, ExpressionError, ValueGradFn, coordinate_symbols, parse
from .algebra import AlgebraElement, BaseFunction, convolve, max_diff, module_action
from .diffspace import DiffSpace
from .groupoid import BlockStack, promote


class Derivation:
    """A vector field on the space: coefficients c_i per point, one per coordinate.

    ``coeffs[p, i]`` is c_i at point index p.  When built from expressions
    the symbolic form is kept so results of :meth:`apply_to` keep exact
    gradients and derivations can be iterated.
    """

    def __init__(self, space: DiffSpace, coeffs, exprs=None):
        self.space = space
        n = space.dimension
        self.coeffs = promote(np.asarray(coeffs))
        if self.coeffs.shape != (len(space.points), n):
            raise ValueError(f"coefficient shape {self.coeffs.shape}, "
                             f"need ({len(space.points)}, {n})")
        self.exprs = tuple(exprs) if exprs is not None else None

    @classmethod
    def from_expressions(cls, space: DiffSpace, texts) -> "Derivation":
        """One coefficient expression in x1..xn per coordinate, n in total."""
        n = space.dimension
        texts = list(texts)
        if len(texts) != n:
            raise ExpressionError(f"need {n} coefficient expressions, got {len(texts)}")
        syms = coordinate_symbols(n)
        exprs = [parse(t, syms) for t in texts]
        coeffs = np.empty((len(space.points), n))
        for i, e in enumerate(exprs):
            coeffs[:, i], _ = ValueGradFn(e, syms)(space.coords)
        return cls(space, coeffs, exprs=exprs)

    @classmethod
    def constant(cls, space: DiffSpace, vector) -> "Derivation":
        """A constant-coefficient field, e.g. a single d/dx_i."""
        return cls.from_expressions(space, [repr(float(v)) for v in vector])

    def apply_to(self, f: BaseFunction) -> BaseFunction:
        """Pf = sum_i c_i df/dx_i as a point function.

        When both sides are symbolic the result is re-derived symbolically,
        so it carries exact gradients and can be differentiated again.
        """
        if f.space is not self.space:
            raise ValueError("derivation and function live on different spaces")
        if f.grads is None:
            raise ValueError("function carries no gradient data")
        if self.exprs is not None and f.expr is not None:
            syms = coordinate_symbols(self.space.dimension)
            expr = sum((c * f.expr.diff(s) for c, s in zip(self.exprs, syms)), ZERO)
            return BaseFunction.from_expression(self.space, expr)
        values = np.einsum("pk,pk->p", self.coeffs, f.grads)
        return BaseFunction(self.space, values)

    def __repr__(self) -> str:
        if self.exprs is not None:
            return f"Derivation({[str(e) for e in self.exprs]})"
        return f"Derivation(tabulated, dim={self.space.dimension})"


def _check_pair(P: Derivation, a: AlgebraElement) -> AlgebraElement:
    if P.space is not a.groupoid.space:
        raise ValueError("derivation and element live on different spaces")
    return a.with_jets()


def _symbolic_lift(P: Derivation, a: AlgebraElement, slot: str):
    """Symbolic form of a lift, when both inputs carry expressions."""
    if P.exprs is None or a.expr is None:
        return None
    n = P.space.dimension
    xs = coordinate_symbols(n)
    ys = coordinate_symbols(n, prefix="y")
    if slot == "src":
        coeffs = P.exprs
        wrt = xs
    else:
        coeffs = [c.subs(dict(zip(xs, ys))) for c in P.exprs]
        wrt = ys
    return sum((c * a.expr.diff(s) for c, s in zip(coeffs, wrt)), ZERO)


def _lift(P: Derivation, a: AlgebraElement, slot: str) -> AlgebraElement:
    """sum_k c_k d/d(slot)_k with the coefficients taken at the slot's point."""
    a = _check_pair(P, a)
    g = a.groupoid
    n = g.space.dimension
    jets = slice(1, n + 1) if slot == "src" else slice(n + 1, None)
    spec = "kil,klij->kij" if slot == "src" else "kjl,klij->kij"
    values = [np.einsum(spec, P.coeffs[grp.index], arr[:, jets])[:, None]
              for grp, arr in zip(g.groups, a.stack.arrays)]
    return AlgebraElement.from_stack(BlockStack(g, values), expr=_symbolic_lift(P, a, slot))


def lift_horizontal(P: Derivation, a: AlgebraElement) -> AlgebraElement:
    """Differentiate through the source slot, coefficients at the source point."""
    return _lift(P, a, "src")


def lift_vertical(P: Derivation, a: AlgebraElement) -> AlgebraElement:
    """Differentiate through the destination slot, coefficients at the destination."""
    return _lift(P, a, "dst")


def lift_symmetrized(P: Derivation, a: AlgebraElement) -> AlgebraElement:
    """Sum of the horizontal and vertical lifts."""
    a = _check_pair(P, a)
    hor = lift_horizontal(P, a)
    ver = lift_vertical(P, a)
    expr = None
    if hor.expr is not None and ver.expr is not None:
        expr = hor.expr + ver.expr
    return AlgebraElement.from_stack((hor + ver).stack, expr=expr)


def leibniz_defect(P: Derivation, a: AlgebraElement, b: AlgebraElement) -> float:
    """max |P(a * b) - (P_hor(a) * b + a * P_ver(b))| over all arrows.

    Zero in exact arithmetic for every derivation and every pair of
    elements with jets; in floats this returns the roundoff level.
    """
    a = _check_pair(P, a)
    b = _check_pair(P, b)
    lhs = lift_symmetrized(P, convolve(a, b))
    rhs = convolve(lift_horizontal(P, a), b) + convolve(a, lift_vertical(P, b))
    return max_diff(lhs, rhs)


def commutator_apply(P: Derivation, f: BaseFunction, a: AlgebraElement) -> AlgebraElement:
    """[P, Q(f)] a = P(Q(f) a) - Q(f)(P a), with P the symmetrized lift."""
    a = _check_pair(P, a)
    if f.grads is None:
        raise ValueError("function carries no gradient data")
    lhs = lift_symmetrized(P, module_action(f, a))
    rhs = module_action(f, lift_symmetrized(P, a))
    return lhs - rhs


def commutator_defect(P: Derivation, f: BaseFunction, a: AlgebraElement) -> float:
    """max |[P, Q(f)] a - Q(Pf) a| over all arrows.

    The commutator of the lifted derivation with the action of f is the
    action of Pf; for f a coordinate projection and P the matching partial
    derivative, Pf = 1 and the commutator acts as the identity.
    """
    got = commutator_apply(P, f, a)
    expected = module_action(P.apply_to(f), a.with_jets())
    return max_diff(got, expected)
