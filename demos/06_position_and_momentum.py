"""Lifted derivations and the coordinate commutation relation.

A vector field on the base lifts to the algebra in two halves: the
horizontal lift differentiates the source argument, the vertical one
the target.  The symmetrized lift obeys a two-sided Leibniz rule for
convolution, and against the position operator Q(f) the horizontal lift
satisfies [P, Q(f)] = Q(Pf); for f = x1 and P = d/dx1 that is the
identity on the whole algebra.
"""

import numpy as np

from ncgroupoid import (
    BaseFunction, Derivation, DiffSpace, Point,
    build_groupoid, commutator_apply, commutator_defect, convolve,
    from_expression, hausdorff_relation, leibniz_defect, lift_horizontal,
    lift_symmetrized, lift_vertical, max_diff, module_action,
)

pts = [Point(i, (float(i),), 1.0) for i in range(3)]
space = DiffSpace(pts, 1, ())
g = build_groupoid(space, hausdorff_relation(space))

P = Derivation.from_expressions(space, ["1"])     # d/dx1
a = from_expression(g, "x1^2 * y1")

hor = lift_horizontal(P, a)
ver = lift_vertical(P, a)
print(f"a(1,2) = {a.value_at(1, 2).real:.1f}  (x1^2 * y1 at x=1, y=2)")
print(f"horizontal lift (d/d src) at (1,2): {hor.value_at(1, 2).real:.1f}  (2*x1*y1)")
print(f"vertical lift   (d/d dst) at (1,2): {ver.value_at(1, 2).real:.1f}  (x1^2)")

b = from_expression(g, "x1 + y1 + 1")
print(f"generalized Leibniz defect: {leibniz_defect(P, a, b):.2e}")

# the symmetrized lift of a product splits one slot to each factor; the
# product carries the jets the lift reads when its factors do
lhs = lift_symmetrized(P, convolve(a.with_jets(), b.with_jets()))
rhs = convolve(lift_horizontal(P, a), b) + convolve(a, lift_vertical(P, b))
print(f"split rule holds exactly: {max_diff(lhs, rhs) == 0.0}")

# position operator and its commutator with the lift
f = BaseFunction.from_expression(space, "x1")
print(f"[P, Q(x1)] vs Q(1): defect {commutator_defect(P, f, a):.2e}")

comm = commutator_apply(P, f, a)
print(f"[P, Q(x1)] a equals a exactly: {max_diff(comm, a) == 0.0}")

# a non-constant field: P = x1 d/dx1, [P, Q(x1)] = Q(x1)
Px = Derivation.from_expressions(space, ["x1"])
comm_x = commutator_apply(Px, f, a)
print(f"[x1 d/dx1, Q(x1)] a equals Q(x1) a exactly: "
      f"{max_diff(comm_x, module_action(f, a)) == 0.0}")
