"""Representing algebra elements as fields of fiber matrices.

Each class of the relation carries a small Hilbert space weighted by the
measure; an algebra element acts there as one matrix per class.  The
product of elements becomes the matrix product, the involution becomes
the weighted adjoint, and the essential sup of fiber norms is the
operator norm of the field.
"""

import math

import numpy as np

from ncgroupoid import (
    DiffSpace, Point,
    build_groupoid, from_expression, hausdorff_relation, homomorphism_defect,
    random_element, represent, star_defect, unit,
)

rng = np.random.default_rng(7)

pts = [Point(i, (float(i),), w) for i, w in enumerate((1.0, 2.0, 1.0))]
space = DiffSpace(pts, 1, ())
g = build_groupoid(space, hausdorff_relation(space))

a = from_expression(g, "x1 + y1")
R = represent(a)
print(f"fiber over the glued class:\n{np.array_str(R.fiber(0).real, precision=2)}")

b = random_element(g, rng)
print(f"homomorphism defect rep(a*b) vs rep(a)rep(b): {homomorphism_defect(a, b):.2e}")
print(f"star defect rep(a^*) vs weighted adjoint:     {star_defect(a):.2e}")

E = represent(unit(g))
print(f"unit represents as the identity: {bool(np.all(E.fiber(0) == np.eye(3)))}")

sup = R.ess_sup()
print(f"bounded: {math.isfinite(sup)}, ess sup = {sup:.6f}")

# the all-ones element on a unit-weight pair has norm exactly 2
pair = DiffSpace([Point(0, (0.0,), 1.0), Point(1, (1.0,), 1.0)], 1, ())
gp = build_groupoid(pair, hausdorff_relation(pair))
ones = represent(from_expression(gp, "1"))
print(f"all-ones on a glued pair: ess sup = {ones.ess_sup():.1f} (eigenvalues 2, 0)")

# adjoint against the weighted inner product <u, v> = sum conj(u) v w
S = R.adjoint()
w = np.array([1.0, 2.0, 1.0])
psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
lhs = np.sum(np.conj(R.fiber(0) @ psi) * phi * w)
rhs = np.sum(np.conj(psi) * (S.fiber(0) @ phi) * w)
print(f"<R psi, phi>_w - <psi, R^+ phi>_w = {abs(lhs - rhs):.2e}")
