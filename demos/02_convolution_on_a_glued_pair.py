"""The convolution algebra of a glued pair of points.

With only constants in the structure family, two points fall into one
class and the pair groupoid has four arrows.  Functions on those arrows
multiply by summing over the intermediate point, which is matrix algebra
in disguise: the algebra is noncommutative, carries an involution, and
collapses to the pointwise product once the points are separated.
"""

import numpy as np

from ncgroupoid import (
    DiffSpace, GeneratorFunction, Point,
    build_groupoid, convolve, from_expression, hausdorff_relation,
    involution, max_diff, unit,
)

pts = [Point(0, (0.0,), 1.0), Point(1, (1.0,), 1.0)]
space = DiffSpace(pts, 1, ())
g = build_groupoid(space, hausdorff_relation(space))
print(f"{g}: arrows {[(x, y) for block in g.blocks for x in block for y in block]}")

a = from_expression(g, "x1 + 2*y1")
b = from_expression(g, "x1*y1 + 1")
ab = convolve(a, b)
ba = convolve(b, a)
print(f"(a*b)(0,1) = {ab.value_at(0, 1).real:.1f}, "
      f"(b*a)(0,1) = {ba.value_at(0, 1).real:.1f}")
print(f"commutator size: {max_diff(ab, ba):.1f}  (noncommutative)")

e = unit(g)
print(f"unit law holds exactly: {max_diff(convolve(e, a), a) == 0.0}")

star = involution(convolve(a, b))
swap = convolve(involution(b), involution(a))
print(f"involution is an anti-homomorphism: {max_diff(star, swap) == 0.0}")

# separate the two points and the same product becomes pointwise
sep = DiffSpace(pts, 1, [GeneratorFunction("coord", "x1", 1)])
gd = build_groupoid(sep, hausdorff_relation(sep))
ad = from_expression(gd, "x1 + 2*y1")
bd = from_expression(gd, "x1*y1 + 1")
cd = convolve(ad, bd)
for x in (0, 1):
    lhs = cd.value_at(x, x).real
    rhs = (ad.value_at(x, x) * bd.value_at(x, x)).real
    print(f"separated: (a*b)({x},{x}) = {lhs:.1f} = a b pointwise ({rhs:.1f})")

# with jets asked for, they ride along: exact partial derivatives on every arrow
jet = convolve(a.with_jets(), b.with_jets()).jet_at(0, 1)
print(f"jet at (0,1): value {jet.value.real:.1f}, "
      f"d_src ({jet.d_src[0].real:.1f},), d_dst ({jet.d_dst[0].real:.1f},)")
