"""Walking the deformation chain of a 2x2 grid.

Level 0 sees only constants: one class, a maximally noncommutative
algebra.  Adding the coordinate projections one at a time refines the
classes until every point stands alone and the algebra is commutative.
Restriction between levels keeps surviving arrow values but is not
multiplicative: the convolution sum loses the terms that ran over the
larger class, and the lost mass is measurable.
"""

import numpy as np

from ncgroupoid import (
    DiffSpace, Point,
    deformation_chain, from_expression, homomorphism_defect_chain,
    restrict, step_n_pointwise_check,
)

pts = [
    Point(0, (0.0, 0.0), 1.0),
    Point(1, (0.0, 1.0), 1.0),
    Point(2, (1.0, 0.0), 1.0),
    Point(3, (1.0, 1.0), 1.0),
]
space = DiffSpace(pts, 2, ())

chain = deformation_chain(space)
print(f"levels 0..{chain.top}")
for lvl in chain.levels:
    print(f"  level {lvl.k}: {lvl.partition.n_blocks} classes, "
          f"{lvl.groupoid.arrow_count} arrows")

rep = chain.report
print(f"arrow sets nest: {rep.arrows_monotone}; partitions refine: "
      f"{rep.partitions_refine}; top is the diagonal: {rep.top_is_diagonal}")

# the constant function 1, restricted down the chain
ones = from_expression(chain.level(0).groupoid, "1")
d01 = homomorphism_defect_chain(ones, ones, chain, 0)
print(f"level 0 -> 1 restriction defect for 1*1: {d01:.1f} "
      "(the class shrank from 4 points to 2)")

r = restrict(ones, chain, 0)
d12 = homomorphism_defect_chain(r, r, chain, 1)
print(f"level 1 -> 2 restriction defect: {d12:.1f}")

# at the top, convolution is the plain pointwise product (unit weights)
g_top = chain.level(chain.top).groupoid
a = from_expression(g_top, "x1 + x2 + 1")
b = from_expression(g_top, "x1*x2 + 2")
step = step_n_pointwise_check(chain, a, b)
print(f"top level pointwise defect: {step.plain_defect:.1f} "
      f"(diagonal {step.top_is_diagonal}, unit weights {step.unit_weights})")

# duplicated coordinates keep the top level honest: two points that agree
# in every coordinate can never be separated
dup = [Point(0, (0.0, 0.0), 1.0), Point(1, (0.0, 0.0), 1.0), Point(2, (1.0, 1.0), 1.0)]
chain2 = deformation_chain(DiffSpace(dup, 2, ()))
print(f"with duplicate coordinates: top classes {chain2.report.block_counts[-1]}, "
      f"diagonal reached: {chain2.report.top_is_diagonal}")
