"""States on operator fields and the double commutant.

A density field (one positive matrix per point, normalized against the
weights) turns the represented algebra into a noncommutative probability
space.  Gathering all fibers into one block-diagonal matrix makes the
commutant a finite linear problem; the bicommutant closes the algebra
and here simply recovers its span.
"""

import numpy as np

from ncgroupoid import (
    DensityField, DiffSpace, GeneratorFunction, Point, RandomOperator,
    arrow_basis, big_matrix, build_groupoid, double_commutant, expect,
    hausdorff_relation, make_state, represent,
)

rng = np.random.default_rng(11)

pair = DiffSpace([Point(0, (0.0,), 1.0), Point(1, (1.0,), 1.0)], 1, ())
g = build_groupoid(pair, hausdorff_relation(pair))

state = make_state(DensityField.uniform(g))
print(f"uniform state: normalization {state.normalization:.1f}, "
      f"faithful {state.faithful}")

print(f"expect(identity) = {expect(state, RandomOperator.identity(g)).real:.1f}")

R = represent(arrow_basis(g)[1])          # the (0,1) matrix unit
val = expect(state, R.adjoint() @ R)
print(f"expect(R^+ R) = {val.real:.3f} >= 0")

# a rank-deficient density is a legal state, just not faithful
p = np.array([[0.5, 0.0], [0.0, 0.0]], dtype=complex)
partial = make_state(DensityField(g, [p, p]))
print(f"rank-deficient density accepted, faithful = {partial.faithful}")

# commutant machinery on the glued pair: the represented algebra is all
# of M_2, block-doubled; its commutant has dimension 4, and the
# bicommutant equals the span of the generators
gens = [represent(e) for e in arrow_basis(g)]
rep = double_commutant(gens)
print(f"ambient dimension {big_matrix(gens[0]).shape[0]}, "
      f"commutant dim {rep.commutant.dim}, bicommutant dim {rep.bicommutant.dim}")
print(f"bicommutant equals generator span: {rep.equals_span} "
      f"(span dim {rep.span_dim}, residual {rep.generator_residual:.1e})")

# three separated points: the diagonal algebra is its own commutant
line = DiffSpace(
    [Point(i, (float(i),), 1.0) for i in range(3)], 1,
    [GeneratorFunction("coord", "x1", 1)],
)
gl = build_groupoid(line, hausdorff_relation(line))
repl = double_commutant([represent(e) for e in arrow_basis(gl)])
print(f"separated line: commutant dim {repl.commutant.dim}, "
      f"bicommutant dim {repl.bicommutant.dim} (diagonal matrices)")
