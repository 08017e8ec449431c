"""Measured point sets, the gluing relation, and quotients.

Two rows of a 2x2 grid are indistinguishable to a structure family that
only sees the first coordinate: the relation glues each column into one
class, the quotient keeps one representative per class, and generators
that were not constant on classes are dropped on the way down.
"""

import numpy as np

from ncgroupoid import (
    DiffSpace, GeneratorFunction, Point,
    consistent_family, hausdorff_relation, quotient,
)

pts = [
    Point(0, (0.0, 0.0), 1.0),
    Point(1, (0.0, 1.0), 1.0),
    Point(2, (1.0, 0.0), 2.0),
    Point(3, (1.0, 1.0), 2.0),
]
gens = [
    GeneratorFunction("height", "x1", 2),        # constant on columns
    GeneratorFunction("skew", "x1 + x2", 2),     # separates everything
]

space = DiffSpace(pts, 2, [gens[0]])
rho = hausdorff_relation(space)
print(f"structure sees x1 only -> classes {rho.blocks}")

results = consistent_family(space, rho)
print(f"every generator constant on its classes: {all(r.consistent for r in results)}")

q = quotient(space, rho)
print(f"quotient points: {[ (p.id, p.coords, p.weight) for p in q.space.points ]}")
print(f"projection {rho.block_of}, dropped {q.dropped}")

# now force a coarser relation under the richer family: skew cannot descend
rich = DiffSpace(pts, 2, gens)
q2 = quotient(rich, rho)
print(f"under the coarse gluing, dropped generators: {q2.dropped}")

# the relation of the richer family itself is the diagonal
rho2 = hausdorff_relation(rich)
print(f"richer family separates all points: {rho2.is_identity}")

# quantized comparison glues nearly equal values
fuzz = [Point(i, (float(i) * 1e-9,), 1.0) for i in range(4)]
s_exact = DiffSpace(fuzz, 1, [GeneratorFunction("coord", "x1", 1)])
s_quant = DiffSpace(fuzz, 1, [GeneratorFunction("coord", "x1", 1)], eps=1e-6)
print(f"exact comparison: {hausdorff_relation(s_exact).n_blocks} classes")
print(f"quantized at 1e-6: {hausdorff_relation(s_quant).n_blocks} class")
