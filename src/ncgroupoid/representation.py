"""The regular representation: algebra elements as fields of matrices.

Over each point x sits a finite Hilbert space of functions on the arrows
ending there, identified with functions on the points of its class, with
the weighted inner product <psi, phi> = sum_z conj(psi(z)) phi(z) w(z).
That space is not stored: its basis and weights are the class's row in
its size group (``SizeGroup.index`` and ``SizeGroup.weights``).
An algebra element a acts fiberwise by

    (a . psi)(z) = sum_u a(z, u) psi(u) w(u),

i.e. by the matrix M[i, j] = a(z_i, z_j) w(z_j) in the point basis of the
class.  The assignment x -> M is constant on classes by construction (the
fibers of one class share a single matrix object), which at a finite
number of points is exactly what measurability of the field amounts to.
The operator field is bounded by its largest fiber norm, the essential
supremum with respect to the atomic measure (every point has positive
weight, so no fiber is negligible).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, convolve, involution
from .groupoid import BlockStack, Groupoid, promote


class RandomOperator:
    """A measurable field of fiber operators, one matrix per class.

    ``fiber(x)`` returns the matrix acting on the Hilbert space over x;
    points of one class return the very same array object.
    """

    def __init__(self, groupoid: Groupoid, class_matrices):
        self.groupoid = groupoid
        self.stack = BlockStack.of(groupoid, class_matrices, what="matrix")

    @cached_property
    def class_matrices(self) -> tuple[np.ndarray, ...]:
        return self.stack.per_block()

    @classmethod
    def identity(cls, g: Groupoid) -> "RandomOperator":
        return cls(g, BlockStack(g, [np.tile(np.eye(grp.m), (len(grp.blocks), 1, 1))
                                     for grp in g.groups]))

    @classmethod
    def zeros(cls, g: Groupoid) -> "RandomOperator":
        return cls(g, BlockStack.zeros(g))

    def fiber(self, x: int) -> np.ndarray:
        return self.class_matrices[self.groupoid.block_index(x)]

    def __add__(self, other):
        if not isinstance(other, RandomOperator):
            return NotImplemented
        return RandomOperator(self.groupoid, self.stack + other.stack)

    def __sub__(self, other):
        if not isinstance(other, RandomOperator):
            return NotImplemented
        return RandomOperator(self.groupoid, self.stack - other.stack)

    def __matmul__(self, other):
        if not isinstance(other, RandomOperator):
            return NotImplemented
        return RandomOperator(self.groupoid, self.stack.map(np.matmul, other.stack))

    def __mul__(self, scalar):
        return RandomOperator(self.groupoid, self.stack.scale(scalar))

    __rmul__ = __mul__

    def adjoint(self) -> "RandomOperator":
        """Adjoint with respect to the weighted inner product: W^-1 A^H W."""
        return RandomOperator(self.groupoid, BlockStack(self.groupoid, [
            A.conj().swapaxes(1, 2) * grp.weights[:, None, :] / grp.weights[:, :, None]
            for grp, A in zip(self.groupoid.groups, self.stack.arrays)
        ]))

    def ess_sup(self) -> float:
        """Largest fiber operator norm; see the module docstring."""
        return max(float(norms.max()) for norms in _block_norms(self.stack))

    def max_fiber_diff(self, other: "RandomOperator") -> float:
        """Largest operator-norm distance between corresponding fibers."""
        return max(float(norms.max()) for norms in _block_norms(self.stack - other.stack))

    def __repr__(self) -> str:
        return f"RandomOperator(fiber dims {self.groupoid.partition.sizes.tolist()})"


def _block_norms(stack: BlockStack) -> list[np.ndarray]:
    """Per size group, the spectral norm of each of its blocks."""
    return [np.linalg.norm(arr, 2, axis=(1, 2)) for arr in stack.arrays]


def represent(a: AlgebraElement) -> RandomOperator:
    """The regular representation M[i, j] = a(z_i, z_j) w(z_j), per class."""
    g = a.groupoid
    return RandomOperator(g, BlockStack(g, [
        promote(A[:, 0]) * grp.weights[:, None, :]
        for grp, A in zip(g.groups, a.stack.arrays)
    ]))


def homomorphism_defect(a: AlgebraElement, b: AlgebraElement) -> float:
    """max fiber norm of represent(a * b) - represent(a) represent(b).

    Zero in exact arithmetic: with W the weight diagonal, representing
    means right-multiplying by W, and (A W B) W = (A W)(B W).
    """
    # values only: jets would be convolved and never read
    a, b = a.values_only(), b.values_only()
    lhs = represent(convolve(a, b))
    rhs = represent(a) @ represent(b)
    return lhs.max_fiber_diff(rhs)


def star_defect(a: AlgebraElement) -> float:
    """max fiber norm of represent(a^*) - represent(a)^dagger.

    The involution matches the weighted adjoint, not the plain conjugate
    transpose; with unit weights the two coincide.
    """
    lhs = represent(involution(a))
    rhs = represent(a).adjoint()
    return lhs.max_fiber_diff(rhs)


@dataclass(frozen=True)
class RandomOperatorReport:
    """Metric facts about one operator field."""

    ess_sup: float
    bounded: bool
    fiber_norms: dict[int, float]


def random_operator_report(R: RandomOperator) -> RandomOperatorReport:
    """Report the fiber norms per point, their essential supremum and boundedness.

    Boundedness is finiteness of the largest fiber norm.  (Measurability
    holds by construction; see the module docstring.)
    """
    g = R.groupoid
    norms = np.empty(len(g.space.id_array))
    for grp, block_norms in zip(g.groups, _block_norms(R.stack)):
        norms[grp.index] = block_norms[:, None]
    sup = float(norms.max())
    return RandomOperatorReport(
        ess_sup=sup,
        bounded=bool(np.isfinite(sup)),
        fiber_norms=dict(zip(g.space.ids, norms.tolist())),
    )
