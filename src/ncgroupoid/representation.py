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
The fiber norm is the operator norm on the weighted space: with W the
class's weight diagonal, the spectral norm of W^1/2 M W^-1/2, which is
the plain ||M||_2 only when the class's weights are equal.  It makes
||R^dagger R|| = ||R||^2 hold for the weighted adjoint.  The operator
field is bounded by its largest fiber norm, the essential supremum with
respect to the atomic measure (every point has positive weight, so no
fiber is negligible).
"""

from __future__ import annotations

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

    @cached_property
    def norms(self) -> tuple[np.ndarray, ...]:
        """Per size group, each class matrix's operator norm; made once.

        That is the spectral norm of S = W^1/2 M W^-1/2, the square root of
        the largest eigenvalue of S^H S, from one batched ``eigvalsh``.
        S[i, j] is M[i, j] sqrt(w_i / w_j), so a 1 x 1 block's norm is |M|.
        """
        norms = []
        for grp, M in zip(self.groupoid.groups, self.stack.arrays):
            S = M * np.sqrt(grp.weights[:, :, None] / grp.weights[:, None, :])
            top = np.abs(S).max(axis=(1, 2))
            # a block holding a NaN or an infinity has that as its norm; the others are
            # divided by their largest entry, so S^H S neither overflows nor underflows
            finite = np.isfinite(top)
            scale = np.where(finite & (top > 0), top, 1.0)
            S = np.where(finite[:, None, None], S, 0.0) / scale[:, None, None]
            largest = np.linalg.eigvalsh(S.conj().swapaxes(1, 2) @ S)[:, -1]
            norms.append(np.where(finite, scale * np.sqrt(largest.clip(min=0.0)), top))
        return tuple(norms)

    def ess_sup(self) -> float:
        """Largest fiber operator norm; see the module docstring."""
        # np.max, unlike max, keeps a NaN wherever it is
        return float(np.max([norms.max() for norms in self.norms]))

    def __repr__(self) -> str:
        return f"RandomOperator(fiber dims {self.groupoid.partition.sizes.tolist()})"


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
    return (lhs - rhs).ess_sup()


def star_defect(a: AlgebraElement) -> float:
    """max fiber norm of represent(a^*) - represent(a)^dagger.

    The involution matches the weighted adjoint, not the plain conjugate
    transpose; with unit weights the two coincide.
    """
    lhs = represent(involution(a))
    rhs = represent(a).adjoint()
    return (lhs - rhs).ess_sup()
