"""States on the operator fields and commutant closures.

A state is given by a density field: one positive semidefinite matrix
rho(x) per base point, normalized so sum_x tr(rho(x)) w(x) = 1.  It pairs
with an operator field R through

    Phi(R) = sum_x tr(rho(x) R(x)) w(x).

A caveat worth knowing: with non-unit weights the natural adjoint on a
fiber is the weighted one, W^-1 A^H W, and positivity of Phi on elements
R^dagger R is then guaranteed when rho(x) commutes with the weight
diagonal (in particular for the uniform density), not for arbitrary
positive semidefinite rho.  With unit weights every positive
semidefinite density works.

The commutant machinery assembles all fibers into one block-diagonal
matrix (one block per base point) and solves the linear commutation
equations exactly as a nullspace problem.  This is meant for small
ambient dimensions; a guard refuses anything past MAX_TOTAL_DIM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groupoid import Groupoid
from .representation import RandomOperator

MAX_TOTAL_DIM = 64

# rank decisions relative to the largest singular value
RANK_TOL = 1e-10


class DensityField:
    """One matrix per base point, sized by the point's fiber dimension.

    Unlike an operator field, the matrices may vary within a class; the
    field lives over points, not classes.  ``stacks[s]`` holds size group
    s of the groupoid as one (k, c, m, m) array: with c = m one matrix per
    point of each class, with c = 1 one matrix per class that all its
    points share (the uniform density is stored that way).
    """

    def __init__(self, groupoid: Groupoid, matrices):
        g = groupoid
        mats = [np.asarray(mat, dtype=complex) for mat in matrices]
        if len(mats) != len(g.space.points):
            raise ValueError(f"need one density per point, got {len(mats)}")
        for x, mat in zip(g.space.ids, mats):
            m = len(g.blocks[g.block_index(x)])
            if mat.shape != (m, m):
                raise ValueError(f"point {x}: density shape {mat.shape}, fiber dim is {m}")
        self._store(g, [
            np.stack([mats[p] for p in grp.index.flat]).reshape(grp.index.shape + (grp.m, grp.m))
            for grp in g.groups
        ])

    def _store(self, g: Groupoid, stacks) -> None:
        self.groupoid = g
        self.stacks: tuple[np.ndarray, ...] = tuple(stacks)
        for stack in self.stacks:
            stack.flags.writeable = False
        self._matrices = None

    @classmethod
    def uniform(cls, g: Groupoid) -> "DensityField":
        """Identity on every fiber, scaled to total mass one."""
        z = sum(grp.m * float(grp.weights.sum()) for grp in g.groups)
        field = cls.__new__(cls)
        field._store(g, [np.tile(np.eye(grp.m, dtype=complex) / z, (len(grp.blocks), 1, 1, 1))
                         for grp in g.groups])
        return field

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """One read-only matrix per point, in point order, made on first use;
        points that share a stored matrix get the same object."""
        if self._matrices is None:
            out = [None] * len(self.groupoid.space.points)
            for grp, stack in zip(self.groupoid.groups, self.stacks):
                k, c = stack.shape[:2]
                views = list(stack.reshape(k * c, grp.m, grp.m))
                for (r, i), p in np.ndenumerate(grp.index):
                    out[p] = views[r * c + i % c]
            self._matrices = tuple(out)
        return self._matrices

    def matrix(self, x: int) -> np.ndarray:
        return self.matrices[self.groupoid.space.index_of(x)]

    def masses(self) -> list[np.ndarray]:
        """Per size group, the (k, c) summed weight of the points using each stored matrix."""
        return [grp.weights.reshape(stack.shape[0], stack.shape[1], -1).sum(axis=2)
                for grp, stack in zip(self.groupoid.groups, self.stacks)]

    def class_sums(self) -> list[np.ndarray]:
        """Per size group, the (k, m, m) class sums sum_{x in b} w(x) rho(x)."""
        return [np.einsum("kc,kcij->kij", mass, stack)
                for mass, stack in zip(self.masses(), self.stacks)]


@dataclass(frozen=True)
class StateReport:
    """Outcome of the four state conditions plus the faithfulness flag."""

    trace_class: bool
    integral: float
    positive: bool
    min_eigenvalue: float
    normalization: float
    faithful: bool


class State:
    """A validated normal state Phi on the operator fields of a groupoid."""

    def __init__(self, density: DensityField, report: StateReport):
        self.density = density
        self.report = report
        self.groupoid = density.groupoid

    @property
    def faithful(self) -> bool:
        return self.report.faithful

    def __repr__(self) -> str:
        return (
            f"State(norm={self.report.normalization!r}, "
            f"faithful={self.report.faithful})"
        )


def make_state(rho: DensityField, norm_tol: float = 1e-9) -> State:
    """Validate a density field and wrap it as a state.

    Checks, per point: finite entries (trace class is automatic in finite
    dimension, but infinities and NaNs are refused), Hermitian symmetry,
    positive semidefiniteness; and globally, finiteness of
    sum_x tr|rho(x)| w(x) and normalization sum_x tr(rho(x)) w(x) = 1
    within ``norm_tol``.  Violations raise ValueError naming a point.
    Each stored matrix is checked once, so a class-shared one only once.

    Faithfulness (all fibers strictly positive definite) is recorded as a
    flag, not enforced: a rank-deficient density is a legitimate state
    that simply vanishes somewhere.
    """
    g = rho.groupoid
    integral = 0.0
    total = 0.0
    min_eig = np.inf
    faithful = True
    for grp, stack, mass in zip(g.groups, rho.stacks, rho.masses()):
        k, c, m = stack.shape[:3]
        mats = stack.reshape(k * c, m, m)
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():  # zero them so the other checks still run
            mats = np.where(finite[:, None, None], mats, 0)
        scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))[:, None, None]
        hermitian = (np.abs(mats - mats.conj().swapaxes(1, 2)) <= 1e-12 * scale).all(axis=(1, 2))
        eigs = np.linalg.eigvalsh(mats)
        tr = np.trace(mats, axis1=1, axis2=2).real
        negative = eigs[:, 0] < -1e-12 * np.maximum(np.maximum(1.0, tr), eigs[:, -1])
        failed = np.select([~finite, ~hermitian, negative], [1, 2, 3], 0)
        if failed.any():
            u = int(np.flatnonzero(failed)[0])
            x = g.space.points[grp.index[u // c, u % c]].id
            raise ValueError(f"point {x}: " + (
                "density has non-finite entries",
                "density is not Hermitian",
                f"density has negative eigenvalue {eigs[u, 0]:.3e}",
            )[failed[u] - 1])
        min_eig = min(min_eig, float(eigs[:, 0].min()))
        if np.any(eigs[:, 0] <= 1e-12 * np.maximum(tr, eigs[:, -1])):
            faithful = False
        integral += float(mass.ravel() @ np.abs(eigs).sum(axis=1))
        total += float(mass.ravel() @ tr)
    if not np.isfinite(integral):
        raise ValueError("density is not integrable against the weights")
    if abs(total - 1.0) > norm_tol:
        raise ValueError(f"density normalizes to {total!r}, not 1")
    report = StateReport(
        trace_class=True,
        integral=integral,
        positive=True,
        min_eigenvalue=min_eig,
        normalization=total,
        faithful=faithful,
    )
    return State(rho, report)


def expect(state: State, R: RandomOperator) -> complex:
    """Phi(R) = sum_x tr(rho(x) R(x)) w(x) = sum_b tr(rho_b R_b).

    R is constant on each class b, so only the class sums
    rho_b = sum_{x in b} w(x) rho(x) of the density enter.
    """
    if not state.groupoid.same_structure(R.groupoid):
        raise ValueError("state and operator live on different groupoids")
    return complex(sum(
        np.einsum("kij,kji->", rb, M)
        for rb, M in zip(state.density.class_sums(), R.stack.arrays)
    ))


@dataclass(frozen=True)
class NCProbabilitySpace:
    """A family of operator fields observed through one state."""

    generators: tuple[RandomOperator, ...]
    state: State

    def __post_init__(self):
        for G in self.generators:
            if not G.groupoid.same_structure(self.state.groupoid):
                raise ValueError("generators and state live on different groupoids")


def big_matrix(R: RandomOperator) -> np.ndarray:
    """All fibers of R as one block-diagonal matrix, one block per point.

    Points of one class repeat their class matrix; the ambient dimension
    is the sum of all fiber dimensions.
    """
    blocks = [R.fiber(x) for x in R.groupoid.space.ids]
    ends = np.cumsum([len(B) for B in blocks])
    out = np.zeros((ends[-1], ends[-1]), dtype=complex)
    for B, end in zip(blocks, ends):
        out[end - len(B):end, end - len(B):end] = B
    return out


def ambient_dim(g: Groupoid) -> int:
    """Sum of all fiber dimensions, sum_b m_b^2, refused past MAX_TOTAL_DIM.

    Raises ValueError when the commutant machinery would not accept the
    groupoid, before any generator is built.
    """
    D = sum(len(b) ** 2 for b in g.blocks)
    if D > MAX_TOTAL_DIM:
        raise ValueError(f"ambient dimension {D} exceeds MAX_TOTAL_DIM={MAX_TOTAL_DIM}")
    return D


class OperatorBasis:
    """An orthonormal basis (trace inner product) of a space of matrices."""

    def __init__(self, matrices, ambient_dim: int):
        self.matrices: tuple[np.ndarray, ...] = tuple(
            np.asarray(m, dtype=complex) for m in matrices
        )
        self.ambient_dim = int(ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.matrices)

    def project(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(X, dtype=complex))
        for B in self.matrices:
            out += np.vdot(B, X) * B
        return out

    def residual(self, X: np.ndarray) -> float:
        """Frobenius distance of X from the span, relative to max(1, |X|_F)."""
        X = np.asarray(X, dtype=complex)
        r = float(np.linalg.norm(X - self.project(X)))
        return r / max(1.0, float(np.linalg.norm(X)))


def _gather(generators) -> tuple[Groupoid, list[np.ndarray], int]:
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    g = gens[0].groupoid
    for G in gens[1:]:
        if not G.groupoid.same_structure(g):
            raise ValueError("generators live on different groupoids")
    D = ambient_dim(g)
    return g, [big_matrix(G) for G in gens], D


def _commutant_basis(mats: list[np.ndarray], D: int, rcond: float) -> list[np.ndarray]:
    # vec is row-major: vec(G X - X G) = (kron(G, I) - kron(I, G^T)) vec(X)
    eye = np.eye(D)
    rows = [np.kron(G, eye) - np.kron(eye, G.T) for G in mats]
    K = np.vstack(rows)
    # K has at least as many rows as columns, so the thin SVD's right
    # singular vectors span all of C^(D^2); those past the rank span the nullspace
    _, s, vh = np.linalg.svd(K, full_matrices=False)
    return [v.conj().reshape(D, D) for v in vh[s <= rcond * s.max()]]


def commutant(generators, rcond: float = RANK_TOL) -> OperatorBasis:
    """Basis of {X : X G = G X for every generator G}, in the ambient matrices.

    The equations are solved in the full matrix algebra over the
    block-diagonal embedding, so the result contains everything that
    commutes, not only block-diagonal solutions.  The basis columns come
    out orthonormal under <A, B> = tr(A^H B).  For the commutant to be
    star-closed, pass a star-closed generating set.
    """
    _, mats, D = _gather(generators)
    return OperatorBasis(_commutant_basis(mats, D, rcond), D)


@dataclass(frozen=True)
class BicommutantReport:
    """Dimensions and containments around a double commutant computation."""

    commutant: OperatorBasis
    bicommutant: OperatorBasis
    span_dim: int
    generator_residual: float
    equals_span: bool


def double_commutant(generators, rcond: float = RANK_TOL) -> BicommutantReport:
    """Commutant of the commutant, with the span comparison made explicit.

    ``span_dim`` is the linear dimension of the generator span;
    ``generator_residual`` measures how far the generators are from the
    bicommutant (they must lie inside it); ``equals_span`` records whether
    the bicommutant is exactly the span, which is the closure statement
    for a unital star-closed generating set.
    """
    _, mats, D = _gather(generators)
    first = _commutant_basis(mats, D, rcond)
    # never empty: the identity commutes with every generator
    second = _commutant_basis(first, D, rcond)
    stack = np.stack([G.reshape(-1) for G in mats])
    svals = np.linalg.svd(stack, compute_uv=False)
    span_dim = int(np.sum(svals > RANK_TOL * svals[0])) if svals.size else 0
    bic = OperatorBasis(second, D)
    gen_res = max(bic.residual(G) for G in mats)
    return BicommutantReport(
        commutant=OperatorBasis(first, D),
        bicommutant=bic,
        span_dim=span_dim,
        generator_residual=gen_res,
        equals_span=bic.dim == span_dim,
    )
