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

Commutants live in the ambient D x D matrices, where an operator field
is one block-diagonal matrix with a block per base point (``big_matrix``),
D = sum_b m_b^2 over the classes b.  The solver never forms the D^2
unknowns: a field repeats one matrix G_b over the points of class b, so
the commutation equations split into one small nullspace per pair of
classes, G_b Y = Y G_c, solved by SVD in one stacked call per pair of
class sizes; the bicommutant is then one nullspace in the class matrices
(see ``_bicommutant_coords``).  The bases come back as dense D x D
matrices, up to D^2 of them, so a guard still refuses anything past
MAX_TOTAL_DIM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groupoid import BlockStack, Groupoid, promote
from .representation import RandomOperator

MAX_TOTAL_DIM = 64

# rank decisions relative to the largest singular value
RANK_TOL = 1e-10

# how far sum_x tr(rho(x)) w(x) may be from 1
NORM_TOL = 1e-9


class DensityField:
    """One matrix per base point, sized by the point's fiber dimension.

    Unlike an operator field, the matrices may vary within a class; the
    field lives over points, not classes.  ``stack`` holds size group s of
    the groupoid as one (k, c, m, m) array, ``stack.arrays[s]``: with c = m one
    matrix per point of each class, with c = 1 one matrix per class that
    all its points share (the uniform density is stored that way).
    ``matrices`` may be that stack or one matrix per point, in point order.
    """

    def __init__(self, groupoid: Groupoid, matrices):
        g = groupoid
        if not isinstance(matrices, BlockStack):
            mats = [promote(np.asarray(mat)) for mat in matrices]
            if len(mats) != len(g.space.id_array):
                raise ValueError(f"need one density per point, got {len(mats)}")
            dims = g.partition.sizes[g.point_pos[:, 0]].tolist()
            for x, m, mat in zip(g.space.ids, dims, mats):
                if mat.shape != (m, m):
                    raise ValueError(f"point {x}: density shape {mat.shape}, fiber dim is {m}")
            matrices = BlockStack(g, [
                np.stack([mats[p] for p in grp.index.flat]).reshape(*grp.index.shape, grp.m, grp.m)
                for grp in g.groups
            ])
        self.groupoid = g
        self.stack = matrices

    @classmethod
    def uniform(cls, g: Groupoid) -> "DensityField":
        """Identity on every fiber, scaled to total mass one."""
        z = sum(grp.m * float(grp.weights.sum()) for grp in g.groups)
        return cls(g, BlockStack(g, [np.tile(np.eye(grp.m) / z,
                                             (len(grp.blocks), 1, 1, 1)) for grp in g.groups]))

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """One read-only matrix per point, in point order, made on first use;
        points that share a stored matrix get the same object."""
        out = [None] * len(self.groupoid.space.id_array)
        for grp, stack in zip(self.groupoid.groups, self.stack.arrays):
            k, c = stack.shape[:2]
            views = list(stack.reshape(k * c, grp.m, grp.m))
            for (r, i), p in np.ndenumerate(grp.index):
                out[p] = views[r * c + i % c]
        return tuple(out)

    def matrix(self, x: int) -> np.ndarray:
        return self.matrices[self.groupoid.space.index_of(x)]

    def masses(self) -> list[np.ndarray]:
        """Per size group, the (k, c) summed weight of the points using each stored matrix."""
        return [grp.weights.reshape(stack.shape[0], stack.shape[1], -1).sum(axis=2)
                for grp, stack in zip(self.groupoid.groups, self.stack.arrays)]

    def class_sums(self) -> list[np.ndarray]:
        """Per size group, the (k, m, m) class sums sum_{x in b} w(x) rho(x)."""
        return [np.einsum("kc,kcij->kij", mass, stack)
                for mass, stack in zip(self.masses(), self.stack.arrays)]


@dataclass(frozen=True)
class State:
    """A validated normal state Phi on the operator fields of a groupoid, with what
    validating it measured and the faithfulness flag."""

    density: DensityField
    min_eigenvalue: float
    normalization: float
    faithful: bool

    @property
    def groupoid(self) -> Groupoid:
        return self.density.groupoid

    def __repr__(self) -> str:
        return f"State(norm={self.normalization!r}, faithful={self.faithful})"


def make_state(rho: DensityField) -> State:
    """Validate a density field and wrap it as a state.

    Checks, per point: finite entries (trace class is automatic in finite
    dimension, but infinities and NaNs are refused), Hermitian symmetry,
    positive semidefiniteness; and globally, finiteness of
    sum_x tr|rho(x)| w(x) and normalization sum_x tr(rho(x)) w(x) = 1
    within ``NORM_TOL``.  Violations raise ValueError naming a point.
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
    for grp, stack, mass in zip(g.groups, rho.stack.arrays, rho.masses()):
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
            x = g.space.id_array[grp.index[u // c, u % c]]
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
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"density normalizes to {total!r}, not 1")
    return State(rho, min_eigenvalue=min_eig, normalization=total, faithful=faithful)


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


def big_matrix(R: RandomOperator) -> np.ndarray:
    """All fibers of R as one block-diagonal matrix, one block per point.

    Points of one class repeat their class matrix; the ambient dimension
    is the sum of all fiber dimensions.
    """
    return _field_matrices(R.groupoid, [M[None] for M in R.stack.arrays])[0]


def ambient_dim(g: Groupoid) -> int:
    """Sum of all fiber dimensions, sum_b m_b^2, refused past MAX_TOTAL_DIM.

    Raises ValueError when the commutant machinery would not accept the
    groupoid, before any generator is built.
    """
    D = g.arrow_count
    if D > MAX_TOTAL_DIM:
        raise ValueError(f"ambient dimension {D} exceeds MAX_TOTAL_DIM={MAX_TOTAL_DIM}")
    return D


class OperatorBasis:
    """An orthonormal basis (trace inner product) of a space of D x D matrices.

    ``stack`` holds the basis as one (dim, D, D) array.
    """

    def __init__(self, matrices, ambient_dim: int):
        self.ambient_dim = int(ambient_dim)
        D = self.ambient_dim
        self.stack = np.asarray(matrices, dtype=complex).reshape(-1, D, D)

    @property
    def dim(self) -> int:
        return len(self.stack)

    def residual(self, X: np.ndarray) -> float:
        """Frobenius distance of X from the span, relative to max(1, |X|_F)."""
        x = np.asarray(X, dtype=complex).reshape(-1)
        flat = self.stack.reshape(self.dim, -1)
        r = float(np.linalg.norm(x - (flat.conj() @ x) @ flat))
        return r / max(1.0, float(np.linalg.norm(x)))


def _gather(generators) -> tuple[Groupoid, list[np.ndarray], int]:
    """The generators' groupoid, their (n_gen, k, m, m) class matrices per size group, and D."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    g = gens[0].groupoid
    for G in gens[1:]:
        if not G.groupoid.same_structure(g):
            raise ValueError("generators live on different groupoids")
    D = ambient_dim(g)
    return g, [np.stack(arrs) for arrs in zip(*(G.stack.arrays for G in gens))], D


def _nullspaces(systems, scale: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Nullspaces of stacks of linear systems, shapes (k, rows, n) with rows >= n, one rank
    threshold for all.

    Returns per stack the (k, n, n) conjugated right singular vectors and
    the (k, n) mask of those in the nullspace.  A singular value counts as
    zero at or below RANK_TOL times the larger of ``scale`` and the largest
    singular value of all stacks, so a system made of roundoff alone (the
    equations of a scalar matrix) does not pass for full rank.
    """
    svds = [np.linalg.svd(K, full_matrices=False)[1:] for K in systems]
    tol = RANK_TOL * max([scale] + [float(s.max()) for s, _ in svds])
    return [(vh.conj(), s <= tol) for s, vh in svds]


def _class_commutants(g: Groupoid, A: list[np.ndarray]) -> list[tuple]:
    """N_bc = {Y : G_b Y = Y G_c for every generator G} for every ordered pair of classes.

    Each generator repeats its class matrix G_b on the fiber of every
    point of class b, so in the ambient matrices G X = X G says exactly
    that the m_b x m_c block of X at each pair of points x in b, y in c
    lies in N_bc.  The pairs of classes are solved in one stacked SVD per
    pair of size groups (s, t).  Returns per pair (s, t, r, q, Y): Y[i] is
    an orthonormal basis element of N_bc for the classes in rows r[i] of
    group s and q[i] of group t.
    """
    scale = max(float(np.abs(a).max()) for a in A)  # a norm squares entries past the range
    keys, systems = [], []
    for s, (gs, As) in enumerate(zip(g.groups, A)):
        for t, (gt, At) in enumerate(zip(g.groups, A)):
            # row-major vec(G_b Y - Y G_c) = (kron(G_b, I) - kron(I, G_c^T)) vec(Y)
            left = np.einsum("grik,jl->rgijkl", As, np.eye(gt.m))
            right = np.einsum("gqlj,ik->qgijkl", At, np.eye(gs.m))
            K = left[:, None] - right[None, :]
            systems.append(K.reshape(len(gs.blocks) * len(gt.blocks), -1, gs.m * gt.m))
            keys.append((s, t))
    pieces = []
    for (s, t), (vecs, null) in zip(keys, _nullspaces(systems, scale)):
        pair, j = np.nonzero(null)
        r, q = np.divmod(pair, len(g.groups[t].blocks))
        pieces.append((s, t, r, q, vecs[pair, j].reshape(-1, g.groups[s].m, g.groups[t].m)))
    return pieces


def _embed(out: np.ndarray, k, P, Q, Y, offsets: np.ndarray) -> None:
    """Write block Y into ambient matrix out[k] at the block of points (P, Q), broadcasting."""
    ms, mt = Y.shape[-2:]
    rows = (offsets[P][..., None] + np.arange(ms))[..., :, None]
    cols = (offsets[Q][..., None] + np.arange(mt))[..., None, :]
    out[k[..., None, None], rows, cols] = Y


def _offsets(g: Groupoid) -> np.ndarray:
    """First ambient row of each point's block, by point index, as in big_matrix."""
    m = g.partition.sizes[g.point_pos[:, 0]]
    return np.cumsum(m) - m


def _commutant_matrices(g: Groupoid, pieces, D: int) -> np.ndarray:
    """The commutant basis Y (x) E_xy, x in b, y in c, Y in N_bc, as (dim, D, D)."""
    offsets = _offsets(g)
    out = np.zeros((sum(Y.size for *_, Y in pieces), D, D), dtype=complex)
    start = 0
    for s, t, r, q, Y in pieces:
        k = start + np.arange(Y.size).reshape(Y.shape)
        P, Q = g.groups[s].index[r][:, :, None], g.groups[t].index[q][:, None, :]
        _embed(out, k, P, Q, Y[:, None, None], offsets)
        start += Y.size
    return out


def _bicommutant_coords(g: Groupoid, pieces) -> np.ndarray:
    """Orthonormal basis of the bicommutant in class coordinates, shape (dim, D).

    N_bb contains the identity, so the commutant holds every point
    projection and every same-class I (x) E_xy; whatever commutes with
    those is block-diagonal over the points and constant on each class,
    X = (+)_b X_b.  What remains of [X, Y (x) E_xy] = 0 is
    X_b Y = Y X_c for each Y in N_bc, whatever x in b and y in c: one
    nullspace in the sum_b m_b^2 = D entries of the class matrices.  The
    unknowns are u_b = sqrt(m_b) X_b, laid out group by group as the
    generators' stacks are, so the dot product of coordinates is the trace
    inner product of the ambient matrices.
    """
    sizes = [len(grp.blocks) * grp.m ** 2 for grp in g.groups]
    start = np.cumsum(sizes) - sizes
    M = np.zeros((sum(Y.size for *_, Y in pieces), sum(sizes)), dtype=complex)
    row = 0
    for s, t, r, q, Y in pieces:
        ms, mt = g.groups[s].m, g.groups[t].m
        rows = row + np.arange(Y.size).reshape(-1, ms * mt, 1)
        # row-major vec(X_b Y) = kron(I, Y^T) vec(X_b), vec(Y X_c) = kron(Y, I) vec(X_c)
        left = np.einsum("ia,ykj->yijak", np.eye(ms), Y).reshape(-1, ms * mt, ms * ms)
        right = np.einsum("yil,jb->yijlb", Y, np.eye(mt)).reshape(-1, ms * mt, mt * mt)
        M[rows, (start[s] + r * ms * ms)[:, None, None] + np.arange(ms * ms)] += left / np.sqrt(ms)
        M[rows, (start[t] + q * mt * mt)[:, None, None] + np.arange(mt * mt)] -= right / np.sqrt(mt)
        row += Y.size
    # the Y are orthonormal, so 1 is the scale of the equations
    ((vecs, null),) = _nullspaces([M[None]], 1.0)
    return vecs[0][null[0]]


def _class_coords(g: Groupoid, A: list[np.ndarray]) -> np.ndarray:
    """Class coordinates (see _bicommutant_coords) of stacked class matrices, shape (n, D)."""
    return np.concatenate([np.sqrt(grp.m) * a.reshape(len(a), -1) for grp, a in zip(g.groups, A)],
                          axis=1)


def _field_matrices(g: Groupoid, A: list[np.ndarray]) -> np.ndarray:
    """The ambient matrices (+)_x X_b(x) of stacked class matrices, per size group
    (n, k, m, m), as (n, D, D)."""
    n = len(A[0])
    out = np.zeros((n, g.arrow_count, g.arrow_count), dtype=complex)
    offsets = _offsets(g)
    for grp, X in zip(g.groups, A):
        # every point of the class gets the class matrix on its own diagonal block
        _embed(out, np.arange(n)[:, None, None], grp.index[None], grp.index[None],
               X[:, :, None], offsets)
    return out


@dataclass(frozen=True)
class BicommutantReport:
    """Dimensions and containments around a double commutant computation."""

    commutant: OperatorBasis
    bicommutant: OperatorBasis
    span_dim: int
    generator_residual: float
    equals_span: bool


def double_commutant(generators) -> BicommutantReport:
    """Commutant of the commutant, with the span comparison made explicit.

    ``commutant`` is {X : X G = G X for every generator G} in the whole ambient
    matrix algebra, not only its block-diagonal part, with a basis orthonormal
    under <A, B> = tr(A^H B); it is star-closed when the generating set is.
    ``span_dim`` is the linear dimension of the generator span;
    ``generator_residual`` measures how far the generators are from the
    bicommutant (they must lie inside it); ``equals_span`` records whether
    the bicommutant is exactly the span, which is the closure statement
    for a unital star-closed generating set.  The bicommutant and the
    generators are class-constant and block-diagonal, so the last two are
    measured in class coordinates, where the trace inner product is kept.
    """
    g, A, D = _gather(generators)
    pieces = _class_commutants(g, A)
    U = _bicommutant_coords(g, pieces)
    gens = _class_coords(g, A)
    # each generator divided by its largest entry, so one far smaller than the others
    # still counts (its 2-norm could underflow); zero generators span nothing.  For the
    # residuals, one past 1 is divided by a power of two t at most its largest entry:
    # exactly, and so that no norm squares past the float range
    top = np.abs(gens).max(axis=1)
    svals = np.linalg.svd(gens[top > 0] / top[top > 0, None], compute_uv=False)
    span_dim = int(np.sum(svals > RANK_TOL * svals.max(initial=0.0)))
    t = np.ldexp(1.0, np.maximum(np.frexp(top)[1] - 1, 0))
    scaled = gens / t[:, None]
    res = np.linalg.norm(scaled - (scaled @ U.conj().T) @ U, axis=1)
    # U split back into class matrices X_b = u_b / sqrt(m_b)
    cuts = np.cumsum([len(grp.blocks) * grp.m ** 2 for grp in g.groups])[:-1]
    X = [u.reshape(len(U), len(grp.blocks), grp.m, grp.m) / np.sqrt(grp.m)
         for grp, u in zip(g.groups, np.split(U, cuts, axis=1))]
    return BicommutantReport(
        commutant=OperatorBasis(_commutant_matrices(g, pieces, D), D),
        bicommutant=OperatorBasis(_field_matrices(g, X), D),
        span_dim=span_dim,
        generator_residual=float(np.max(res / np.maximum(1 / t, np.linalg.norm(scaled, axis=1)))),
        equals_span=len(U) == span_dim,
    )
