"""The convolution *-algebra on the arrows of a groupoid.

An element is a complex function on arrows; with a(x, y) arranged as a
matrix per orbit block, convolution is

    (a * b)(x, y) = sum_z a(x, z) b(z, y) w(z)    (z in the block of x)

which is a weighted matrix product per block.  The involution is
a^*(x, y) = conj(a(y, x)), and the unit is the diagonal delta(x, y)/w(x).

Elements may carry first-order jets: for each arrow, the partial
derivatives of the arrow value with respect to the source coordinates
(``d_src``) and the destination coordinates (``d_dst``).  Convolution,
involution and the module action all move jets along by the product
rule, exactly (the weights do not depend on the coordinates).

Values are complex128 by default.  Object-dtype arrays (for instance
``fractions.Fraction`` entries) are accepted for values and flow through
convolution, involution and the unit without rounding; jets are not
supported in that mode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._expr import ValueGradFn, coordinate_symbols, format_expr, parse
from .diffspace import DiffSpace
from .groupoid import Arrow, BlockStack, Groupoid
from .reporting import write_csv


@dataclass(frozen=True)
class Jet:
    """Value and first-order partials of an element at one arrow."""

    value: complex
    d_src: tuple[complex, ...]
    d_dst: tuple[complex, ...]


class BaseFunction:
    """A function on the points of a space, with optional gradient data.

    These act on algebra elements from the left through
    :func:`module_action` and are what derivations differentiate.
    """

    def __init__(self, space: DiffSpace, values, grads=None, expr=None):
        self.space = space
        self.values = np.asarray(values, dtype=complex)
        if self.values.shape != (len(space.points),):
            raise ValueError(
                f"need one value per point, got shape {self.values.shape}"
            )
        if grads is not None:
            grads = np.asarray(grads, dtype=complex)
            if grads.shape != (len(space.points), space.dimension):
                raise ValueError(f"bad gradient shape {grads.shape}")
        self.grads = grads
        self.expr = expr
        self.values.flags.writeable = False
        if self.grads is not None:
            self.grads.flags.writeable = False

    @classmethod
    def from_expression(cls, space: DiffSpace, text) -> "BaseFunction":
        """Tabulate an expression in x1..xn over the points, with gradients."""
        syms = coordinate_symbols(space.dimension)
        expr = parse(text, syms)
        return cls(space, *ValueGradFn(expr, syms)(space.coords), expr=expr)

    def value_at(self, pid: int) -> complex:
        return complex(self.values[self.space.index_of(pid)])

    def grad_at(self, pid: int) -> tuple[complex, ...] | None:
        if self.grads is None:
            return None
        return tuple(self.grads[self.space.index_of(pid)])

    def __mul__(self, other: "BaseFunction") -> "BaseFunction":
        """Pointwise product, gradients by the product rule."""
        if not isinstance(other, BaseFunction):
            return NotImplemented
        if self.space is not other.space:
            raise ValueError("functions live on different spaces")
        values = self.values * other.values
        grads = None
        if self.grads is not None and other.grads is not None:
            grads = (
                self.grads * other.values[:, None]
                + self.values[:, None] * other.grads
            )
        expr = None
        if self.expr is not None and other.expr is not None:
            expr = self.expr * other.expr
        return BaseFunction(self.space, values, grads, expr=expr)

    def __repr__(self) -> str:
        tag = format_expr(self.expr) if self.expr is not None else "tabulated"
        return f"BaseFunction({tag!r}, {len(self.values)} points)"


class AlgebraElement:
    """A function on the arrows of a groupoid, stored as one matrix per block.

    ``values[b][i, j]`` is the value at the arrow from the i-th to the j-th
    point of block b.  ``d_src[b][i, j, k]`` and ``d_dst[b][i, j, k]`` hold
    the partials with respect to the k-th source and destination coordinate;
    either both are present or neither.  ``expr`` optionally remembers a
    defining expression in x1..xn, y1..yn so jets can be re-tabulated.
    """

    def __init__(self, groupoid: Groupoid, values, d_src=None, d_dst=None, expr=None):
        self.groupoid = groupoid
        self.value_stack = BlockStack.of(groupoid, values, exact=True)
        if (d_src is None) != (d_dst is None):
            raise ValueError("d_src and d_dst must be given together")
        self.d_src_stack = self.d_dst_stack = None
        if d_src is not None:
            if any(v.dtype == object for v in self.value_stack.arrays):
                raise ValueError("jets are not supported for object-dtype values")
            tail = (groupoid.space.dimension,)
            self.d_src_stack = BlockStack.of(groupoid, d_src, tail, "jet")
            self.d_dst_stack = BlockStack.of(groupoid, d_dst, tail, "jet")
        self.expr = expr

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        return self.value_stack.blocks

    @property
    def d_src(self) -> tuple[np.ndarray, ...] | None:
        return None if self.d_src_stack is None else self.d_src_stack.blocks

    @property
    def d_dst(self) -> tuple[np.ndarray, ...] | None:
        return None if self.d_dst_stack is None else self.d_dst_stack.blocks

    @property
    def has_jets(self) -> bool:
        return self.d_src_stack is not None

    @classmethod
    def zeros(cls, g: Groupoid, jets: bool = False) -> "AlgebraElement":
        if not jets:
            return cls(g, BlockStack.zeros(g))
        tail = (g.space.dimension,)
        return cls(g, BlockStack.zeros(g), d_src=BlockStack.zeros(g, tail),
                   d_dst=BlockStack.zeros(g, tail))

    def value_at(self, src: int, dst: int) -> complex:
        b, i = self.groupoid.position(src)
        b2, j = self.groupoid.position(dst)
        if b != b2:
            raise ValueError(f"({src}, {dst}) is not an arrow of the groupoid")
        v = self.values[b][i, j]
        return v if self.values[b].dtype == object else complex(v)

    def jet_at(self, src: int, dst: int) -> Jet:
        if not self.has_jets:
            raise ValueError("element carries no jets")
        b, i = self.groupoid.position(src)
        _, j = self.groupoid.position(dst)
        return Jet(
            value=complex(self.values[b][i, j]),
            d_src=tuple(self.d_src[b][i, j]),
            d_dst=tuple(self.d_dst[b][i, j]),
        )

    def max_abs(self) -> float:
        return self.value_stack.max_abs()

    def with_jets(self) -> "AlgebraElement":
        """This element with jets available.

        Returns self when jets are stored.  Otherwise the defining
        expression, if remembered, is re-tabulated (values included, so the
        result may differ from the stored values by roundoff).  Without
        either, raises.
        """
        if self.has_jets:
            return self
        if self.expr is not None:
            return from_expression(self.groupoid, self.expr)
        raise ValueError("element carries no jets and no defining expression")

    def _elementwise(self, other, op):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        jets = self.has_jets and other.has_jets
        return AlgebraElement(
            self.groupoid, op(self.value_stack, other.value_stack),
            d_src=op(self.d_src_stack, other.d_src_stack) if jets else None,
            d_dst=op(self.d_dst_stack, other.d_dst_stack) if jets else None,
        )

    def __add__(self, other):
        return self._elementwise(other, BlockStack.__add__)

    def __sub__(self, other):
        return self._elementwise(other, BlockStack.__sub__)

    def __neg__(self):
        return self.__mul__(-1)

    def __mul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            raise TypeError("use convolve(a, b) for the algebra product")
        c = complex(scalar)
        return AlgebraElement(
            self.groupoid, self.value_stack.scale(c),
            d_src=self.d_src_stack.scale(c) if self.has_jets else None,
            d_dst=self.d_dst_stack.scale(c) if self.has_jets else None,
        )

    __rmul__ = __mul__

    def to_records(self) -> list[tuple]:
        """Rows (src, dst, re, im, d_src..., d_dst...), sorted by (src, dst).

        Jet columns are interleaved re/im per coordinate and appear only
        when the element carries jets.
        """
        rows = []
        for x, y in sorted(self.groupoid.partition.pairs()):
            entries = [self.value_at(x, y)]
            if self.has_jets:
                jet = self.jet_at(x, y)
                entries += jet.d_src + jet.d_dst
            rows.append((x, y) + tuple(t for v in map(complex, entries) for t in (v.real, v.imag)))
        return rows

    def to_csv(self, path) -> None:
        n = self.groupoid.space.dimension
        header = ["src", "dst", "re", "im"]
        if self.has_jets:
            for k in range(n):
                header += [f"d_src{k + 1}_re", f"d_src{k + 1}_im"]
            for k in range(n):
                header += [f"d_dst{k + 1}_re", f"d_dst{k + 1}_im"]
        write_csv(path, header, self.to_records())

    @classmethod
    def from_csv(cls, g: Groupoid, path) -> "AlgebraElement":
        n = g.space.dimension
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            with_jets = len(header) > 4
            expected = 4 + (4 * n if with_jets else 0)
            if len(header) != expected:
                raise ValueError(f"unexpected column count {len(header)}")
            rows = list(reader)
        # per arrow: value, then source and destination partials
        table = {}
        for row in rows:
            src, dst = int(row[0]), int(row[1])
            if not g.has_arrow(Arrow(src, dst)):
                raise ValueError(f"({src}, {dst}) is not an arrow of the groupoid")
            nums = [float(v) for v in row[2:]]
            table[src, dst] = [complex(re, im) for re, im in zip(nums[::2], nums[1::2])]
        if len(rows) != g.arrow_count or len(table) != len(rows):
            raise ValueError(f"file has {len(rows)} arrows, groupoid has {g.arrow_count}")
        cells = [np.array([[table[x, y] for y in block] for x in block]) for block in g.blocks]
        return cls(
            g, [c[..., 0] for c in cells],
            d_src=[c[..., 1:n + 1] for c in cells] if with_jets else None,
            d_dst=[c[..., n + 1:] for c in cells] if with_jets else None,
        )

    def __repr__(self) -> str:
        sizes = [len(b) for b in self.groupoid.blocks]
        jets = "with jets" if self.has_jets else "no jets"
        return f"AlgebraElement(blocks {sizes}, {jets})"


def from_expression(g: Groupoid, text) -> AlgebraElement:
    """Tabulate an expression in x1..xn (source) and y1..yn (destination).

    Values and both jet families come from one symbolic bundle, so the jets
    are the exact partials of the tabulated values.  The bundle runs once
    per size group, over all its arrows at once.
    """
    n = g.space.dimension
    syms = coordinate_symbols(n) + coordinate_symbols(n, prefix="y")
    expr = parse(text, syms)
    bundle = ValueGradFn(expr, syms)
    values, grads = [], []
    for grp in g.groups:
        coords = g.space.coords[grp.index]  # (k, m, n)
        grad = np.empty((len(grp.blocks), grp.m, grp.m, 2 * n), dtype=complex)
        vals, _ = bundle(coords[:, :, None], coords[:, None, :], out=grad)
        values.append(vals.astype(complex))
        grads.append(grad)
    return AlgebraElement(
        g, BlockStack(g, values),
        d_src=BlockStack(g, [d[..., :n] for d in grads]),
        d_dst=BlockStack(g, [d[..., n:] for d in grads]),
        expr=expr,
    )


def _per_coordinate(fn, jets: np.ndarray) -> np.ndarray:
    """fn applied to (k, n, m, m) contiguous copies of (k, m, m, n) jets.

    One m x m matrix per coordinate keeps the products on BLAS.
    """
    out = fn(np.ascontiguousarray(jets.transpose(0, 3, 1, 2)))
    return np.ascontiguousarray(out.transpose(0, 2, 3, 1))


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a * b)(x, y) = sum_z a(x, z) b(z, y) w(z), blockwise.

    Jets propagate when both factors carry them: the source partials hit
    the left factor, the destination partials the right one.  On singleton
    blocks with unit weight this degenerates to the plain pointwise product.
    """
    if not a.groupoid.same_structure(b.groupoid):
        raise ValueError("elements live on different groupoids")
    g = a.groupoid
    A, B = a.value_stack.arrays, b.value_stack.arrays
    w = a.value_stack.weights()
    # weight the summed-over point z: rows of the right factor, columns of the left
    WB = [Bs * ws[:, :, None] for Bs, ws in zip(B, w)]
    values = BlockStack(g, [As @ WBs for As, WBs in zip(A, WB)])
    if not (a.has_jets and b.has_jets):
        return AlgebraElement(g, values)
    d_src = [_per_coordinate(lambda D: D @ WBs[:, None], ds)
             for WBs, ds in zip(WB, a.d_src_stack.arrays)]
    d_dst = [_per_coordinate(lambda D: (As * ws[:, None, :])[:, None] @ D, dd)
             for As, ws, dd in zip(A, w, b.d_dst_stack.arrays)]
    return AlgebraElement(g, values, d_src=BlockStack(g, d_src), d_dst=BlockStack(g, d_dst))


def _transpose(arr: np.ndarray) -> np.ndarray:
    """Conjugate with the two arrow slots swapped."""
    return np.conjugate(arr.swapaxes(1, 2))


def involution(a: AlgebraElement) -> AlgebraElement:
    """The star operation a^*(x, y) = conj(a(y, x)).

    Jets swap roles: the source partials of the result are the conjugated
    destination partials of the input, transposed, and vice versa.
    """
    d_src = d_dst = None
    if a.has_jets:
        d_src = a.d_dst_stack.map(_transpose)
        d_dst = a.d_src_stack.map(_transpose)
    expr = None
    if a.expr is not None:
        n = a.groupoid.space.dimension
        xs = coordinate_symbols(n)
        ys = coordinate_symbols(n, prefix="y")
        swap = {**dict(zip(xs, ys)), **dict(zip(ys, xs))}
        # expressions are real-valued, so conjugation is a no-op here
        expr = a.expr.subs(swap, simultaneous=True)
    return AlgebraElement(a.groupoid, a.value_stack.map(_transpose),
                          d_src=d_src, d_dst=d_dst, expr=expr)


def unit(g: Groupoid) -> AlgebraElement:
    """The convolution unit e(x, y) = delta(x, y) / w(x).

    Dividing by the weight cancels the measure in the convolution sum.  The
    unit carries no jets: it is measure data, not a function of the
    coordinates.
    """
    values = []
    for grp in g.groups:
        e = np.zeros((len(grp.blocks), grp.m, grp.m), dtype=complex)
        diag = np.arange(grp.m)
        e[:, diag, diag] = 1.0 / grp.weights
        values.append(e)
    return AlgebraElement(g, BlockStack(g, values))


def module_action(f: BaseFunction, a: AlgebraElement) -> AlgebraElement:
    """Left action of a point function: (f . a)(x, y) = f(x) a(x, y).

    Source partials follow the product rule through f; destination partials
    just scale.  If f has no gradient data the result drops its jets.
    """
    if f.space is not a.groupoid.space:
        raise ValueError("function and element live on different spaces")
    g = a.groupoid
    # f at the source point of every arrow, (k, m, 1) per size group
    F = [f.values[grp.index][:, :, None] for grp in g.groups]
    values = BlockStack(g, [Fs * As for Fs, As in zip(F, a.value_stack.arrays)])
    expr = None
    if f.expr is not None and a.expr is not None:
        expr = f.expr * a.expr
    if not (a.has_jets and f.grads is not None):
        return AlgebraElement(g, values, expr=expr)
    d_src = [
        f.grads[grp.index][:, :, None, :] * As[..., None] + Fs[..., None] * ds
        for grp, Fs, As, ds in zip(g.groups, F, a.value_stack.arrays, a.d_src_stack.arrays)
    ]
    d_dst = [Fs[..., None] * dd for Fs, dd in zip(F, a.d_dst_stack.arrays)]
    return AlgebraElement(g, values, d_src=BlockStack(g, d_src), d_dst=BlockStack(g, d_dst),
                          expr=expr)


def arrow_basis(g: Groupoid) -> list[AlgebraElement]:
    """Delta elements, one per arrow, in the groupoid's arrow order."""
    zeros = BlockStack.zeros(g).arrays
    out = []
    for b, (s, r) in enumerate(g.slots.tolist()):
        m = len(g.blocks[b])
        for i in range(m):
            for j in range(m):
                arrays = list(zeros)
                arrays[s] = zeros[s].copy()
                arrays[s][r, i, j] = 1.0
                out.append(AlgebraElement(g, BlockStack(g, arrays)))
    return out


def random_element(
    g: Groupoid, rng: np.random.Generator,
    with_jets: bool = False, real: bool = False,
) -> AlgebraElement:
    """A random element with standard normal entries (complex by default)."""
    n = g.space.dimension

    def draw(shape):
        if real:
            return rng.standard_normal(shape).astype(complex)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    values = [draw((len(b), len(b))) for b in g.blocks]
    if not with_jets:
        return AlgebraElement(g, values)
    d_src = [draw((len(b), len(b), n)) for b in g.blocks]
    d_dst = [draw((len(b), len(b), n)) for b in g.blocks]
    return AlgebraElement(g, values, d_src=d_src, d_dst=d_dst)


def max_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    """Largest absolute difference of values over all arrows."""
    if not a.groupoid.same_structure(b.groupoid):
        raise ValueError("elements live on different groupoids")
    return (a.value_stack - b.value_stack).max_abs()
