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

Real input is stored as float64 and complex input as complex128; numpy's
promotion carries the dtype through, so a result is complex only when an
operand was.  Single values read out are Python complex numbers.
Object-dtype arrays (for instance ``fractions.Fraction`` entries) are
accepted for values and flow through convolution, involution and the
unit without rounding; jets are not supported in that mode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._expr import ValueGradFn, coordinate_symbols, format_expr, parse
from .diffspace import DiffSpace
from .groupoid import Arrow, BlockStack, Groupoid, promote
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
        self.values = promote(np.array(values))
        if self.values.shape != (len(space.points),):
            raise ValueError(
                f"need one value per point, got shape {self.values.shape}"
            )
        if grads is not None:
            grads = promote(np.array(grads))
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
    """A function on the arrows of a groupoid, stored as one channel stack.

    ``values[b][i, j]`` is the value at the arrow from the i-th to the j-th
    point of block b.  ``d_src[b][i, j, k]`` and ``d_dst[b][i, j, k]`` hold
    the partials with respect to the k-th source and destination coordinate;
    either both are present or neither.  ``expr`` optionally remembers a
    defining expression in x1..xn, y1..yn so jets can be re-tabulated.

    All of it lives in ``stack``, one :class:`BlockStack` of (k, c, m, m)
    arrays: channel 0 holds the values and, with jets (c = 1 + 2n),
    channels 1..n the source partials and n+1..2n the destination
    partials.  Without jets c = 1.  ``values``, ``d_src`` and ``d_dst``
    are read-only per-block views into it, made on first use.
    """

    def __init__(self, groupoid: Groupoid, values, d_src=None, d_dst=None, expr=None):
        if (d_src is None) != (d_dst is None):
            raise ValueError("d_src and d_dst must be given together")
        arrays = [v[:, None] for v in BlockStack.of(groupoid, values, exact=True).arrays]
        if d_src is not None:
            if any(v.dtype == object for v in arrays):
                raise ValueError("jets are not supported for object-dtype values")
            n = groupoid.space.dimension
            # per block (m, m, n) in, (n, m, m) channels stored
            src, dst = (BlockStack.of(groupoid, [np.moveaxis(np.asarray(d), -1, 0) for d in jets],
                                      (n,), "jet").arrays for jets in (d_src, d_dst))
            arrays = [np.concatenate(parts, axis=1) for parts in zip(arrays, src, dst)]
        self.groupoid = groupoid
        self.stack = BlockStack(groupoid, arrays)
        self.has_jets = d_src is not None
        self.expr = expr

    @classmethod
    def from_stack(cls, stack: BlockStack, has_jets: bool = False, expr=None) -> "AlgebraElement":
        """The element whose channel stack is ``stack`` (see the class docstring)."""
        a = cls.__new__(cls)
        a.groupoid, a.stack, a.has_jets, a.expr = stack.groupoid, stack, has_jets, expr
        return a

    @cached_property
    def values(self) -> tuple[np.ndarray, ...]:
        return self.stack.per_block(lambda arr: arr[:, 0])

    def _jet_blocks(self, channels: slice) -> tuple[np.ndarray, ...] | None:
        """Per-block (m, m, n) views of a range of jet channels; None without jets."""
        if not self.has_jets:
            return None
        return self.stack.per_block(lambda arr: np.moveaxis(arr[:, channels], 1, -1))

    @cached_property
    def d_src(self) -> tuple[np.ndarray, ...] | None:
        return self._jet_blocks(slice(1, self.groupoid.space.dimension + 1))

    @cached_property
    def d_dst(self) -> tuple[np.ndarray, ...] | None:
        return self._jet_blocks(slice(self.groupoid.space.dimension + 1, None))

    def values_only(self) -> "AlgebraElement":
        """This element without its jets, sharing the stored values."""
        if not self.has_jets:
            return self
        return AlgebraElement.from_stack(self.stack.map(lambda arr: arr[:, :1]), expr=self.expr)

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
            d_src=tuple(map(complex, self.d_src[b][i, j])),
            d_dst=tuple(map(complex, self.d_dst[b][i, j])),
        )

    def max_abs(self) -> float:
        return self.values_only().stack.max_abs()

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

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return _channelwise(np.add, self, other)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return _channelwise(np.subtract, self, other)

    def __neg__(self):
        return self.__mul__(-1)

    def __mul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            raise TypeError("use convolve(a, b) for the algebra product")
        return AlgebraElement.from_stack(self.stack.scale(scalar), self.has_jets)

    __rmul__ = __mul__

    def to_records(self) -> list[tuple]:
        """Rows (src, dst, re, im, d_src..., d_dst...), sorted by (src, dst).

        Jet columns are interleaved re/im per coordinate and appear only
        when the element carries jets.
        """
        g = self.groupoid
        ids = np.array(g.space.ids)
        src, dst, channels = [], [], []
        for grp, arr in zip(g.groups, self.stack.arrays):
            block_ids = ids[grp.index]  # (k, m)
            shape = block_ids.shape + (grp.m,)
            src.append(np.broadcast_to(block_ids[:, :, None], shape).ravel())
            dst.append(np.broadcast_to(block_ids[:, None, :], shape).ravel())
            # (k, c, m, m) -> one row of c channels per arrow
            channels.append(np.moveaxis(arr, 1, -1).reshape(-1, arr.shape[1]).astype(complex))
        src, dst, channels = (np.concatenate(parts) for parts in (src, dst, channels))
        order = np.lexsort((dst, src))
        # re and im interleaved per channel
        table = channels[order].view(float)
        return [(x, y, *row) for x, y, row in
                zip(src[order].tolist(), dst[order].tolist(), table.tolist())]

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
        cells = [np.moveaxis(np.array([[table[x, y] for y in block] for x in block]), -1, 0)
                 for block in g.blocks]
        return cls.from_stack(BlockStack.of(g, cells, ((len(header) - 2) // 2,)), with_jets)

    def __repr__(self) -> str:
        sizes = [len(b) for b in self.groupoid.blocks]
        jets = "with jets" if self.has_jets else "no jets"
        return f"AlgebraElement(blocks {sizes}, {jets})"


def from_expression(g: Groupoid, text) -> AlgebraElement:
    """Tabulate an expression in x1..xn (source) and y1..yn (destination).

    Values and both jet families come from one symbolic bundle, so the jets
    are the exact partials of the tabulated values.  The bundle runs once
    per size group, over all its arrows at once, and writes straight into
    the element's channels.
    """
    n = g.space.dimension
    syms = coordinate_symbols(n) + coordinate_symbols(n, prefix="y")
    expr = parse(text, syms)
    bundle = ValueGradFn(expr, syms)
    arrays = []
    for grp in g.groups:
        coords = g.space.coords[grp.index]  # (k, m, n)
        arr = np.empty((len(grp.blocks), 1 + 2 * n, grp.m, grp.m))
        arr[:, 0], _ = bundle(coords[:, :, None], coords[:, None, :],
                              out=np.moveaxis(arr[:, 1:], 1, -1))
        arrays.append(arr)
    return AlgebraElement.from_stack(BlockStack(g, arrays), True, expr)


def _channelwise(op, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """``op`` on the channels both operands carry: jets only when both have them."""
    jets = a.has_jets and b.has_jets
    c = None if jets else 1
    return AlgebraElement.from_stack(a.stack.map(lambda x, y: op(x[:, :c], y[:, :c]), b.stack),
                                     jets)


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a * b)(x, y) = sum_z a(x, z) b(z, y) w(z), blockwise.

    Jets propagate when both factors carry them: the source partials hit
    the left factor, the destination partials the right one.  On singleton
    blocks with unit weight this degenerates to the plain pointwise product.
    """
    if not a.groupoid.same_structure(b.groupoid):
        raise ValueError("elements live on different groupoids")
    jets = a.has_jets and b.has_jets
    n = a.groupoid.space.dimension

    def product(X, Y, grp):
        w = grp.exact_weights if X.dtype == object else grp.weights
        # weight the summed-over point z: rows of the right factor, columns of the left
        WY = Y[:, :1] * w[:, None, :, None]
        if not jets:
            return X[:, :1] @ WY
        out = np.empty(X.shape, dtype=np.result_type(X, WY))
        np.matmul(X[:, :n + 1], WY, out=out[:, :n + 1])
        np.matmul(X[:, :1] * w[:, None, None, :], Y[:, n + 1:], out=out[:, n + 1:])
        return out

    return AlgebraElement.from_stack(BlockStack(a.groupoid, map(
        product, a.stack.arrays, b.stack.arrays, a.groupoid.groups)), jets)


def involution(a: AlgebraElement) -> AlgebraElement:
    """The star operation a^*(x, y) = conj(a(y, x)).

    Jets swap roles: the source partials of the result are the conjugated
    destination partials of the input, transposed, and vice versa.
    """
    n = a.groupoid.space.dimension
    # value, then the destination partials, then the source partials
    order = np.r_[0, n + 1:2 * n + 1, 1:n + 1] if a.has_jets else [0]

    def star(arr):
        out = arr[:, order].swapaxes(-1, -2)  # a fresh copy, conjugated in place
        return np.conjugate(out, out=out)

    expr = None
    if a.expr is not None:
        xs = coordinate_symbols(n)
        ys = coordinate_symbols(n, prefix="y")
        swap = {**dict(zip(xs, ys)), **dict(zip(ys, xs))}
        # expressions are real-valued, so conjugation is a no-op here
        expr = a.expr.subs(swap)
    return AlgebraElement.from_stack(a.stack.map(star), a.has_jets, expr)


def unit(g: Groupoid) -> AlgebraElement:
    """The convolution unit e(x, y) = delta(x, y) / w(x).

    Dividing by the weight cancels the measure in the convolution sum.  The
    unit carries no jets: it is measure data, not a function of the
    coordinates.
    """
    return AlgebraElement.from_stack(BlockStack(g, [
        (np.eye(grp.m) / grp.weights[:, :, None])[:, None] for grp in g.groups]))


def module_action(f: BaseFunction, a: AlgebraElement) -> AlgebraElement:
    """Left action of a point function: (f . a)(x, y) = f(x) a(x, y).

    Source partials follow the product rule through f; destination partials
    just scale.  If f has no gradient data the result drops its jets.
    """
    if f.space is not a.groupoid.space:
        raise ValueError("function and element live on different spaces")
    g = a.groupoid
    n = g.space.dimension
    jets = a.has_jets and f.grads is not None
    arrays = []
    for grp, arr in zip(g.groups, a.stack.arrays):
        out = f.values[grp.index][:, None, :, None] * (arr if jets else arr[:, :1])
        if jets:
            # (k, n, m, 1): the gradient of f at the source point of every arrow
            grad = np.moveaxis(f.grads[grp.index], -1, 1)[..., None]
            # the update is in place, so the buffer takes the gradient's type too
            out = out.astype(np.result_type(out, grad), copy=False)
            out[:, 1:n + 1] += grad * arr[:, :1]
        arrays.append(out)
    expr = None
    if f.expr is not None and a.expr is not None:
        expr = f.expr * a.expr
    return AlgebraElement.from_stack(BlockStack(g, arrays), jets, expr)


def arrow_basis(g: Groupoid) -> list[AlgebraElement]:
    """Delta elements, one per arrow, in the groupoid's arrow order."""
    zeros = BlockStack.zeros(g, (1,)).arrays
    out = []
    for b, (s, r) in enumerate(g.slots.tolist()):
        m = len(g.blocks[b])
        for i in range(m):
            for j in range(m):
                arrays = list(zeros)
                arrays[s] = zeros[s].copy()
                arrays[s][r, 0, i, j] = 1.0
                out.append(AlgebraElement.from_stack(BlockStack(g, arrays)))
    return out


def random_element(
    g: Groupoid, rng: np.random.Generator,
    with_jets: bool = False, real: bool = False,
) -> AlgebraElement:
    """A random element with standard normal entries, complex unless ``real``."""
    n = g.space.dimension

    def draw(shape):
        return rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))

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
    return (a.values_only() - b.values_only()).max_abs()
