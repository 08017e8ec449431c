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

Values come first: :func:`from_expression` tabulates the values alone
and remembers the expression.  :meth:`AlgebraElement.with_jets` tabulates
the jets when a reader first asks for them (the calculus functions, the
jet views ``d_src``, ``d_dst`` and ``jet_at``) and keeps the result on the
element; its values equal the stored ones bit for bit.  A point where
only a partial is not finite is refused by ``with_jets``, not before.
Symbolic forms wait too: a module action, an involution or a lift
(:mod:`ncgroupoid.calculus`) derives its expression on the first read of
``expr`` (``with_jets`` reads it) and keeps it.  Until then the element
holds a :class:`~ncgroupoid._expr.Pending` recipe over its operands'
expressions, never the operands themselves.

Real input is stored as float64 and complex input as complex128; numpy's
promotion carries the dtype through, so a result is complex only when an
operand was.  Single values read out are Python complex numbers, except
that ``value_at`` of an exact element returns a Fraction.
Object dtype means exact: every entry of an object block is rational (an
int, a Fraction or a numpy integer).  The constructor and ``from_stack``
refuse any other object entry, naming its block.  An exact element scales
only by an int or a Fraction, and sums, differences and products pair it
only with another exact one; anything else raises.  Jets are float-only.
An exact element stores integer parts alone: each block as Python-int
numerators over the lcm of its denominators, split from the entries when
the element is made.  Exact convolution runs on them (the weights by their
exact integer ratios) as one integer matmul per size group, and a product
stores its own parts, each block's gcd divided out; the involution
transposes them, so ``convolve`` and ``involution`` build no Fraction.
The Fractions are built on the first read of anything that needs entries
(``stack``, ``values``, ``value_at``, sums, scaling, ``max_diff``,
``to_csv``, a representation or a restriction), once, by the Fraction
constructor, equal to what entry-wise Fraction arithmetic gives; a second
read returns the same objects.  So an int or numpy-integer entry reads
back as an equal Fraction.  ``has_jets`` and ``values_only`` build nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._expr import Expr, Pending, ValueGradFn, coordinate_symbols, format_expr, parse
from .diffspace import DiffSpace
from .groupoid import BlockStack, Groupoid, SizeGroup, over_lcm, promote
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
    :func:`module_action` and are what derivations differentiate.  Gradients
    not given are derived from ``expr`` on the first read of ``grads`` and
    kept; a non-finite partial is refused then, not before.  A product's
    are its factors' by the product rule, formed on that first read too.
    """

    def __init__(self, space: DiffSpace, values, grads=None, expr=None):
        self.space = space
        self.values = promote(np.array(values))
        if self.values.shape != (len(space.id_array),):
            raise ValueError(
                f"need one value per point, got shape {self.values.shape}"
            )
        if grads is not None:
            grads = promote(np.array(grads))
            if grads.shape != (len(space.id_array), space.dimension):
                raise ValueError(f"bad gradient shape {grads.shape}")
            grads.flags.writeable = False
        self._grads = grads
        self.expr = expr
        self.values.flags.writeable = False

    @property
    def grads(self) -> np.ndarray | None:
        if callable(self._grads):  # a product's, by the product rule
            self._grads = self._grads()
        if self._grads is None and self.expr is not None:
            syms = coordinate_symbols(self.space.dimension)
            self._grads = ValueGradFn(self.expr, syms)(self.space.coords)[1]
            self._grads.flags.writeable = False
        return self._grads

    @classmethod
    def from_expression(cls, space: DiffSpace, text) -> "BaseFunction":
        """Tabulate the values of an expression in x1..xn over the points."""
        syms = coordinate_symbols(space.dimension)
        expr = parse(text, syms)
        return cls(space, ValueGradFn(expr, syms).values(space.coords), expr=expr)

    def value_at(self, pid: int) -> complex:
        return complex(self.values[self.space.index_of(pid)])

    def __mul__(self, other: "BaseFunction") -> "BaseFunction":
        """Pointwise product, gradients by the product rule on their first read."""
        if not isinstance(other, BaseFunction):
            return NotImplemented
        if self.space is not other.space:
            raise ValueError("functions live on different spaces")
        expr = None
        if self.expr is not None and other.expr is not None:
            expr = self.expr * other.expr
        product = BaseFunction(self.space, self.values * other.values, expr=expr)

        def rule():
            if self.grads is None or other.grads is None:
                return None
            grads = self.grads * other.values[:, None] + self.values[:, None] * other.grads
            grads.flags.writeable = False
            return grads
        product._grads = rule
        return product

    def __repr__(self) -> str:
        tag = format_expr(self.expr) if self.expr is not None else "tabulated"
        return f"BaseFunction({tag!r}, {len(self.values)} points)"


class AlgebraElement:
    """A function on the arrows of a groupoid, stored as one channel stack.

    ``values[b][i, j]`` is the value at the arrow from the i-th to the j-th
    point of block b.  ``d_src[b][i, j, k]`` and ``d_dst[b][i, j, k]`` hold
    the partials with respect to the k-th source and destination coordinate;
    the constructor takes values alone, and jets come in only through the
    stack (:meth:`with_jets`, :func:`random_element`, :meth:`from_stack`).
    ``expr`` remembers the defining expression in x1..xn, y1..yn of an
    element made by :func:`from_expression` (or passed to :meth:`from_stack`),
    so jets can be tabulated on demand (:meth:`with_jets`); the jet views
    read through it then.  A pending expression is derived on the first
    read of ``expr`` and kept.

    All of it lives in ``stack``, one :class:`BlockStack` of (k, c, m, m)
    arrays: channel 0 holds the values and, with jets (c = 1 + 2n),
    channels 1..n the source partials and n+1..2n the destination
    partials.  ``has_jets`` says whether c = 1 + 2n: without jets c = 1,
    so in dimension 0 every element has jets, and they are empty.
    ``values``, ``d_src`` and ``d_dst`` are read-only per-block views,
    made on first use.
    """

    def __init__(self, groupoid: Groupoid, values):
        self._store(groupoid, [
            v[:, None] for v in BlockStack.of(groupoid, values, exact=True).arrays])

    @classmethod
    def from_stack(cls, stack: BlockStack, expr=None) -> "AlgebraElement":
        """The element whose channel stack is ``stack`` (see the class docstring);
        ``expr`` may be an expression, a :class:`Pending` one or None."""
        g, n = stack.groupoid, stack.groupoid.space.dimension
        stack.laid_out(g, "(k, c, m, m) channels (c = 1 or 1 + 2n)", lambda m: [(1,), (1 + 2 * n,)])
        return cls.__new__(cls)._store(g, stack.arrays, expr)

    def _store(self, g: Groupoid, groups, expr=None) -> "AlgebraElement":
        """Hold size group s as ``groups[s]``, a numeric (k, c, m, m) array or an exact
        group's integer parts (see :func:`_integer_parts`), and return the element; every
        way of making one ends here.  An object array is split into its parts: object dtype
        means rational, and any other entry is refused, naming the first block, in block
        order, that holds one.  An element with no exact group keeps its stack."""
        try:
            groups = [x if type(x) is tuple or x.dtype != object else _integer_parts(x)
                      for x in groups]
        except TypeError:
            bad = min(b for grp, arr in zip(g.groups, groups)
                      if type(arr) is not tuple and arr.dtype == object
                      for b, block in zip(grp.blocks.tolist(), arr) if not _rational(block))
            raise ValueError(f"block {bad}: object entries must be rational "
                             "(int, Fraction or numpy integer)") from None
        self.groupoid, self._expr = g, expr
        # per size group one of the two is None
        self._numeric = tuple(None if type(x) is tuple else x for x in groups)
        self._integers = tuple(x if type(x) is tuple else None for x in groups)
        if not any(self._integers):
            self.stack = BlockStack(g, self._numeric)
        return self

    @cached_property
    def stack(self) -> BlockStack:
        """The channel stack; an exact group's Fractions are built here, on the first read."""
        return BlockStack(self.groupoid, [
            arr if parts is None else _fractions(*parts)
            for arr, parts in zip(self._numeric, self._integers)])

    @property
    def _channels(self) -> int:
        """The stack's channel count, read without building any Fraction."""
        parts = self._integers[0]
        return (self._numeric[0] if parts is None else parts[0]).shape[1]

    @property
    def has_jets(self) -> bool:
        """True when the stack holds the 1 + 2n channels of values and jets."""
        return self._channels == 1 + 2 * self.groupoid.space.dimension

    @property
    def expr(self):
        """The defining expression or None; a pending one is derived on first read."""
        if isinstance(self._expr, Pending):
            self._expr = self._expr.resolve()
        return self._expr

    @cached_property
    def values(self) -> tuple[np.ndarray, ...]:
        return self.stack.per_block(lambda arr: arr[:, 0])

    def _jet_blocks(self, channels: slice) -> tuple[np.ndarray, ...] | None:
        """Per-block (m, m, n) views of a range of jet channels, through :meth:`with_jets`;
        None without jets and without an expression."""
        if not self.has_jets and self._expr is None:
            return None
        return self.with_jets().stack.per_block(lambda arr: np.moveaxis(arr[:, channels], 1, -1))

    @cached_property
    def d_src(self) -> tuple[np.ndarray, ...] | None:
        return self._jet_blocks(slice(1, self.groupoid.space.dimension + 1))

    @cached_property
    def d_dst(self) -> tuple[np.ndarray, ...] | None:
        return self._jet_blocks(slice(self.groupoid.space.dimension + 1, None))

    def values_only(self) -> "AlgebraElement":
        """This element without its jets, sharing the stored values."""
        if self._channels == 1:  # values alone; in dimension 0 always
            return self
        return AlgebraElement.from_stack(self.stack.map(lambda arr: arr[:, :1]), expr=self._expr)

    def _channels_at(self, src: int, dst: int) -> np.ndarray:
        """All channels stored at the arrow (src, dst); raises if it is not an arrow."""
        g = self.groupoid
        (b, i), (b2, j) = g.point_pos[[g.space.index_of(src), g.space.index_of(dst)]].tolist()
        if b != b2:
            raise ValueError(f"({src}, {dst}) is not an arrow of the groupoid")
        s, r = g.slots[b]
        return self.stack.arrays[s][r, :, i, j]

    def value_at(self, src: int, dst: int) -> complex:
        channels = self._channels_at(src, dst)
        return channels[0] if channels.dtype == object else complex(channels[0])

    def jet_at(self, src: int, dst: int) -> Jet:
        n = self.groupoid.space.dimension
        value, *partials = map(complex, self.with_jets()._channels_at(src, dst))
        return Jet(value=value, d_src=tuple(partials[:n]), d_dst=tuple(partials[n:]))

    def max_abs(self) -> float:
        return self.values_only().stack.max_abs()

    def with_jets(self) -> "AlgebraElement":
        """This element with jets available.

        Returns self when jets are stored.  Otherwise the defining
        expression, if remembered, is tabulated with its jets on the first
        call and the same element returned on later ones.  Its values are
        tabulated again too: they equal what :func:`from_expression` stores
        bit for bit, and may differ by roundoff from values computed some
        other way (by :func:`module_action`, say).  Without jets or an
        expression, raises.
        """
        if self.has_jets:
            return self
        if self._expr is None:
            raise ValueError("element carries no jets and no defining expression")
        return self._tabulated_jets

    @cached_property
    def _tabulated_jets(self) -> "AlgebraElement":
        bundle = ValueGradFn(self.expr, _arrow_symbols(self.groupoid))
        n = self.groupoid.space.dimension

        def fill(src, dst, out):
            np.copyto(out[..., 0], bundle(src, dst, out=out[..., 1:])[0])
        return AlgebraElement.from_stack(_tabulate(self.groupoid, 1 + 2 * n, fill), self.expr)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return _channelwise(np.add, self, other, "adds")

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return _channelwise(np.subtract, self, other, "subtracts")

    def __neg__(self):
        return self.__mul__(-1)

    def __mul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            raise TypeError("use convolve(a, b) for the algebra product")
        if not isinstance(scalar, _RATIONAL) and any(self._integers):
            raise ValueError("an exact element scales only by an int or a Fraction, "
                             f"not {scalar!r}")
        return AlgebraElement.from_stack(self.stack.scale(scalar))

    __rmul__ = __mul__

    def to_csv(self, path) -> None:
        n = self.groupoid.space.dimension
        header = ["src", "dst", "re", "im"]
        if self.has_jets:
            for k in range(n):
                header += [f"d_src{k + 1}_re", f"d_src{k + 1}_im"]
            for k in range(n):
                header += [f"d_dst{k + 1}_re", f"d_dst{k + 1}_im"]
        write_csv(path, header, self.stack.columns())

    def __repr__(self) -> str:
        sizes = self.groupoid.partition.sizes.tolist()
        jets = "with jets" if self.has_jets else "no jets"
        return f"AlgebraElement(blocks {sizes}, {jets})"


def from_expression(g: Groupoid, text) -> AlgebraElement:
    """Tabulate an expression in x1..xn (source) and y1..yn (destination).

    Values first: the element stores the values alone and remembers the
    expression, and its partials are not even derived.  The jets come
    from :meth:`AlgebraElement.with_jets`, on first use, as the exact
    partials of the same values.  The expression is evaluated once per
    size group, over all its arrows at once, straight into the element's
    stack.  A NaN or infinity in a value is refused here; one in a partial
    only by ``with_jets``.
    """
    syms = _arrow_symbols(g)
    fn = ValueGradFn(parse(text, syms), syms)
    stack = _tabulate(g, 1, lambda src, dst, out: fn.values(src, dst, out=out[..., 0]))
    return AlgebraElement.from_stack(stack, expr=fn.expr)


def _arrow_symbols(g: Groupoid) -> tuple:
    n = g.space.dimension
    return coordinate_symbols(n) + coordinate_symbols(n, prefix="y")


def _tabulate(g: Groupoid, channels: int, fill) -> BlockStack:
    """A float stack of ``channels`` channels, ``fill(src, dst, out)`` writing a size group's
    into ``out``, channels last, from the source and destination coordinates of its arrows."""
    arrays = []
    for grp in g.groups:
        coords = g.space.coords[grp.index]  # (k, m, n)
        arr = np.empty((len(grp.blocks), channels, grp.m, grp.m))
        fill(coords[:, :, None], coords[:, None, :], np.moveaxis(arr, 1, -1))
        arrays.append(arr)
    return BlockStack(g, arrays)


def _channelwise(op, a: AlgebraElement, b: AlgebraElement, verb: str) -> AlgebraElement:
    """``op`` on the channels both operands carry: jets only when both have them."""
    jets = a.has_jets and b.has_jets
    c = None if jets else 1
    stack = a.stack.map(lambda x, y: op(x[:, :c], y[:, :c]), b.stack)  # checks the groupoids
    if any((x.dtype == object) != (y.dtype == object)
           for x, y in zip(a.stack.arrays, b.stack.arrays)):
        raise ValueError(f"an exact element {verb} only with an exact one")
    return AlgebraElement.from_stack(stack)


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
    groups = []
    for X, Y, xs, ys, grp in zip(a._numeric, b._numeric, a._integers, b._integers,
                                 a.groupoid.groups):
        if xs is not None and ys is not None:
            groups.append(_exact_product(xs, ys, grp))
            continue
        if xs is not None or ys is not None:
            raise ValueError("an exact element convolves only with an exact one")
        # weight the summed-over point z: rows of the right factor, columns of the left
        WY = Y[:, :1] * grp.weights[:, None, :, None]
        if not jets:
            groups.append(X[:, :1] @ WY)
            continue
        prod = np.empty(X.shape, dtype=np.result_type(X, WY))
        np.matmul(X[:, :n + 1], WY, out=prod[:, :n + 1])
        np.matmul(X[:, :1] * grp.weights[:, None, None, :], Y[:, n + 1:], out=prod[:, n + 1:])
        groups.append(prod)
    return AlgebraElement.__new__(AlgebraElement)._store(a.groupoid, groups)


# entries whose products and sums are exact Fractions; bool is an int
_RATIONAL = (int, Fraction, np.integer)


# an exact group's entries from its integer parts, each reduced by the constructor
_fractions = np.frompyfunc(Fraction, 2, 1)


def _rational(arr: np.ndarray) -> bool:
    """True when every entry of the object array is an int, a Fraction or a numpy integer."""
    return all(issubclass(t, _RATIONAL) for t in set(map(type, arr.flat)))


def _split(t) -> tuple[int, int]:
    """A rational entry's numerator and denominator as Python ints; TypeError for any
    other entry.  The parts of a numpy integer, or of a Fraction made of numpy integers,
    are numpy integers, which would wrap: those are cast."""
    if type(t) is Fraction:
        n, d = t.as_integer_ratio()
        if type(n) is type(d) is int:
            return n, d
    elif type(t) is int:
        return t, 1
    if isinstance(t, _RATIONAL):
        return int(t.numerator), int(t.denominator)
    raise TypeError(f"{t!r} is not rational")


def _integer_parts(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A rational (k, c, m, m) stack as Python-int numerators (k, c, m, m) over the lcm of
    each block's denominators (k, c, 1, 1); TypeError if an entry is not rational."""
    num, den = (part.reshape(arr.shape[:-2] + (-1,)) for part in _ratio(arr))
    num, common = over_lcm(num, den)
    return num.reshape(arr.shape), common[..., None]


# every entry split in one pass, its type checked on the way
_ratio = np.frompyfunc(_split, 1, 2)


def _exact_product(xs, ys, grp: SizeGroup) -> tuple[np.ndarray, np.ndarray]:
    """X @ (Y * w) for rational stacks, from their integer parts xs and ys, as one matmul
    on Python ints: the sum over z of x(i, z) w(z) y(z, j) has the denominator of its
    block.  Returns the result's own integer parts: dividing the numerators and the
    denominator by their gcd makes it the lcm of the entries' reduced denominators."""
    (x, dx), (y, dy) = xs, ys
    w, dw = grp.integer_weights
    num, den = x @ (y * w[:, None, :, None]), dx * dy * dw[:, None, :, None]
    common = np.gcd(np.gcd.reduce(num.reshape(num.shape[:-2] + (-1,)), axis=-1), den[..., 0, 0])
    return num // common[..., None, None], den // common[..., None, None]


def involution(a: AlgebraElement) -> AlgebraElement:
    """The star operation a^*(x, y) = conj(a(y, x)).

    Jets swap roles: the source partials of the result are the conjugated
    destination partials of the input, transposed, and vice versa.
    """
    n = a.groupoid.space.dimension
    # value, then the destination partials, then the source partials
    order = np.r_[0, n + 1:2 * n + 1, 1:n + 1] if a.has_jets else [0]

    def star(arr):
        out = arr[:, order].swapaxes(-1, -2)  # a fresh copy
        # conjugation is the identity on real and on rational data
        return np.conjugate(out, out=out) if arr.dtype == complex else out

    expr = None
    if a._expr is not None:
        xs = coordinate_symbols(n)
        ys = coordinate_symbols(n, prefix="y")
        swap = {**dict(zip(xs, ys)), **dict(zip(ys, xs))}
        # expressions are real-valued, so conjugation is a no-op here
        expr = Pending(Expr.subs, a._expr, swap)
    return AlgebraElement.__new__(AlgebraElement)._store(a.groupoid, [
        star(arr) if p is None else (p[0][:, order].swapaxes(-1, -2), p[1][:, order])
        for arr, p in zip(a._numeric, a._integers)], expr)


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
    if f.expr is not None and a._expr is not None:
        expr = Pending(Expr.__mul__, f.expr, a._expr)
    return AlgebraElement.from_stack(BlockStack(g, arrays), expr)


def arrow_basis(g: Groupoid) -> list[AlgebraElement]:
    """Delta elements, one per arrow, in the groupoid's arrow order."""
    zeros = [np.zeros((len(grp.blocks), 1, grp.m, grp.m)) for grp in g.groups]
    out = []
    for (s, r), m in zip(g.slots.tolist(), g.partition.sizes.tolist()):
        for i, j in np.ndindex(m, m):
            arrays = list(zeros)
            arrays[s] = zeros[s].copy()
            arrays[s][r, 0, i, j] = 1.0
            out.append(AlgebraElement.from_stack(BlockStack(g, arrays)))
    return out


def random_element(
    g: Groupoid, rng: np.random.Generator,
    with_jets: bool = False, real: bool = False,
) -> AlgebraElement:
    """A random element with standard normal entries, complex unless ``real``.

    Drawn as one stream per family (the values, then with jets the source and
    the destination partials), in block order: a block's (m, m) or (m, m, n)
    real parts, then unless ``real`` its imaginary parts."""
    n = g.space.dimension
    sizes, parts = g.partition.sizes, 1 if real else 2
    channels = [[] for _ in g.groups]
    for c in (1, n, n) if with_jets else (1,):
        per_block = parts * c * sizes ** 2
        stream = rng.standard_normal(int(per_block.sum()))
        starts = np.cumsum(per_block) - per_block
        for grp, out in zip(g.groups, channels):
            at = starts[grp.blocks, None] + np.arange(parts * c * grp.m ** 2)
            draws = stream[at].reshape(len(grp.blocks), parts, grp.m, grp.m, c)
            block = draws[:, 0] + (0 if real else 1j * draws[:, 1])
            out.append(np.moveaxis(block, -1, 1))  # (k, m, m, c) -> (k, c, m, m)
    return AlgebraElement.from_stack(
        BlockStack(g, [np.concatenate(arrs, axis=1) for arrs in channels]))


def max_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    """Largest absolute difference of values over all arrows."""
    if not a.groupoid.same_structure(b.groupoid):
        raise ValueError("elements live on different groupoids")
    return (a.values_only() - b.values_only()).max_abs()
