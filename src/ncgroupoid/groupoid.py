"""The pair groupoid of an equivalence relation on a space.

Arrows are the related ordered pairs (x, y).  Two arrows compose when the
first ends where the second starts, (x, y) o (y, z) = (x, z); the inverse
flips a pair and the units are the diagonal.  Everything is finite, so the
arrow set is just the disjoint union of block x block squares.

Array-valued layers (algebra elements, operator fields, densities) store
m x m matrices per block.  :class:`BlockStack` is the one place that
knows how: blocks of equal size m are stacked into a (k, *lead, m, m)
array per size group, matrices last, so every blockwise operation is one
array operation per distinct block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .diffspace import DiffSpace, Partition


@dataclass(frozen=True)
class Arrow:
    src: int
    dst: int


@dataclass(frozen=True, eq=False)
class SizeGroup:
    """All blocks of one size m, in block order.

    Row r of the group is block ``blocks[r]``; ``index[r, i]`` is the
    position in ``space.points`` of that block's i-th point and
    ``weights[r, i]`` its weight.
    """

    m: int
    blocks: np.ndarray
    index: np.ndarray
    weights: np.ndarray

    @cached_property
    def exact_weights(self) -> np.ndarray:
        """``weights`` as Fractions, for object-dtype (exact) stacks; made once."""
        w = np.frompyfunc(Fraction, 1, 1)(self.weights)
        w.flags.writeable = False
        return w


class Groupoid:
    """Pair groupoid of a partition of a space's points.

    Blocks, the positions of points inside them and the size groups are
    fixed at build time; all array-valued layers (convolution algebras,
    operators, densities) index fibers in this block order.
    """

    def __init__(self, space: DiffSpace, partition: Partition):
        if set(partition.block_of) != set(space.ids):
            raise ValueError("partition does not cover the space's point ids")
        self.space = space
        self.partition = partition
        self.blocks = partition.blocks
        # position of a point inside its block
        self._pos = {
            x: (b, i)
            for b, block in enumerate(self.blocks)
            for i, x in enumerate(block)
        }
        # the same (block, position) pairs as an array, by point index
        self.point_pos = np.array([self._pos[x] for x in space.ids])
        sizes = np.array([len(b) for b in self.blocks])
        weights = np.array([p.weight for p in space.points])
        groups = []
        # (size group, row inside the group) of every block
        self.slots = np.empty((len(sizes), 2), dtype=int)
        for s, m in enumerate(np.unique(sizes)):
            rows = np.flatnonzero(sizes == m)
            index = np.array([[space.index_of(x) for x in self.blocks[b]] for b in rows])
            groups.append(SizeGroup(int(m), rows, index, weights[index]))
            self.slots[rows] = np.column_stack([np.full(len(rows), s), np.arange(len(rows))])
        self.groups: tuple[SizeGroup, ...] = tuple(groups)
        for arr in (self.point_pos, self.slots, *(a for grp in groups for a in
                                                   (grp.blocks, grp.index, grp.weights))):
            arr.flags.writeable = False

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def arrow_count(self) -> int:
        return sum(len(b) ** 2 for b in self.blocks)

    def block_index(self, x: int) -> int:
        return self._pos[x][0]

    def position(self, x: int) -> tuple[int, int]:
        """(block index, position inside block) of a point."""
        return self._pos[x]

    def block_points(self, b: int) -> tuple[int, ...]:
        return self.blocks[b]

    def block_weights(self, b: int) -> np.ndarray:
        return np.array([self.space.weight(x) for x in self.blocks[b]])

    def has_arrow(self, a: Arrow) -> bool:
        return (
            a.src in self._pos
            and a.dst in self._pos
            and self._pos[a.src][0] == self._pos[a.dst][0]
        )

    def arrows(self):
        for block in self.blocks:
            for x in block:
                for y in block:
                    yield Arrow(x, y)

    def units(self):
        for x in self.partition.block_of:
            yield Arrow(x, x)

    def same_structure(self, other: "Groupoid") -> bool:
        return self.space is other.space and self.partition == other.partition

    def __repr__(self) -> str:
        sizes = [len(b) for b in self.blocks]
        return f"Groupoid({len(sizes)} orbits, block sizes {sizes})"


def build_groupoid(space: DiffSpace, rho: Partition) -> Groupoid:
    """Pair groupoid of (space, rho); rho must partition the space's ids."""
    return Groupoid(space, rho)


def compose(g: Groupoid, a1: Arrow, a2: Arrow) -> Arrow:
    """(x, y) o (y, z) = (x, z); raises on non-composable or foreign arrows."""
    if not g.has_arrow(a1) or not g.has_arrow(a2):
        raise ValueError(f"arrow not in groupoid: {a1} or {a2}")
    if a1.dst != a2.src:
        raise ValueError(f"non-composable arrows: {a1} then {a2}")
    return Arrow(a1.src, a2.dst)


def inverse(a: Arrow) -> Arrow:
    return Arrow(a.dst, a.src)


@dataclass(frozen=True)
class FiberReport:
    """The two fibers over a point and their intersection.

    ``outgoing`` collects arrows starting at the point, ``incoming`` arrows
    ending there.  For a pair groupoid the isotropy (their intersection) is
    the single unit arrow; it is computed here, not assumed.
    """

    base: int
    outgoing: tuple[Arrow, ...]
    incoming: tuple[Arrow, ...]
    isotropy: tuple[Arrow, ...]


def fibers(g: Groupoid, x: int) -> FiberReport:
    block = g.blocks[g.block_index(x)]
    outgoing = tuple(Arrow(x, y) for y in block)
    incoming = tuple(Arrow(y, x) for y in block)
    isotropy = tuple(a for a in outgoing if a in set(incoming))
    return FiberReport(base=x, outgoing=outgoing, incoming=incoming, isotropy=isotropy)


def is_transitive(g: Groupoid) -> bool:
    """True when the groupoid has a single orbit (the relation is total)."""
    return g.n_blocks == 1


def promote(arr: np.ndarray, exact: bool = False) -> np.ndarray:
    """``arr`` as float64, or complex128 if it holds complex numbers, copied only to cast;
    an object array (Fraction entries, say) stays object if ``exact``, else complex128."""
    dtype = np.result_type(arr, np.float64)
    return arr.astype(complex if dtype == object and not exact else dtype, copy=False)


class BlockStack:
    """Per-block arrays of one groupoid, stacked by block size, matrices last.

    ``arrays[s]`` holds the blocks of size group ``groupoid.groups[s]`` as
    one (k, *lead, m, m) array, rows in the group's block order: lead ()
    for operator fields, (c,) for the channels of an algebra element or
    the per-point matrices of a density.  The arrays are read-only;
    operations return new stacks.
    """

    __slots__ = ("groupoid", "arrays")

    def __init__(self, groupoid: Groupoid, arrays):
        self.groupoid = groupoid
        self.arrays: tuple[np.ndarray, ...] = tuple(arrays)
        for arr in self.arrays:
            arr.flags.writeable = False

    @classmethod
    def of(cls, g: Groupoid, data, lead=(), what="value", exact=False) -> "BlockStack":
        """A stack from one array per block (a stack passes through unchanged).

        Shapes must be lead + (m, m).  Real entries become float64, complex
        ones complex128, and with ``exact`` an object-dtype group (Fraction
        entries, say) stays object (see :func:`promote`).  The input is
        copied, never referenced.
        """
        if isinstance(data, BlockStack):
            return data
        if len(data) != g.n_blocks:
            raise ValueError(f"need one {what} array per block: got {len(data)}, "
                             f"the groupoid has {g.n_blocks}")
        blocks = [np.asarray(x) for x in data]
        for b, (arr, block) in enumerate(zip(blocks, g.blocks)):
            need = tuple(lead) + (len(block), len(block))
            if arr.shape != need:
                raise ValueError(f"block {b}: {what} shape {arr.shape}, need {need}")
        return cls(g, [promote(np.stack([blocks[b] for b in grp.blocks]), exact)
                       for grp in g.groups])

    @classmethod
    def zeros(cls, g: Groupoid, lead=()) -> "BlockStack":
        return cls(g, [np.zeros((len(grp.blocks),) + tuple(lead) + (grp.m, grp.m))
                       for grp in g.groups])

    def per_block(self, view=None) -> tuple[np.ndarray, ...]:
        """One read-only view per block, in block order, of ``view(arrays[s])`` if given."""
        groups = self.arrays if view is None else [view(arr) for arr in self.arrays]
        return tuple(groups[s][r] for s, r in self.groupoid.slots.tolist())

    def map(self, fn, *others: "BlockStack") -> "BlockStack":
        """``fn`` applied group by group to this stack's arrays and the others'."""
        for other in others:
            if not self.groupoid.same_structure(other.groupoid):
                raise ValueError("operands live on different groupoids")
        rest = [other.arrays for other in others]
        return BlockStack(self.groupoid, [fn(*arrs) for arrs in zip(self.arrays, *rest)])

    def __add__(self, other: "BlockStack") -> "BlockStack":
        return self.map(np.add, other)

    def __sub__(self, other: "BlockStack") -> "BlockStack":
        return self.map(np.subtract, other)

    def scale(self, c) -> "BlockStack":
        """Every entry times the number c: as it is for object groups (a Fraction stays
        exact), else as a float or a complex number, so a real c keeps them real."""
        num = complex(c) if np.iscomplexobj(c) else float(c)
        return self.map(lambda arr: arr * (c if arr.dtype == object else num))

    def max_abs(self) -> float:
        return max(float(np.abs(arr).max()) for arr in self.arrays)

    def restrict(self, finer: Groupoid) -> "BlockStack":
        """The sub-blocks over the blocks of a finer groupoid on the same points.

        Every block of ``finer`` must sit inside one block of this stack's
        groupoid; the entries between its points are copied.
        """
        pos = self.groupoid.point_pos
        lead = self.arrays[0].shape[1:-2]
        arrays = []
        for grp in finer.groups:
            old_block, at = pos[grp.index, 0], pos[grp.index, 1]
            if np.any(old_block != old_block[:, :1]):
                raise ValueError("levels do not refine; cannot restrict")
            slot = self.groupoid.slots[old_block[:, 0]]
            out = np.empty((len(grp.blocks),) + lead + (grp.m, grp.m),
                           dtype=np.result_type(*self.arrays))
            for s in np.unique(slot[:, 0]):
                sel = slot[:, 0] == s
                i = at[sel]
                rows = slot[sel, 1][:, None, None]
                # the indexed (block, row, col) axes come first, the lead axes after
                picked = self.arrays[s][rows, ..., i[:, :, None], i[:, None, :]]
                out[sel] = np.moveaxis(picked, (1, 2), (-2, -1))
            arrays.append(out)
        return BlockStack(finer, arrays)
