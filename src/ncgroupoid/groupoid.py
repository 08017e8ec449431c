"""The pair groupoid of an equivalence relation on a space.

Arrows are the related ordered pairs (x, y), so the arrow set is the
disjoint union of block x block squares: arrow (x, y) is entry (i, j) of
its block, where ``point_pos`` gives the (block, position) of x and y.
Arrows compose and invert only inside the convolution algebra.

Array-valued layers (algebra elements, operator fields, densities) store
m x m matrices per block.  :class:`BlockStack` is the one place that
knows how: blocks of equal size m are stacked into a (k, *lead, m, m)
array per size group, matrices last, so every blockwise operation is one
array operation per distinct block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diffspace import DiffSpace, Partition, _class_order


@dataclass(frozen=True, eq=False)
class SizeGroup:
    """All blocks of one size m, in block order.

    Row r of the group is block ``blocks[r]``; ``index[r, i]`` is the
    position in the space's arrays of that block's i-th point and
    ``weights[r, i]`` its weight.
    """

    m: int
    blocks: np.ndarray
    index: np.ndarray
    weights: np.ndarray

    @cached_property
    def integer_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``weights`` over one denominator per block, for rational stacks; made once.

        Python-int numerators (k, m) and denominators (k, 1), from the
        exact ``float.as_integer_ratio``.
        """
        ratios = zip(*map(float.as_integer_ratio, self.weights.ravel().tolist()))
        parts = over_lcm(*(np.array(part, dtype=object).reshape(self.weights.shape)
                           for part in ratios))
        for arr in parts:
            arr.flags.writeable = False
        return parts


def over_lcm(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rationals num / den (object arrays of Python ints) over one denominator per
    row of the last axis, the lcm of the row's: numerators, and (..., 1) denominators."""
    common = np.lcm.reduce(den, axis=-1, keepdims=True)
    return num * (common // den), common


class Groupoid:
    """Pair groupoid of a partition of a space's points.

    The positions of points inside their blocks and the size groups are
    fixed at build time, from the partition's labels; all array-valued
    layers (convolution algebras, operators, densities) index fibers in
    the partition's block order.  ``point_pos[p]`` is the (block, position
    inside the block) of the point at position p of the space's arrays.
    ``blocks`` is the partition's view of the blocks as id tuples.
    """

    def __init__(self, space: DiffSpace, partition: Partition):
        self.space, self.partition, sizes = space, partition, partition.sizes
        # position of every member in the space, blocks one after another
        index = _class_order(space, partition)
        starts = np.cumsum(sizes) - sizes
        block = np.repeat(np.arange(len(sizes)), sizes)
        self.point_pos = np.empty((len(index), 2), dtype=int)
        self.point_pos[index] = np.column_stack([block, np.arange(len(index)) - starts[block]])
        groups = []
        # (size group, row inside the group) of every block
        self.slots = np.empty((len(sizes), 2), dtype=int)
        ms, counts = np.unique(sizes, return_counts=True)
        by_size = np.split(np.argsort(sizes, kind="stable"), np.cumsum(counts)[:-1])
        for s, (m, rows) in enumerate(zip(ms.tolist(), by_size)):
            at = index[starts[rows, None] + np.arange(m)]
            groups.append(SizeGroup(m, rows, at, space.weights[at]))
            self.slots[rows] = np.column_stack([np.full(len(rows), s), np.arange(len(rows))])
        self.groups: tuple[SizeGroup, ...] = tuple(groups)
        for arr in (self.point_pos, self.slots, *(a for grp in groups for a in
                                                   (grp.blocks, grp.index, grp.weights))):
            arr.flags.writeable = False

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.partition.blocks

    @property
    def n_blocks(self) -> int:
        return self.partition.n_blocks

    @property
    def arrow_count(self) -> int:
        return sum(len(grp.blocks) * grp.m ** 2 for grp in self.groups)

    def arrows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every arrow's source and destination ids, sorted by (src, dst), and ``order``:
        sorted arrow i is flat entry ``order[i]`` of the groups' (k, m, m) matrices,
        one group after another."""
        ids = [(self.space.id_array[grp.index], grp.m) for grp in self.groups]  # (k, m) each
        # entry (i, j) of a block: row point i, column point j
        src = np.concatenate([np.repeat(b, m) for b, m in ids])
        dst = np.concatenate([np.tile(b, m).ravel() for b, m in ids])
        order = np.lexsort((dst, src))
        return src[order], dst[order], order

    def block_index(self, x: int) -> int:
        return int(self.point_pos[self.space.index_of(x), 0])

    def same_structure(self, other: "Groupoid") -> bool:
        return self.space is other.space and self.partition == other.partition

    def __repr__(self) -> str:
        return f"Groupoid({self.n_blocks} orbits, block sizes {self.partition.sizes.tolist()})"


def build_groupoid(space: DiffSpace, rho: Partition) -> Groupoid:
    """Pair groupoid of (space, rho); rho must partition the space's ids."""
    return Groupoid(space, rho)


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
    def of(cls, g: Groupoid, data, what="value", exact=False) -> "BlockStack":
        """A stack from one (m, m) array per block (a stack passes through unchanged).

        Real entries become float64, complex ones complex128, and with
        ``exact`` an object-dtype group (Fraction entries, say) stays object
        (see :func:`promote`).  The input is copied, never referenced.
        """
        if isinstance(data, BlockStack):
            return data
        if len(data) != g.n_blocks:
            raise ValueError(f"need one {what} array per block: got {len(data)}, "
                             f"the groupoid has {g.n_blocks}")
        blocks = [np.asarray(x) for x in data]
        arrays = []
        for grp in g.groups:
            group, m = [blocks[b] for b in grp.blocks.tolist()], grp.m
            k = len(group)
            try:  # stacks the blocks, with np.stack's dtype rules, if each is (m, m)
                arr = np.concatenate(group)
            except ValueError:  # 0-d blocks, or differing ndim or column counts
                arr = np.empty(0)
            if arr.shape != (k * m, m) or list(map(len, group)) != [m] * k:
                # name the first bad block in block order
                need = [(m, m) for m in g.partition.sizes.tolist()]
                b = next(b for b, arr in enumerate(blocks) if arr.shape != need[b])
                raise ValueError(f"block {b}: {what} shape {blocks[b].shape}, need {need[b]}")
            arrays.append(promote(arr.reshape(k, m, m), exact))
        return cls(g, arrays)

    @classmethod
    def zeros(cls, g: Groupoid, lead=()) -> "BlockStack":
        return cls(g, [np.zeros((len(grp.blocks),) + tuple(lead) + (grp.m, grp.m))
                       for grp in g.groups])

    def per_block(self, view=None) -> tuple[np.ndarray, ...]:
        """One read-only view per block, in block order, of ``view(arrays[s])`` if given."""
        groups = self.arrays if view is None else [view(arr) for arr in self.arrays]
        # a group's rows are in block order: the next block of group s is its next row
        rows = [iter(arr) for arr in groups]
        return tuple(map(next, [rows[s] for s in self.groupoid.slots[:, 0].tolist()]))

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

    def columns(self) -> list[np.ndarray]:
        """Columns (src, dst, re, im, ...) of one row per matrix entry, sorted by (src, dst).

        ``src`` and ``dst`` are the ids of the entry's row and column points;
        each lead channel adds its real and imaginary part, in channel order.
        A stack with no lead axis is one channel.
        """
        src, dst, order = self.groupoid.arrows()
        # (k, c, m^2) per group: channel c raveled group by group is what ``order`` indexes
        flat = [arr.reshape(len(arr), -1, arr.shape[-1] ** 2) for arr in self.arrays]
        zero = np.zeros(len(order))  # the imaginary part of real data
        columns = [src, dst]
        for c in range(flat[0].shape[1]):
            ch = promote(np.concatenate([f[:, c].ravel() for f in flat])[order])
            columns += [ch.real, ch.imag if np.iscomplexobj(ch) else zero]
        return columns

    def max_abs(self) -> float:
        # np.max, unlike max, keeps a NaN wherever it is
        return float(np.max([float(np.abs(arr).max()) for arr in self.arrays]))

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
            # the size groups present, without np.unique (which imports numpy.ma)
            for s in range(len(self.arrays)):
                sel = slot[:, 0] == s
                if not sel.any():
                    continue
                i = at[sel]
                rows = slot[sel, 1][:, None, None]
                # the indexed (block, row, col) axes come first, the lead axes after
                picked = self.arrays[s][rows, ..., i[:, :, None], i[:, None, :]]
                out[sel] = np.moveaxis(picked, (1, 2), (-2, -1))
            arrays.append(out)
        return BlockStack(finer, arrays)
