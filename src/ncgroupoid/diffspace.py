"""Finite differential spaces: measured point sets with generating function families.

A space is a finite set of points in R^n, each carrying a positive weight
(an atomic measure), together with a family of smooth generating functions
of the coordinates.  The central construction is the relation that glues
together points no generator can separate; its classes are the fibers of
the joint evaluation map x -> (f1(x), ..., fm(x)).  Functions constant on
the classes of a relation descend to the quotient, and the quotient of the
space itself is again a space of the same kind.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ._expr import ConfigError, ExpressionError, ValueGradFn, coordinate_symbols, format_expr, parse


def _whole(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int when it is a whole number (2 or 2.0) of at least ``minimum``."""
    if ((isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer())
            and (minimum is None or value >= minimum)):
        return int(value)
    at_least = "" if minimum is None else f" of at least {minimum}"
    raise ConfigError(f"{what} must be a whole number{at_least}, got {value!r}")


def _is_number(value) -> bool:
    """A finite int or float other than a bool, as a JSON number parses.

    ``abs(value) <= max`` compares ints exactly, so ints past the float range
    count as infinite instead of overflowing ``float``.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


class Point(NamedTuple):
    """One atom of the space: an id, coordinates in R^n, a positive weight."""

    id: int
    coords: tuple[float, ...]
    weight: float


class GeneratorFunction:
    """A named smooth function of the coordinates, kept as an expression."""

    def __init__(self, name: str, expr, dimension: int):
        self.name = str(name)
        self.dimension = _whole(dimension, "dimension", minimum=0)
        self.symbols = coordinate_symbols(self.dimension)
        self.expr = parse(expr, self.symbols)

    @property
    def expr_text(self) -> str:
        return format_expr(self.expr)

    def __repr__(self) -> str:
        return f"GeneratorFunction({self.name!r}, {self.expr_text!r})"


class Partition:
    """A partition of point ids, stored as one label array.

    ``members`` holds the ids in ascending order, ``labels[i]`` the block of
    ``members[i]``, ``sizes`` the block sizes and ``order`` the members block
    after block.  Blocks are numbered by their smallest member, so equal
    relations have equal arrays however they were built: every constructor
    goes through one canonicalizing path, which refuses an empty block, an
    id in two blocks and an id repeated inside a block.  ``blocks`` (id
    tuples) and ``block_of`` (id -> block) are views made on first use.
    """

    def __init__(self, blocks):
        blocks = [[int(x) for x in block] for block in blocks]
        self._settle(np.array([x for block in blocks for x in block], dtype=np.int64),
                     np.repeat(np.arange(len(blocks)), [len(b) for b in blocks]), len(blocks))

    @classmethod
    def _of_labels(cls, ids, labels, n_labels: int) -> "Partition":
        """The partition putting ids[i] into block labels[i], labels in range(n_labels)."""
        p = cls.__new__(cls)
        p._settle(np.asarray(ids, dtype=np.int64), np.asarray(labels, dtype=np.intp), n_labels)
        return p

    @classmethod
    def identity(cls, ids) -> "Partition":
        return cls._of_labels(ids, np.arange(len(ids)), len(ids))

    @classmethod
    def total(cls, ids) -> "Partition":
        return cls._of_labels(ids, np.zeros(len(ids)), 1)

    def _settle(self, ids: np.ndarray, labels: np.ndarray, n_labels: int) -> None:
        # sorted stably, an id's blocks keep the order they were given in
        order = np.argsort(ids, kind="stable")
        ids, labels = ids[order], labels[order]
        sizes = np.bincount(labels, minlength=n_labels)
        repeated = ids[1:] == ids[:-1]
        if not sizes.all():
            raise ValueError("empty block in partition")
        if repeated.any():
            shared = set(ids[1:][repeated & (labels[1:] != labels[:-1])].tolist())
            raise ValueError(f"ids {sorted(shared)} appear in more than one block" if shared
                             else "repeated id inside a block")
        # number the blocks by first appearance in id order, i.e. by smallest member
        first = np.full(n_labels, len(ids))
        np.minimum.at(first, labels, np.arange(len(ids)))
        self.members, self.labels = ids, np.argsort(np.argsort(first))[labels]
        self.sizes, self.n_blocks = np.bincount(self.labels, minlength=n_labels), n_labels
        self.order = np.argsort(self.labels, kind="stable")
        for arr in (self.members, self.labels, self.sizes, self.order):
            arr.flags.writeable = False

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        flat, ends = self.members[self.order].tolist(), np.cumsum(self.sizes).tolist()
        return tuple(tuple(flat[end - m:end]) for end, m in zip(ends, self.sizes.tolist()))

    @cached_property
    def block_of(self) -> dict[int, int]:
        return dict(zip(self.members.tolist(), self.labels.tolist()))

    @property
    def is_identity(self) -> bool:
        return self.n_blocks == len(self.members)

    @property
    def is_total(self) -> bool:
        return self.n_blocks == 1

    def refines(self, other: "Partition") -> bool:
        """True when every block of self sits inside one block of other."""
        if not np.array_equal(self.members, other.members):
            raise ValueError("partitions cover different id sets")
        # other's label at some member of each block of self; all members must agree
        outer = np.empty(self.n_blocks, dtype=np.intp)
        outer[self.labels] = other.labels
        return bool((outer[self.labels] == other.labels).all())

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Partition)
                                 and np.array_equal(self.members, other.members)
                                 and np.array_equal(self.labels, other.labels))

    def __hash__(self) -> int:
        return hash((self.members.tobytes(), self.labels.tobytes()))

    def __repr__(self) -> str:
        return f"Partition({list(self.blocks)!r})"


class DiffSpace:
    """A finite measured point set together with its generating functions.

    The points are read-only arrays in ascending id order, whatever order
    they were listed in: ``id_array`` (int64), ``coords`` (a row of n
    coordinates per point) and ``weights``.  ``ids`` (ints),
    ``points`` (:class:`Point` views) and the lookups by id (``point``,
    ``index_of``, ``weight``) are made on first use.

    ``eps`` fixes how generator values are compared when points are glued:
    None uses bitwise equality of the evaluated floats, a positive number
    rounds values to an ``eps`` grid first (still an equivalence, so
    transitivity survives).  ``compare_mode`` names the choice, ``"exact"``
    or ``"quantized"``.

    The generators are evaluated once, at construction, into the read-only
    ``generator_values`` table (a row per point, a column per generator).
    ``generator_keys`` holds the comparison keys of its cells: v + 0.0 (so
    -0.0 equals 0.0), or v / eps rounded half to even.  No partial is
    derived.  A coordinate, value or key that is not finite is refused.
    Every refusal is a ConfigError.

    An empty generator family declares the constants-only structure
    (``constants_only`` is then True): a single constant generator named
    ``one`` is stored.
    """

    def __init__(self, points, dimension: int, generators, eps: float | None = None):
        """``points`` are :class:`Point` objects or any (id, coords, weight) triples."""
        dimension = _whole(dimension, "dimension", minimum=0)
        points = tuple(points)
        if not points:
            raise ConfigError("a space needs at least one point")
        ids, coords, weights = zip(*points)
        wrong = np.fromiter(map(len, coords), int, len(ids)) != dimension
        if wrong.any():
            i = int(np.argmax(wrong))
            raise ConfigError(f"point {ids[i]}: got {len(coords[i])} coordinates, "
                              f"expected {dimension}")
        self._settle(ids, np.array(coords, dtype=float).reshape(len(ids), dimension), weights)
        self._measure(generators, eps)

    @classmethod
    def _of_arrays(cls, ids, coords: np.ndarray, weights, generators, eps) -> "DiffSpace":
        """The space of the points with these ids, (n, dimension) coordinates and weights,
        checked and measured as by the constructor."""
        space = cls.__new__(cls)
        space._settle(ids, coords, weights)
        space._measure(generators, eps)
        return space

    def _settle(self, ids, coords: np.ndarray, weights) -> None:
        """Check and store the point arrays: ids fit in 64 bits and appear once,
        coordinates are finite, weights are positive and finite, and so is their sum."""
        try:
            ids = np.array(ids, dtype=np.int64)
        except OverflowError:
            raise ConfigError("point ids must fit in 64 bits") from None
        # the one point order: ascending id, whatever order the points were listed in
        order = np.argsort(ids, kind="stable")
        ids, coords = ids[order], np.asarray(coords, dtype=float)[order]
        weights = np.asarray(weights, dtype=float)[order]
        repeated = np.r_[False, ids[1:] == ids[:-1]]
        non_finite = ~np.isfinite(coords).all(axis=1)
        bad = repeated | non_finite | ~((weights > 0) & (weights < math.inf))
        if bad.any():
            i = int(np.argmax(bad))
            if repeated[i]:
                raise ConfigError(f"duplicate point id {ids[i]}")
            if non_finite[i]:
                raise ConfigError(f"point {ids[i]}: coordinates must be finite, "
                                  f"got {coords[i].tolist()}")
            raise ConfigError(f"point {ids[i]}: weight must be positive and finite, "
                              f"got {float(weights[i])!r}")
        with np.errstate(over="ignore"):
            if weights.sum() == math.inf:
                raise ConfigError("total weight inf: the weights sum past the float range")
        self.id_array, self.weights = ids, weights
        self.coords, self.dimension = coords, coords.shape[1]
        for arr in (ids, weights, coords):
            arr.flags.writeable = False

    def _measure(self, generators, eps) -> None:
        """Evaluate and store the generator family and its comparison keys."""
        gens = tuple(generators)
        self.constants_only = not gens
        if not gens:
            gens = (GeneratorFunction("one", "1", self.dimension),)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate generator names in {names}")
        for g in gens:
            if g.dimension != self.dimension:
                raise ConfigError(f"generator {g.name}: dimension {g.dimension} "
                                  f"!= {self.dimension}")
        self.generators: tuple[GeneratorFunction, ...] = gens

        if eps is not None and not (_is_number(eps) and eps > 0):
            raise ConfigError(f"quantized eps must be a positive number, got {eps!r}")
        self.eps = eps = None if eps is None else float(eps)

        values = np.empty((len(self.id_array), len(gens)))
        for j, g in enumerate(gens):
            try:
                values[:, j] = ValueGradFn(g.expr, g.symbols).values(self.coords)
            except ExpressionError as exc:
                raise ExpressionError(f"generator {g.name!r}: {exc}") from None
        with np.errstate(all="ignore"):
            keys = (values if eps is None else np.rint(values / eps)) + 0.0
        if not np.isfinite(keys).all():
            i, j = np.argwhere(~np.isfinite(keys))[0]
            raise ConfigError(
                f"generator {gens[j].name!r}: {float(values[i, j])!r} / eps {eps!r} is "
                f"not finite at point {self.id_array[i]}, coordinates {self.coords[i].tolist()}"
            )
        self.generator_values, self.generator_keys = values, keys
        for arr in (values, keys):
            arr.flags.writeable = False

    def with_generators(self, generators) -> "DiffSpace":
        """The same points (arrays shared, not validated again) with other generators."""
        space = copy.copy(self)
        space._measure(generators, self.eps)
        return space

    @property
    def compare_mode(self) -> str:
        return "exact" if self.eps is None else "quantized"

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(self.id_array.tolist())

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.ids, map(tuple, self.coords.tolist()), self.weights.tolist()))

    @cached_property
    def _position(self) -> dict[int, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    def point(self, pid: int) -> Point:
        return self.points[self._position[pid]]

    def index_of(self, pid: int) -> int:
        return self._position[pid]

    def weight(self, pid: int) -> float:
        return float(self.weights[self._position[pid]])

    def __repr__(self) -> str:
        return (f"DiffSpace({len(self.id_array)} points, dim={self.dimension}, "
                f"generators={[g.name for g in self.generators]}, compare={self.compare_mode})")


def _class_order(space: DiffSpace, rho: Partition) -> np.ndarray:
    """Positions of the points class by class (as ``rho.order``); refuses other ids."""
    if not np.array_equal(rho.members, space.id_array):
        raise ValueError("partition does not cover the space's point ids")
    return rho.order


def hausdorff_relation(space: DiffSpace) -> Partition:
    """Glue points that every generator maps to the same value.

    The classes are exactly the fibers of x -> (f1(x), ..., fm(x)) under the
    space's comparison mode, so the result is an equivalence relation by
    construction.  The space is Hausdorff precisely when the result is the
    identity partition.
    """
    # a label per point, shared exactly by the points whose key rows agree
    labels, count = np.zeros(len(space.id_array), dtype=np.intp), 1
    for col in space.generator_keys.T:
        values, at = np.unique(col, return_inverse=True)
        if count > 1:
            # each (label, value) pair as one integer, renumbered from 0 so none overflows
            values, at = np.unique(labels * len(values) + at, return_inverse=True)
        labels, count = at, len(values)
    return Partition._of_labels(space.id_array, labels, count)


def classes_are_fibers(space: DiffSpace, rho: Partition) -> bool:
    """True when the classes of ``rho`` are exactly the generator fibers: ``rho`` and
    the gluing relation refine each other."""
    fibers = hausdorff_relation(space)
    return rho.refines(fibers) and fibers.refines(rho)


@dataclass(frozen=True)
class GeneratorConsistency:
    """Whether one function is constant on every class of a relation."""

    name: str
    consistent: bool
    max_spread: float
    witness: tuple[int, int] | None


def consistent_family(space: DiffSpace, rho: Partition) -> tuple[GeneratorConsistency, ...]:
    """Which generators are constant on the classes of ``rho``, one result per generator.

    Against the space's own gluing relation every generator is consistent;
    for coarser relations some may fail, and those cannot descend to the
    quotient.  The witness of an inconsistent generator is the first
    member of its first split class together with the first member whose
    key differs.
    """
    # the table's rows in class order; classes start at ``starts``
    order = _class_order(space, rho)
    starts = np.cumsum(rho.sizes) - rho.sizes
    vals, keys = space.generator_values[order], space.generator_keys[order]
    spread = (np.maximum.reduceat(vals, starts) - np.minimum.reduceat(vals, starts)).max(axis=0)
    split = np.maximum.reduceat(keys, starts) != np.minimum.reduceat(keys, starts)
    results = []
    for j, g in enumerate(space.generators):
        witness = None
        if split[:, j].any():
            start = starts[int(np.argmax(split[:, j]))]
            col = keys[start:, j]
            at = order[[start, start + int(np.argmax(col != col[0]))]]
            witness = tuple(space.id_array[at].tolist())
        results.append(GeneratorConsistency(g.name, witness is None, float(spread[j]), witness))
    return tuple(results)


@dataclass(frozen=True)
class QuotientResult:
    """A quotient space plus what happened on the way down.

    The new space's point with id b is class b of the relation, so the
    relation's ``block_of`` is the projection; ``dropped`` lists generators
    that were not constant on classes and therefore did not descend.
    """

    space: DiffSpace
    dropped: tuple[str, ...]


def quotient(space: DiffSpace, rho: Partition) -> QuotientResult:
    """Collapse each class of ``rho`` to a single point.

    Class weights add.  The coordinates of a class are the values of the
    consistent generators on it, read off at the smallest member id (the
    members agree up to the comparison mode), and those generators push
    down to plain coordinate projections carrying the original names.  The
    composition (pushed-down generator) o (projection) reproduces the
    original generator's comparison keys (its values, in exact mode), which
    is the sense in which nothing is lost.
    """
    results = consistent_family(space, rho)
    kept = [j for j, r in enumerate(results) if r.consistent]
    # the smallest member of each class, and the class masses summed in id order
    reps = rho.order[np.cumsum(rho.sizes) - rho.sizes]
    masses = np.bincount(rho.labels, weights=space.weights)
    new_gens = [GeneratorFunction(space.generators[j].name, f"x{i + 1}", len(kept))
                for i, j in enumerate(kept)]
    coords = space.generator_values[np.ix_(reps, kept)]
    q = DiffSpace._of_arrays(np.arange(rho.n_blocks), coords, masses, new_gens, space.eps)
    return QuotientResult(space=q, dropped=tuple(r.name for r in results if not r.consistent))


_POINT_KEYS = {"id", "coords", "weight"}
_GENERATOR_KEYS = {"name", "expr"}
_CONFIG_KEYS = {"dimension", "points", "generators", "compare_mode", "name", "comment"}


def build_space(config: dict) -> DiffSpace:
    """Build a space from a plain dict (the JSON config layout).

    Layout::

        {
          "dimension": 2,
          "points": [{"id": 0, "coords": [0.0, 0.0], "weight": 1.0}, ...],
          "generators": [{"name": "pi1", "expr": "x1"}, ...],
          "compare_mode": "exact"            # or {"quantized": 1e-9}
        }

    ``dimension`` and each ``id`` are whole numbers, ``coords`` a list of
    finite numbers.  ``weight`` defaults to 1.0 and ``compare_mode`` to
    ``"exact"``.  An empty generator list declares the constants-only
    structure.  Malformed input raises :class:`ConfigError`, never a
    reinterpretation.
    """
    if not isinstance(config, dict):
        raise ConfigError("space config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    for key in ("dimension", "points", "generators"):
        if key not in config:
            raise ConfigError(f"missing config key {key!r}")
    # checked before any generator is built for it: that costs time linear
    # in the dimension
    dimension = _whole(config["dimension"], "dimension", minimum=0)

    raw_points = config["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ConfigError("points must be a non-empty list")
    ids, coords, weights = (_points_at_once(raw_points, dimension)
                            or _points_one_by_one(raw_points, dimension))

    raw_gens = config["generators"]
    if not isinstance(raw_gens, list):
        raise ConfigError("generators must be a list")
    generators = []
    for entry in raw_gens:
        if not isinstance(entry, dict) or set(entry) - _GENERATOR_KEYS:
            raise ConfigError(f"malformed generator entry: {entry!r}")
        if "name" not in entry or "expr" not in entry:
            raise ConfigError(f"generator entry needs name and expr: {entry!r}")
        try:
            generators.append(GeneratorFunction(str(entry["name"]), entry["expr"], dimension))
        except ExpressionError as exc:
            raise ConfigError(f"generator {entry.get('name')!r}: {exc}")

    mode, eps = config.get("compare_mode", "exact"), None
    if isinstance(mode, dict) and set(mode) == {"quantized"}:
        eps = mode["quantized"]
        if eps is None:  # which the constructor reads as exact comparison
            raise ConfigError("quantized eps must be a positive number, got None")
    elif isinstance(mode, dict):
        raise ConfigError(f"malformed compare_mode: {mode!r}")
    elif mode != "exact":
        raise ConfigError(f"unknown compare_mode {mode!r}")

    return DiffSpace._of_arrays(ids, coords, weights, generators, eps)


def _points_at_once(raw_points: list, dimension: int):
    """(ids, coords, weights) of point entries in the common layout, checked in bulk: dicts
    with the point keys, int ids, lists of ``dimension`` finite int or float coordinates
    and such weights.  None when any check fails; :func:`_points_one_by_one` then names
    the first bad entry."""
    if set(map(type, raw_points)) != {dict}:
        return None
    if not all(_POINT_KEYS >= set(keys) >= {"id", "coords"} for keys in set(map(tuple, raw_points))):
        return None
    ids, coords = (list(map(itemgetter(key), raw_points)) for key in ("id", "coords"))
    weights = [entry.get("weight", 1.0) for entry in raw_points]
    if not (set(map(type, ids)) == {int} and set(map(type, coords)) == {list}
            and set(map(len, coords)) == {dimension}):
        return None
    numbers = list(chain.from_iterable(coords)) + weights
    if not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    # strictly inside the float range: an int at its edge is left to the exact check
    if not (np.abs(values) < sys.float_info.max).all():
        return None
    return ids, values[:-len(ids)].reshape(len(ids), dimension), values[-len(ids):]


def _points_one_by_one(raw_points: list, dimension: int):
    """(ids, coords, weights) of the point entries, checked entry by entry; the first bad
    entry is refused by name."""
    ids, coords, weights = [], [], []
    for entry in raw_points:
        if not isinstance(entry, dict):
            raise ConfigError(f"point entry must be an object, got {entry!r}")
        unknown = set(entry) - _POINT_KEYS
        if unknown:
            raise ConfigError(f"unknown point key(s): {sorted(unknown)}")
        if "id" not in entry or "coords" not in entry:
            raise ConfigError(f"point entry needs id and coords: {entry!r}")
        pid = _whole(entry["id"], "point id")
        xs, weight = entry["coords"], entry.get("weight", 1.0)
        if not (isinstance(xs, list) and all(map(_is_number, xs))):
            raise ConfigError(f"point {pid}: coords must be a list of finite numbers, got {xs!r}")
        if len(xs) != dimension:
            raise ConfigError(f"point {pid}: got {len(xs)} coordinates, expected {dimension}")
        if not _is_number(weight):
            raise ConfigError(f"point {pid}: weight must be a finite number, got {weight!r}")
        ids.append(pid)
        coords.append(list(map(float, xs)))
        weights.append(float(weight))
    return ids, np.array(coords, dtype=float).reshape(len(ids), dimension), weights


def load_config(path) -> dict:
    """Read and parse a JSON config file; an unreadable or invalid one raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")
