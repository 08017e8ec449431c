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

import json
import math
import sys
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Point:
    """One atom of the space: an id, coordinates in R^n, a positive weight."""

    id: int
    coords: tuple[float, ...]
    weight: float


class GeneratorFunction:
    """A named smooth function of the coordinates with exact symbolic partials."""

    def __init__(self, name: str, expr, dimension: int):
        self.name = str(name)
        self.dimension = _whole(dimension, "dimension", minimum=0)
        self.symbols = coordinate_symbols(self.dimension)
        self.expr = parse(expr, self.symbols)
        self._bundle = ValueGradFn(self.expr, self.symbols)

    def __call__(self, coords) -> float:
        return float(self._bundle(coords)[0])

    def gradient(self, coords) -> tuple[float, ...]:
        return tuple(self._bundle(coords)[1].tolist())

    @property
    def expr_text(self) -> str:
        return format_expr(self.expr)

    def __repr__(self) -> str:
        return f"GeneratorFunction({self.name!r}, {self.expr_text!r})"


class Partition:
    """A partition of point ids, canonically ordered.

    Blocks are stored sorted by smallest member, members sorted by id, so
    two partitions describing the same relation compare equal no matter how
    they were produced.  Two ids are related exactly when ``block_of``
    maps them to the same block.
    """

    def __init__(self, blocks):
        cleaned = []
        seen: set[int] = set()
        for block in blocks:
            members = tuple(sorted(int(x) for x in block))
            if not members:
                raise ValueError("empty block in partition")
            overlap = seen.intersection(members)
            if overlap:
                raise ValueError(f"ids {sorted(overlap)} appear in more than one block")
            if len(set(members)) != len(members):
                raise ValueError("repeated id inside a block")
            seen.update(members)
            cleaned.append(members)
        cleaned.sort(key=lambda b: b[0])
        self.blocks: tuple[tuple[int, ...], ...] = tuple(cleaned)
        self.block_of: dict[int, int] = {
            x: i for i, block in enumerate(self.blocks) for x in block
        }

    @classmethod
    def identity(cls, ids) -> "Partition":
        return cls([(x,) for x in ids])

    @classmethod
    def total(cls, ids) -> "Partition":
        return cls([tuple(ids)])

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.block_of))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_identity(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_total(self) -> bool:
        return len(self.blocks) == 1

    def refines(self, other: "Partition") -> bool:
        """True when every block of self sits inside one block of other."""
        if set(self.block_of) != set(other.block_of):
            raise ValueError("partitions cover different id sets")
        return all(
            len({other.block_of[x] for x in block}) == 1 for block in self.blocks
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"Partition({list(self.blocks)!r})"


class DiffSpace:
    """A finite measured point set together with its generating functions.

    ``compare_mode`` fixes how generator values are compared when points are
    glued: ``"exact"`` uses bitwise equality of the evaluated floats,
    ``"quantized"`` rounds values to an ``eps`` grid first (still an
    equivalence, so transitivity survives).

    The generators are evaluated once, at construction, into the read-only
    ``generator_values`` table (a row per point, a column per generator).
    ``generator_keys`` holds the comparison keys of its cells: v + 0.0 (so
    -0.0 equals 0.0), or v / eps rounded half to even.  A value, partial or
    key that is not finite is refused.  Every refusal is a ConfigError.

    An empty generator family is only meaningful for the constants-only
    structure; pass ``constants_only=True`` to get it, in which case a
    single constant generator named ``one`` is stored.
    """

    def __init__(
        self,
        points,
        dimension: int,
        generators,
        compare_mode: str = "exact",
        eps: float | None = None,
        constants_only: bool = False,
    ):
        self.dimension = _whole(dimension, "dimension", minimum=0)
        self.points: tuple[Point, ...] = tuple(points)
        if not self.points:
            raise ConfigError("a space needs at least one point")
        self._index: dict[int, int] = {}
        for i, p in enumerate(self.points):
            if p.id in self._index:
                raise ConfigError(f"duplicate point id {p.id}")
            if len(p.coords) != self.dimension:
                raise ConfigError(
                    f"point {p.id}: got {len(p.coords)} coordinates, "
                    f"expected {self.dimension}"
                )
            if not 0 < p.weight < math.inf:
                raise ConfigError(f"point {p.id}: weight must be positive and finite, "
                                  f"got {p.weight!r}")
            self._index[p.id] = i

        gens = tuple(generators)
        if not gens:
            if not constants_only:
                raise ConfigError(
                    "empty generator family (pass constants_only=True for the "
                    "trivial structure)"
                )
            gens = (GeneratorFunction("one", "1", self.dimension),)
        self.constants_only = bool(constants_only)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate generator names in {names}")
        for g in gens:
            if g.dimension != self.dimension:
                raise ConfigError(
                    f"generator {g.name}: dimension {g.dimension} != {self.dimension}"
                )
        self.generators: tuple[GeneratorFunction, ...] = gens

        if compare_mode not in ("exact", "quantized"):
            raise ConfigError(f"unknown compare_mode {compare_mode!r}")
        if compare_mode == "quantized":
            if not (_is_number(eps) and eps > 0):
                raise ConfigError(f"quantized eps must be a positive number, got {eps!r}")
            eps = float(eps)
        else:
            eps = None
        self.compare_mode = compare_mode
        self.eps = eps

        self.coords = np.array([p.coords for p in self.points], dtype=float).reshape(
            len(self.points), self.dimension)
        values = np.empty((len(self.points), len(gens)))
        for j, g in enumerate(gens):
            try:
                values[:, j] = g._bundle(self.coords)[0]
            except ExpressionError as exc:
                raise ExpressionError(f"generator {g.name!r}: {exc}") from None
        with np.errstate(all="ignore"):
            keys = (values if eps is None else np.rint(values / eps)) + 0.0
        if not np.isfinite(keys).all():
            i, j = np.argwhere(~np.isfinite(keys))[0]
            raise ConfigError(
                f"generator {gens[j].name!r}: {float(values[i, j])!r} / eps {eps!r} is "
                f"not finite at point {self.points[i].id}, coordinates {self.coords[i].tolist()}"
            )
        self.generator_values = values
        self.generator_keys = keys
        for arr in (self.coords, values, keys):
            arr.flags.writeable = False

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.points)

    def point(self, pid: int) -> Point:
        return self.points[self._index[pid]]

    def index_of(self, pid: int) -> int:
        return self._index[pid]

    def weight(self, pid: int) -> float:
        return self.point(pid).weight

    def __repr__(self) -> str:
        return (
            f"DiffSpace({len(self.points)} points, dim={self.dimension}, "
            f"generators={[g.name for g in self.generators]}, "
            f"compare={self.compare_mode})"
        )


def hausdorff_relation(space: DiffSpace) -> Partition:
    """Glue points that every generator maps to the same value.

    The classes are exactly the fibers of x -> (f1(x), ..., fm(x)) under the
    space's comparison mode, so the result is an equivalence relation by
    construction.  The space is Hausdorff precisely when the result is the
    identity partition.
    """
    labels = _fiber_labels(space)
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    return Partition(np.split(np.array(space.ids)[order], bounds))


def _fiber_labels(space: DiffSpace) -> np.ndarray:
    """Per point, the index of its row of comparison keys among the distinct rows."""
    _, labels = np.unique(space.generator_keys, axis=0, return_inverse=True)
    return labels.reshape(-1)


def classes_are_fibers(space: DiffSpace, rho: Partition) -> bool:
    """True when the classes of ``rho`` are exactly the generator fibers.

    Each class must carry a single tuple of comparison keys, and distinct
    classes distinct tuples.
    """
    labels = _fiber_labels(space)
    blocks = [rho.block_of[x] for x in space.ids]
    pairs = np.unique(np.column_stack([labels, blocks]), axis=0)
    return len(pairs) == rho.n_blocks == labels.max() + 1


@dataclass(frozen=True)
class GeneratorConsistency:
    """Whether one function is constant on every class of a relation."""

    name: str
    consistent: bool
    max_spread: float
    witness: tuple[int, int] | None


@dataclass(frozen=True)
class ConsistencyReport:
    results: tuple[GeneratorConsistency, ...]
    all_consistent: bool

    @property
    def dropped_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.results if not r.consistent)


def consistent_family(space: DiffSpace, rho: Partition) -> ConsistencyReport:
    """Report which generators are constant on the classes of ``rho``.

    Against the space's own gluing relation every generator is consistent;
    for coarser relations some may fail, and those cannot descend to the
    quotient.  The witness of an inconsistent generator is the first
    member of its first split class together with the first member whose
    key differs.
    """
    if set(rho.block_of) != set(space.ids):
        raise ValueError("partition does not cover the space's point ids")
    # the table's rows in class order; classes start at ``starts``
    order = [space.index_of(x) for block in rho.blocks for x in block]
    starts = np.cumsum([0] + [len(b) for b in rho.blocks[:-1]])
    vals, keys = space.generator_values[order], space.generator_keys[order]
    spread = (np.maximum.reduceat(vals, starts) - np.minimum.reduceat(vals, starts)).max(axis=0)
    split = np.maximum.reduceat(keys, starts) != np.minimum.reduceat(keys, starts)
    results = []
    for j, g in enumerate(space.generators):
        witness = None
        if split[:, j].any():
            b = int(np.argmax(split[:, j]))
            block = rho.blocks[b]
            col = keys[starts[b]:starts[b] + len(block), j]
            witness = (block[0], block[int(np.argmax(col != col[0]))])
        results.append(GeneratorConsistency(g.name, witness is None, float(spread[j]), witness))
    return ConsistencyReport(tuple(results), all(r.consistent for r in results))


@dataclass(frozen=True)
class QuotientResult:
    """A quotient space plus what happened on the way down.

    ``projection`` maps each original point id to its class id in the new
    space; ``dropped`` lists generators that were not constant on classes
    and therefore did not descend.
    """

    space: DiffSpace
    dropped: tuple[str, ...]
    projection: dict[int, int] = field(compare=False)


def quotient(space: DiffSpace, rho: Partition) -> QuotientResult:
    """Collapse each class of ``rho`` to a single point.

    Class weights add.  The coordinates of a class are the values of the
    consistent generators on it, read off at the smallest member id (the
    members agree up to the comparison mode), and those generators push
    down to plain coordinate projections carrying the original names.  The
    composition (pushed-down generator) o (projection) reproduces the
    original generator on the nose, which is the sense in which nothing is
    lost.
    """
    report = consistent_family(space, rho)
    kept = [j for j, r in enumerate(report.results) if r.consistent]
    projection = {pid: rho.block_of[pid] for pid in space.ids}
    reps = [space.index_of(block[0]) for block in rho.blocks]
    coords = space.generator_values[np.ix_(reps, kept)].tolist()
    new_points = [
        Point(id=b, coords=tuple(coords[b]), weight=sum(space.point(x).weight for x in block))
        for b, block in enumerate(rho.blocks)
    ]
    new_gens = [GeneratorFunction(space.generators[j].name, f"x{i + 1}", len(kept))
                for i, j in enumerate(kept)]
    q = DiffSpace(new_points, len(kept), new_gens, compare_mode=space.compare_mode,
                  eps=space.eps, constants_only=not kept)
    return QuotientResult(space=q, dropped=report.dropped_names, projection=projection)


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
    points = []
    for entry in raw_points:
        if not isinstance(entry, dict):
            raise ConfigError(f"point entry must be an object, got {entry!r}")
        unknown = set(entry) - _POINT_KEYS
        if unknown:
            raise ConfigError(f"unknown point key(s): {sorted(unknown)}")
        if "id" not in entry or "coords" not in entry:
            raise ConfigError(f"point entry needs id and coords: {entry!r}")
        pid = _whole(entry["id"], "point id")
        coords, weight = entry["coords"], entry.get("weight", 1.0)
        if not (isinstance(coords, list) and all(map(_is_number, coords))):
            raise ConfigError(f"point {pid}: coords must be a list of finite numbers, "
                              f"got {coords!r}")
        if len(coords) != dimension:
            raise ConfigError(f"point {pid}: got {len(coords)} coordinates, expected {dimension}")
        if not _is_number(weight):
            raise ConfigError(f"point {pid}: weight must be a finite number, got {weight!r}")
        points.append(Point(id=pid, coords=tuple(map(float, coords)), weight=float(weight)))

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
            generators.append(
                GeneratorFunction(str(entry["name"]), entry["expr"], dimension)
            )
        except ExpressionError as exc:
            raise ConfigError(f"generator {entry.get('name')!r}: {exc}")

    mode = config.get("compare_mode", "exact")
    eps = None
    if isinstance(mode, dict):
        if set(mode) != {"quantized"}:
            raise ConfigError(f"malformed compare_mode: {mode!r}")
        eps = mode["quantized"]
        mode = "quantized"

    return DiffSpace(
        points, dimension, generators,
        compare_mode=mode, eps=eps,
        constants_only=not generators,
    )


def load_config(path) -> dict:
    """Read and parse a JSON config file; an unreadable or invalid one raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


def load_space(path) -> DiffSpace:
    """Read a JSON space config from disk.  See :func:`build_space`."""
    return build_space(load_config(path))
