"""Seeded input configs for the benchmark workloads (standard library only).

Every config is a plain dict in the layout ``ncgroupoid.build_space``
reads, so the library receives nothing but generated data.  Next to each
config the generator states the partition it must produce (block sizes)
and, where a deformation chain runs on it, the arrow count of every
level; the worker checks both before any timing.
"""

from __future__ import annotations

import random

WEIGHTS = (1.0, 1.5, 2.0)
QUANT_EPS = 1e-9
JITTER = 1e-12

# Elements of the convolution algebra, in source (x) and destination (y)
# coordinates, shared by every library workload.
ELEMENTS = ("x1 + 2*y2 + 1", "x1*y1 + sin(x2)", "cos(y1) - x2*y2")

WORKLOADS = ("separated", "clustered", "glued", "cli")

# Full sizes and the tiny sizes of the smoke mode.
SIZES = {
    "full": {
        "separated": 3_000, "separated_chain": 100, "separated_commutant": 8,
        "clustered": (12, 48), "glued": 192,
        "cli_sweep": (4, 32), "cli_conv": (8, 8),
    },
    "smoke": {
        "separated": 200, "separated_chain": 20, "separated_commutant": 4,
        "clustered": (4, 8), "glued": 16,
        "cli_sweep": (2, 4), "cli_conv": (2, 3),
    },
}


def _config(coords, generators, compare="exact", dimension=2) -> dict:
    return {
        "dimension": dimension,
        "points": [
            {"id": i, "coords": list(c), "weight": WEIGHTS[i % len(WEIGHTS)]}
            for i, c in enumerate(coords)
        ],
        "generators": [{"name": f"g{k + 1}", "expr": e} for k, e in enumerate(generators)],
        "compare_mode": compare,
    }


def _distinct(rng: random.Random, n: int, lo: float = -1.0, hi: float = 1.0, ok=None):
    """n distinct uniform draws, optionally filtered by a predicate."""
    out: list[float] = []
    seen = set()
    while len(out) < n:
        v = rng.uniform(lo, hi)
        if v in seen or (ok is not None and not ok(v)):
            continue
        seen.add(v)
        out.append(v)
    return out


def _chain_arrows(levels: list[list[int]]) -> list[int]:
    return [sum(m * m for m in sizes) for sizes in levels]


def _centred(v: float) -> bool:
    """v / eps lies within a quarter cell of a grid point.

    Jitter of 1e-12 moves a quantized key by at most a few thousandths of a
    cell, so a value this close to the centre of its cell can never be
    rounded into a neighbouring class.
    """
    q = v / QUANT_EPS
    return abs(q - round(q)) < 0.25


def separated(rng: random.Random, n: int) -> dict:
    xs = _distinct(rng, n)
    coords = [(x, rng.uniform(-1.0, 1.0)) for x in xs]
    return _config(coords, ["x1", "sin(x2) + x1*x2"])


def clustered(rng: random.Random, n1: int, n2: int) -> dict:
    """n1 classes of n2 points: x1 takes n1 values, x2 takes n2, all jittered.

    The generator x1^2 + 1 is compared on a 1e-9 grid, so the jitter glues
    back together what exact comparison would split.  x1 and x2 are also
    centred on that grid, because the deformation chain compares the
    coordinate projections in the same quantized mode.
    """
    x1s = _distinct(rng, n1, ok=lambda v: _centred(v) and _centred(v * v + 1.0))
    x2s = _distinct(rng, n2, ok=_centred)
    coords = [
        (x1 + rng.uniform(-JITTER, JITTER), x2 + rng.uniform(-JITTER, JITTER))
        for x1 in x1s for x2 in x2s
    ]
    return _config(coords, ["x1^2 + 1"], compare={"quantized": QUANT_EPS})


def glued(rng: random.Random, n: int) -> dict:
    xs = _distinct(rng, n)
    return _config([(x, rng.uniform(-1.0, 1.0)) for x in xs], [])


def grouped(rng: random.Random, sizes: list[int]) -> dict:
    """Classes of the given sizes, glued by equal x1 values (exact mode)."""
    x1s = _distinct(rng, len(sizes))
    x2s = _distinct(rng, sum(sizes))
    coords = []
    for x1, m in zip(x1s, sizes):
        coords += [(x1, x2s[len(coords) + j]) for j in range(m)]
    return _config(coords, ["x1"])


def generate(workload: str, seed: int, smoke: bool = False) -> dict:
    """All inputs of one workload, keyed by role.

    Each value holds ``config`` and the expected ``blocks`` (sorted block
    sizes); inputs of a deformation chain also hold the expected ``chain``
    arrow counts per level.  The same (workload, seed, smoke) always gives
    the same configs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES["smoke" if smoke else "full"]
    rng = random.Random(f"{workload}:{seed}")
    out: dict[str, dict] = {}
    if workload == "separated":
        n = size["separated"]
        main = separated(rng, n)
        k = size["separated_chain"]
        side = dict(main, points=main["points"][:k])
        c = size["separated_commutant"]
        out["main"] = {"config": main, "blocks": [1] * n}
        out["chain"] = {"config": side, "blocks": [1] * k,
                        "chain": _chain_arrows([[k], [1] * k, [1] * k])}
        out["commutant"] = {"config": grouped(rng, [1] * c), "blocks": [1] * c}
    elif workload == "clustered":
        n1, n2 = size["clustered"]
        out["main"] = {"config": clustered(rng, n1, n2), "blocks": [n2] * n1,
                       "chain": _chain_arrows([[n1 * n2], [n2] * n1, [1] * (n1 * n2)])}
        out["commutant"] = {"config": grouped(rng, [2, 3]), "blocks": [2, 3]}
    elif workload == "glued":
        n = size["glued"]
        out["main"] = {"config": glued(rng, n), "blocks": [n],
                       "chain": _chain_arrows([[n], [1] * n, [1] * n])}
        out["commutant"] = {"config": glued(rng, 3), "blocks": [3]}
    else:
        k, m = size["cli_sweep"]
        out["sweep"] = {"config": grouped(rng, [m] * k), "blocks": [m] * k,
                        "chain": _chain_arrows([[k * m], [m] * k, [1] * (k * m)])}
        k, m = size["cli_conv"]
        out["conv"] = {"config": grouped(rng, [m] * k), "blocks": [m] * k}
    return out
