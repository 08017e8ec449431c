"""One workload's timed passes, run in a fresh interpreter by ``run.py``.

Usage (``src`` of the checkout on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload NAME --manifest FILE --seed N \
        --seconds S --trace 0|1

A pass runs the workload's task list once, in one process, each call made
after the previous one returned (a closed loop with one caller).  A task
times only library calls; its outputs are checked against answers known
in closed form right after it, outside the timed region.  With
``--trace 1`` untraced and traced passes alternate, so the difference of
their medians is the tracing overhead.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
import sympy

import ncgroupoid
from spans import Tracer, make_api, self_times
from workloads import ELEMENTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Relative tolerance of float identities that hold exactly in real
# arithmetic; the defects seen are near 1e-15.
TOL = 1e-12
TASKS = {
    "separated": ("build", "algebra", "exact_algebra", "calculus", "operators",
                  "commutant", "deform"),
    "clustered": ("build", "algebra", "calculus", "operators", "commutant", "deform"),
    "glued": ("build", "algebra", "calculus", "operators", "commutant", "deform"),
}
CLI_A, CLI_B = "x1 + 2*y2", "x1*y1 + 1"


def _block_sizes(g) -> list[int]:
    return sorted(len(b) for b in g.blocks)


def _scale(*elements) -> float:
    return max([1.0] + [e.max_abs() for e in elements])


# ------------------------------------------------------------------ tasks
#
# Each task takes the api (plain or traced library calls) and the pass
# context, and returns its outputs; the matching check returns
# (name, ok, detail) triples.


def task_build(api, ctx):
    ctx.space = api.build_space(ctx.inputs["main"]["config"])
    ctx.g = api.build_groupoid(ctx.space, api.hausdorff_relation(ctx.space))


def check_build(ctx, out):
    got = _block_sizes(ctx.g)
    return [("partition_shape", got == ctx.inputs["main"]["blocks"], "")]


def task_algebra(api, ctx):
    g = ctx.g
    ctx.a, ctx.b, c = (api.from_expression(g, e) for e in ELEMENTS)
    e = api.unit(g)
    out = {}
    with_jets = (ctx.a, ctx.b, c)
    plain = tuple(api.element(g, x.values) for x in with_jets)
    for tag, (x, y, z) in (("jets", with_jets), ("plain", plain)):
        xy = api.convolve(x, y)
        out[tag] = {
            "associativity": api.max_diff(api.convolve(xy, z), api.convolve(x, api.convolve(y, z))),
            "involution_antihom": api.max_diff(
                api.involution(xy), api.convolve(api.involution(y), api.involution(x))),
            "unit_law": max(api.max_diff(api.convolve(e, x), x),
                            api.max_diff(api.convolve(x, e), x)),
            "elements": (x, y, z, xy),
        }
    return out


def check_algebra(ctx, out):
    results = []
    for tag, res in out.items():
        x, y, z, xy = res["elements"]
        scale = {"associativity": _scale(x) * _scale(y) * _scale(z) * ctx.mass ** 2,
                 "involution_antihom": _scale(x) * _scale(y) * ctx.mass,
                 "unit_law": _scale(x)}
        for law, bound in scale.items():
            results.append((f"{law}_{tag}", res[law] <= TOL * bound, f"{res[law]:.3g}"))
    if all(len(b) == 1 for b in ctx.g.blocks):
        # singleton blocks: convolution is the weighted pointwise product
        x, y, _, xy = out["plain"]["elements"]
        w = np.array([ctx.space.weight(b[0]) for b in ctx.g.blocks])
        vx, vy, vxy = (np.array([v[0, 0] for v in el.values]) for el in (x, y, xy))
        err = float(np.max(np.abs(vxy - vx * vy * w)))
        results.append(("singleton_pointwise_product",
                        err <= TOL * _scale(x) * _scale(y) * ctx.mass, f"{err:.3g}"))
    return results


def task_exact_algebra(api, ctx):
    g = ctx.g
    x, y, z = (api.element(g, vals) for vals in ctx.exact_values)
    e = api.element(g, ctx.exact_unit)
    xy = api.convolve(x, y)
    return {
        "associativity": (api.convolve(xy, z), api.convolve(x, api.convolve(y, z))),
        "involution_antihom": (api.involution(xy),
                               api.convolve(api.involution(y), api.involution(x))),
        "unit_left": (api.convolve(e, x), x),
        "unit_right": (api.convolve(x, e), x),
    }


def _exactly_equal(p, q) -> bool:
    return all(
        u.dtype == object and np.array_equal(u, v)
        and all(type(t) is Fraction for t in u.flat)
        for u, v in zip(p.values, q.values)
    )


def check_exact_algebra(ctx, out):
    return [(f"exact_{law}", _exactly_equal(*pair), "") for law, pair in out.items()]


def task_calculus(api, ctx):
    P = api.derivation(ctx.space, ["x1 + 1", "x2 + 2"])
    f = api.base_function(ctx.space, "x1^2 + x2")
    leibniz = api.leibniz_defect(P, ctx.a, ctx.b)
    commutator = api.commutator_defect(P, f, ctx.a)
    d1 = api.derivation(ctx.space, ["1", "0"])
    q1 = api.base_function(ctx.space, "x1")
    position_momentum = api.max_diff(api.commutator_apply(d1, q1, ctx.a), ctx.a)
    return {"leibniz": leibniz, "commutator_vs_Qf": commutator,
            "position_momentum_identity": position_momentum}


def check_calculus(ctx, out):
    # jets and values are O(1) on coordinates in [-1, 1]; the defects sum
    # products over one class, so they scale with its mass, and each identity
    # chains several products and sums (64 leaves room for that)
    bound = TOL * 64 * _scale(ctx.a) * _scale(ctx.b) * ctx.mass
    return [(name, v <= bound, f"{v:.3g}") for name, v in out.items()]


def task_operators(api, ctx):
    R = api.represent(ctx.a)
    hom = api.homomorphism_defect(ctx.a, ctx.b)
    star = api.star_defect(ctx.a)
    sup = api.ess_sup(R)
    state = api.make_state(api.uniform_density(ctx.g))
    one = api.expect(state, api.identity(ctx.g))
    square = api.expect(state, api.compose(api.adjoint(R), R))
    return {"hom": hom, "star": star, "sup": sup, "one": one, "square": square}


def check_operators(ctx, out):
    scale = _scale(ctx.a) * _scale(ctx.b) * ctx.mass ** 2
    sq = out["square"]
    return [
        ("representation_homomorphism", out["hom"] <= TOL * scale, f"{out['hom']:.3g}"),
        ("representation_star", out["star"] <= TOL * scale, f"{out['star']:.3g}"),
        ("ess_sup_finite_positive", 0.0 < out["sup"] < float("inf"), f"{out['sup']:.6g}"),
        ("expect_identity_is_one", abs(out["one"] - 1.0) <= TOL, f"{out['one']!r}"),
        ("positivity_on_squares",
         sq.real >= -TOL * out["sup"] ** 2 and abs(sq.imag) <= TOL * max(1.0, out["sup"] ** 2),
         f"{sq!r}"),
    ]


def task_commutant(api, ctx):
    space = api.build_space(ctx.inputs["commutant"]["config"])
    g = api.build_groupoid(space, api.hausdorff_relation(space))
    gens = [api.represent(e) for e in api.arrow_basis(g)]
    return api.double_commutant(gens)


def check_commutant(ctx, out):
    expected = sum(m * m for m in ctx.inputs["commutant"]["blocks"])
    dims = (out.commutant.dim, out.bicommutant.dim, out.span_dim)
    return [
        ("commutant_dim_is_sum_of_squares", out.commutant.dim == expected, f"{dims}"),
        ("bicommutant_equals_span", out.equals_span and out.span_dim == expected, f"{dims}"),
        ("generators_inside_bicommutant", out.generator_residual <= 1e-10,
         f"{out.generator_residual:.3g}"),
    ]


def task_deform(api, ctx):
    side = ctx.inputs.get("chain")
    space = ctx.space if side is None else api.build_space(side["config"])
    chain = api.deformation_chain(space)
    defects = []
    for k in range(chain.top):
        ones = api.from_expression(chain.level(k).groupoid, "1")
        defects.append(api.restriction_defect(ones, ones, chain, k))
    top = chain.level(chain.top).groupoid
    step = api.step_n(chain, api.from_expression(top, "1 + x1*y1"),
                      api.from_expression(top, "2 - x1"))
    return {"chain": chain, "defects": defects, "step": step}


def _lost_mass(chain, k) -> float:
    """max over level-(k+1) classes of the mass their level-k class loses.

    On the constant 1, restriction of 1 * 1 sums the weights of the whole
    level-k class, the product of restrictions only those of the smaller
    level-(k+1) class; the difference is the dropped mass.
    """
    space = chain.level(k).space
    coarse = chain.level(k).partition
    mass = {b: sum(space.weight(x) for x in block) for b, block in enumerate(coarse.blocks)}
    return max(
        mass[coarse.block_of[block[0]]] - sum(space.weight(x) for x in block)
        for block in chain.level(k + 1).partition.blocks
    )


def check_deform(ctx, out):
    chain = out["chain"]
    rep = chain.report
    expected = (ctx.inputs.get("chain") or ctx.inputs["main"])["chain"]
    results = [
        ("chain_arrow_counts", list(rep.arrow_counts) == expected, f"{list(rep.arrow_counts)}"),
        ("chain_structure", rep.arrows_monotone and rep.partitions_refine and rep.fibers_exact
         and rep.top_is_diagonal, ""),
        # one product of O(1) values and a weight of at most 2
        ("top_level_weighted_pointwise", out["step"].weighted_defect <= TOL * 8,
         f"{out['step'].weighted_defect:.3g}"),
    ]
    space = chain.level(0).space
    total = sum(space.weight(x) for x in space.ids)
    for k, d in enumerate(out["defects"]):
        lost = _lost_mass(chain, k)
        results.append((f"restriction_defect_{k}_is_lost_mass",
                        abs(d - lost) <= TOL * max(1.0, total), f"{d!r} vs {lost!r}"))
    return results


LIBRARY_TASKS = {name: (globals()[f"task_{name}"], globals()[f"check_{name}"])
                 for name in TASKS["separated"]}


# ------------------------------------------------------------------ benches

class Outcome:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op: str, results) -> None:
        self.attempted += 1
        bad = [f"{op}:{name} ({detail})" for name, ok, detail in results if not ok]
        if bad:
            self.failed += 1
            self.messages = (self.messages + bad)[:5]


def _load_inputs(manifest: dict) -> dict:
    inputs = {}
    for role, spec in manifest["inputs"].items():
        with open(spec["path"], encoding="utf-8") as fh:
            inputs[role] = dict(spec, config=json.load(fh))
    return inputs


class LibraryBench:
    def __init__(self, workload: str, manifest: dict, seed: int):
        self.tasks = TASKS[workload]
        self.inputs = _load_inputs(manifest)
        points = self.inputs["main"]["config"]["points"]
        self.static = {"inputs": self.inputs}
        self.plain = make_api(None)
        if "exact_algebra" in self.tasks:
            self._exact_values(seed, len(points))

    def _exact_values(self, seed: int, n: int) -> None:
        """Three Fraction-valued elements and the exact unit (singleton blocks)."""
        rng = np.random.default_rng(seed)

        def element():
            nums = rng.integers(-9, 10, size=n)
            dens = rng.integers(1, 10, size=n)
            return [np.array([[Fraction(int(p), int(q))]], dtype=object)
                    for p, q in zip(nums, dens)]

        points = self.inputs["main"]["config"]["points"]
        self.static["exact_values"] = [element() for _ in range(3)]
        self.static["exact_unit"] = [
            np.array([[1 / Fraction(p["weight"])]], dtype=object) for p in points
        ]

    def self_check(self) -> None:
        """Refuse to time inputs whose partitions are not the stated shapes."""
        for role, spec in self.inputs.items():
            space = self.plain.build_space(spec["config"])
            got = _block_sizes(self.plain.build_groupoid(
                space, self.plain.hausdorff_relation(space)))
            if got != spec["blocks"]:
                raise SystemExit(
                    f"shape self-check failed for {role}: block sizes {_summary(got)}, "
                    f"expected {_summary(spec['blocks'])}")

    def run_pass(self, tracer, outcome: Outcome) -> dict:
        api = self.plain if tracer is None else make_api(tracer)
        ctx = SimpleNamespace(**self.static)
        times = {}
        for name in self.tasks:
            task, check = LIBRARY_TASKS[name]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = task(api, ctx)
                else:
                    with tracer.span(f"task.{name}"):
                        out = task(api, ctx)
                times[name] = time.perf_counter() - t0
                if name == "build":
                    ctx.mass = max(sum(ctx.space.weight(x) for x in b) for b in ctx.g.blocks)
                results = check(ctx, out)
            except Exception as exc:  # noqa: BLE001 - a failed operation, incl. MemoryError
                times.setdefault(name, time.perf_counter() - t0)
                results = [("exception", False, repr(exc)[:200])]
            outcome.record(name, results)
            out = None
        return {"tasks": times, "wall": sum(times.values())}

    def memory_probe(self) -> dict:
        """Peak traced allocation of four calls, each run once under tracemalloc."""
        api = self.plain
        main = self.inputs["main"]["config"]
        space = api.build_space(main)
        g = api.build_groupoid(space, api.hausdorff_relation(space))
        side = self.inputs.get("chain")
        chain_space = space if side is None else api.build_space(side["config"])
        cs = api.build_space(self.inputs["commutant"]["config"])
        cg = api.build_groupoid(cs, api.hausdorff_relation(cs))
        gens = [api.represent(e) for e in api.arrow_basis(cg)]
        probes = {
            "algebra.from_expression": lambda: api.from_expression(g, ELEMENTS[0]),
            "vonneumann.uniform_density": lambda: api.uniform_density(g),
            "vonneumann.double_commutant": lambda: api.double_commutant(gens),
            "deform.chain": lambda: api.deformation_chain(chain_space),
        }
        out = {}
        for name, probe in probes.items():
            gc.collect()
            tracemalloc.start()
            try:
                result = probe()
                out[f"{name}.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            if name == "vonneumann.uniform_density":
                out["vonneumann.density_distinct_ratio"] = _distinct_ratio(result)
            result = None
        return out


def _distinct_ratio(rho) -> float:
    """Distinct matrices (by content) over separately stored matrices."""
    stored = {m.__array_interface__["data"][0] for m in rho.matrices}
    distinct = {hashlib.blake2b(m.tobytes(), digest_size=16).digest() for m in rho.matrices}
    return len(distinct) / len(stored)


def _summary(sizes: list[int]) -> str:
    counts: dict[int, int] = {}
    for m in sizes:
        counts[m] = counts.get(m, 0) + 1
    return " + ".join(f"{c}x{m}" for m, c in sorted(counts.items()))


class CliBench:
    """Fresh ``ncgroupoid`` processes, one command at a time."""

    def __init__(self, manifest: dict, seed: int, workdir: Path):
        self.inputs = _load_inputs(manifest)
        self.workdir = workdir
        sweep, conv = self.inputs["sweep"], self.inputs["conv"]
        self.commands = {
            "verify_all": ["verify", "all", "--seed", str(seed)],
            "deform_sweep": ["deform", "sweep", "--space", sweep["path"]],
            "vn_commutant": ["vn", "commutant", "--space", "total_type_3pt"],
            "algebra_conv": ["algebra", "conv", "--space", conv["path"],
                             "--a", CLI_A, "--b", CLI_B],
        }
        arrows = sweep["chain"]
        blocks = [1, len(sweep["blocks"]), sum(sweep["blocks"])]
        # closed-form notes the reports must carry
        self.expected_notes = {
            "deform_sweep": f"levels 0..2: blocks {blocks}, arrows {arrows}",
            "vn_commutant": "ambient dim 9; commutant dim 9, bicommutant dim 9, span dim 9",
        }
        self.reports: dict[str, bytes] = {}
        self.report_bytes = 0

    def self_check(self) -> None:
        for role, spec in self.inputs.items():
            sizes = [len(s) for s in _x1_classes(spec["config"])]
            if sorted(sizes) != spec["blocks"]:
                raise SystemExit(f"shape self-check failed for {role}: {_summary(sorted(sizes))}")

    def run_pass(self, tracer, outcome: Outcome) -> dict:
        times = {}
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.report_bytes = 0
        for name, args in self.commands.items():
            out = self.workdir / "cli-out" / name
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.txt").unlink(missing_ok=True)
            span_file = self.workdir / f"spans-{name}.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "ncgroupoid.cli", *args, "--out", str(out)]
            else:
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(span_file),
                       *args, "--out", str(out)]
            t0 = time.perf_counter()
            if tracer is None:
                proc = _run(cmd, env)
            else:
                with tracer.span(f"cli.{name}") as idx:
                    proc = _run(cmd, env)
            times[name] = time.perf_counter() - t0
            if tracer is not None and span_file.exists():
                _adopt(tracer, idx, json.loads(span_file.read_text()))
                span_file.unlink()
            outcome.record(name, self._check(name, proc, out / "report.txt"))
        return {"tasks": times, "wall": sum(times.values())}

    def _check(self, name, proc, report_path: Path):
        if proc is None:
            return [("exit_code", False, "timed out")]
        results = [("exit_code", proc.returncode == 0, f"{proc.returncode}: {proc.stderr[-200:]}")]
        if not report_path.exists():
            return results + [("report_written", False, "")]
        data = report_path.read_bytes()
        self.report_bytes += len(data)
        first = self.reports.setdefault(name, data)
        results.append(("report_byte_identical", data == first, ""))
        note = self.expected_notes.get(name)
        if note is not None:
            results.append(("closed_form_note", note in data.decode("utf-8"), note))
        return results

    def memory_probe(self) -> dict:
        return {}


def _x1_classes(config: dict) -> list[list[int]]:
    classes: dict[float, list[int]] = {}
    for p in config["points"]:
        classes.setdefault(p["coords"][0], []).append(p["id"])
    return list(classes.values())


def _run(cmd, env):
    try:
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None


def _adopt(tracer: Tracer, parent: int, child_spans: list[list]) -> None:
    """Append a child process's spans under one of this tracer's spans."""
    base = len(tracer.spans)
    for name, start, end, p, counts in child_spans:
        tracer.spans.append([name, start, end, parent if p < 0 else base + p, counts])


# ------------------------------------------------------------------ passes

# The reference: a fresh interpreter that runs a fixed kernel (interpreter
# loop, numpy import, small eigendecompositions, a 64 MB memory stream),
# timed after every untraced pass.  Other load on a small shared machine
# slows all code by up to ~1.5x, in stretches from seconds to minutes that
# no statistic inside one run removes; the reference slows with the
# workload, so pass time over reference time stays put.  It runs no
# library code, in a child, so the worker's memory is untouched.
REFERENCE = """
x = 0
for i in range(300_000):
    x = (x * 31 + i) & 0xFFFF
import numpy as np
m = np.random.default_rng(0).standard_normal((64, 64))
m = m + m.T
for _ in range(30):
    np.linalg.eigvalsh(m)
a = np.ones(4_000_000)
b = np.empty_like(a)
for _ in range(6):
    np.multiply(a, 1.0001, out=b)
"""


def reference() -> float:
    t0 = time.perf_counter()
    proc = _run([sys.executable, "-c", REFERENCE], dict(os.environ))
    if proc is None or proc.returncode != 0:
        raise SystemExit("the reference kernel failed")
    return time.perf_counter() - t0


def run_passes(bench, seconds: float, trace: bool) -> dict:
    outcome = Outcome()
    untraced, traced = [], []
    run_id = f"{os.getpid()}-{time.time_ns()}"
    t_start = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(untraced)
        tracer = Tracer(run_id) if want_trace else None
        result = bench.run_pass(tracer, outcome)
        if tracer is None:
            result["ref"] = reference()
            untraced.append(result)
        else:
            result["spans"] = tracer.spans
            result["accounting"] = accounting(tracer.spans)
            outcome.record("trace_accounting",
                           check_accounting(result["accounting"], result["tasks"]))
            traced.append(result)
        done = time.perf_counter() - t_start >= seconds
        if done and untraced and (traced or not trace):
            break
    return {"untraced": untraced, "traced": traced, "outcome": outcome, "run_id": run_id}


# counts that describe one structure rather than accumulate over calls
MAX_COUNTS = {"groupoid.max_block", "vonneumann.ambient_dim", "vonneumann.commutant_dim"}


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer self times and counts, medians over the traced passes."""
    per_pass = []
    for p in traced:
        spans = p["spans"]
        selfs = self_times(spans)
        times: dict[str, float] = {}
        counts: dict[str, float] = {}
        roots = 0.0
        for s, t in zip(spans, selfs):
            times[s[0]] = times.get(s[0], 0.0) + t
            if s[3] < 0:
                roots += t
            for k, v in (s[4] or {}).items():
                counts[k] = max(counts.get(k, 0), v) if k in MAX_COUNTS else counts.get(k, 0) + v
        per_pass.append((times, counts, roots / p["wall"]))
    names = {n for t, _, _ in per_pass for n in t}
    keys = {k for _, c, _ in per_pass for k in c}
    out = {f"{n}_s": statistics.median(t.get(n, 0.0) for t, _, _ in per_pass) for n in names}
    out.update({k: statistics.median(c.get(k, 0) for _, c, _ in per_pass) for k in keys})
    allocated = out.pop("algebra.arrow_basis_allocated", 0)
    out["algebra.arrow_basis_fill"] = out.pop("algebra.arrow_basis_nonzero", 0) / allocated
    out["algebra.tabulate_us_per_arrow"] = (
        1e6 * out["algebra.from_expression_s"] / out["algebra.arrows_tabulated"])
    out["trace.unattributed_frac"] = statistics.median(r for _, _, r in per_pass)
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in untraced))
    return out


def accounting(spans: list[list]) -> dict:
    """Per root span of one pass: its wall time, its subtree's self times, its own."""
    selfs = self_times(spans)
    root_of: list[int] = []
    for s in spans:
        root_of.append(len(root_of) if s[3] < 0 else root_of[s[3]])
    return {
        s[0]: {"wall": s[2] - s[1], "own": selfs[i],
               "self_sum": sum(t for t, r in zip(selfs, root_of) if r == i)}
        for i, s in enumerate(spans) if s[3] < 0
    }


def check_accounting(rows: dict, task_times: dict) -> list:
    """The spans of each task cover its separately timed wall time."""
    results = []
    for root, row in rows.items():
        wall = task_times[root.split(".", 1)[1]]
        results.append((f"{root}:self_times_sum_to_span", abs(row["self_sum"] - row["wall"])
                        <= 1e-9 * max(1.0, row["wall"]), f"{row}"))
        results.append((f"{root}:span_covers_task", abs(row["wall"] - wall) <= 1e-3 + 0.01 * wall,
                        f"{row['wall']!r} vs {wall!r}"))
    return results


def _openblas() -> dict:
    """The OpenBLAS libraries loaded in this process, by file path."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    return {p: ctypes.CDLL(p) for p in sorted(paths)}


def _blas_threads(lib, set_to: int | None = None) -> int | None:
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
        getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if getter is None:
            continue
        if set_to is not None:
            getattr(lib, f"{prefix}_set_num_threads{suffix}")(ctypes.c_int(set_to))
        getter.restype = ctypes.c_int
        return getter()
    return None


def pin_numpy_blas() -> None:
    """One thread for numpy's OpenBLAS; scipy's keeps its default.

    numpy's runs the many small factorizations (one eigvalsh per density
    matrix); on two cores a second thread there only adds synchronization
    and makes those timings several times noisier.  scipy's runs the
    commutant's large SVD, which a second thread makes twice as fast and
    steadier.
    """
    for path, lib in _openblas().items():
        if Path(path).parent.name.startswith("numpy"):
            _blas_threads(lib, set_to=1)


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {Path(p).parent.name: _blas_threads(lib) for p, lib in _openblas().items()}
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "sympy": sympy.__version__,
        "blas": _blas(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = Path(ncgroupoid.__file__).resolve()
    if ROOT / "src" not in lib.parents:
        raise SystemExit(f"ncgroupoid imported from {lib}, not from this checkout's src/")
    pin_numpy_blas()
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    workdir = Path(args.manifest).parent
    if args.workload == "cli":
        bench = CliBench(manifest, args.seed, workdir)
    else:
        bench = LibraryBench(args.workload, manifest, args.seed)
    bench.self_check()

    run = run_passes(bench, args.seconds, bool(args.trace))
    result = {
        "passes": [p["wall"] for p in run["untraced"]],
        "refs": [p["ref"] for p in run["untraced"]],
        "tasks": {name: [p["tasks"][name] for p in run["untraced"]]
                  for name in run["untraced"][0]["tasks"]},
        "attempted": run["outcome"].attempted,
        "failed": run["outcome"].failed,
        "failures": run["outcome"].messages,
        "provenance": provenance(),
    }
    if args.workload == "cli":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        layers = layer_metrics(run["traced"], run["untraced"])
        if args.workload == "cli":
            layers["cli.report_bytes"] = bench.report_bytes
            layers["cli.commands"] = len(bench.commands)
        layers.update(bench.memory_probe())
        result["layers"] = layers
        result["traced_passes"] = [p["wall"] for p in run["traced"]]
        result["accounting"] = {root: [p["accounting"][root] for p in run["traced"]]
                                for root in run["traced"][0]["accounting"]}
        # every span of this run shares the run id; spans of a CLI child
        # are re-parented under the command that started it
        result["spans"] = {"run_id": run["run_id"], "passes": [p["spans"] for p in run["traced"]]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
