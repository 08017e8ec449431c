"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload separated --seed 1 --seconds 10 --trace 0

Generates the workload's configs from the seed, times ``setup_s`` (or,
with ``--trace 1``, the import probes) in fresh interpreters, runs the
timed passes in one worker process (``worker.py``), checks every output,
prints one line per metric and, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units come from ``BENCHMARK.json``.  A record with provenance,
config hashes, per-task times and spans is written under
``.perfbench/records/``.  ``--smoke`` shrinks every input to a few
points, for tests.

Nothing here imports numpy or the library; every measured process is a
child started and waited for one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOTAL_BUDGET_S = 170.0
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

SETUP_CODE = {
    "library": (
        "import json, sys\n"
        "import ncgroupoid as n\n"
        "with open(sys.argv[1], encoding='utf-8') as fh:\n"
        "    s = n.build_space(json.load(fh))\n"
        "n.build_groupoid(s, n.hausdorff_relation(s))\n"
    ),
    "cli": "import ncgroupoid.cli\n",
}
IMPORT_CODE = {
    "bare": "pass",
    "import.ncgroupoid_s": "import ncgroupoid",
    "import.cli_s": "import ncgroupoid.cli",
}
# end-to-end time of each task, printed with the metrics (not gated)
TASK_METRICS = {
    "build": "build_s", "algebra": "algebra_s", "exact_algebra": "exact_algebra_s",
    "calculus": "calculus_s", "operators": "operators_s", "commutant": "commutant_s",
    "deform": "deform_s", "verify_all": "cli.verify_all_s",
    "deform_sweep": "cli.deform_sweep_s", "vn_commutant": "cli.vn_commutant_s",
    "algebra_conv": "cli.algebra_conv_s",
}


class Failure(Exception):
    """The benchmark cannot produce a result."""


def _timed_child(cmd: list[str], env: dict, deadline: float) -> tuple[float, bool]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=_left(deadline))
    except subprocess.TimeoutExpired:
        raise Failure(f"timed out: {' '.join(cmd[:3])}")
    return time.perf_counter() - t0, proc.returncode == 0


def _left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise Failure("out of time")
    return left


def _write_inputs(workload: str, seed: int, smoke: bool, workdir: Path) -> dict:
    manifest = {"inputs": {}}
    for role, spec in workloads.generate(workload, seed, smoke).items():
        data = json.dumps(spec["config"], sort_keys=True).encode("utf-8")
        path = workdir / f"{role}.json"
        path.write_bytes(data)
        entry = {k: v for k, v in spec.items() if k != "config"}
        entry.update(path=str(path), sha256=hashlib.sha256(data).hexdigest())
        manifest["inputs"][role] = entry
    with open(workdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


def _probes(codes: dict, repeats: int, args_after: list[str], env, deadline):
    """Median wall time of each snippet in fresh interpreters, interleaved."""
    samples: dict[str, list[float]] = {name: [] for name in codes}
    attempted = failed = 0
    for _ in range(repeats):
        for name, code in codes.items():
            wall, ok = _timed_child([sys.executable, "-c", code, *args_after], env, deadline)
            samples[name].append(wall)
            attempted += 1
            failed += not ok
    return {n: statistics.median(v) for n, v in samples.items()}, attempted, failed


def _run_worker(cmd: list[str], env: dict, deadline: float) -> str:
    """The worker's stdout; the worker and its children die with any failure here."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=_left(deadline))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise Failure("worker timed out") from None
        raise
    if proc.returncode != 0:
        raise Failure(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return out


def _provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "src_lines": src_lines}


def run(args) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ncgroupoid" / "__init__.py").is_file() or not spec_path.is_file():
        raise Failure(f"no src/ncgroupoid or BENCHMARK.json under {ROOT}")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + TOTAL_BUDGET_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        manifest = _write_inputs(args.workload, args.seed, args.smoke, workdir)
        if args.trace:
            probes, attempted, failed = _probes(IMPORT_CODE, IMPORT_REPEATS, [], env, deadline)
        else:
            kind = "cli" if args.workload == "cli" else "library"
            main_cfg = [manifest["inputs"]["main"]["path"]] if kind == "library" else []
            probes, attempted, failed = _probes(
                {"setup_s": SETUP_CODE[kind]}, SETUP_REPEATS, main_cfg, env, deadline)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--manifest", str(workdir / "manifest.json"), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = json.loads(_run_worker(cmd, env, deadline).strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += res["attempted"]
    failed += res["failed"]
    if args.trace:
        layers = dict(res["layers"])
        for name in ("import.ncgroupoid_s", "import.cli_s"):
            layers[name] = probes[name] - probes["bare"]
        measured = {m["name"]: (layers.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
    else:
        # means, not medians: the machine's speed flips between a fast and a
        # slow state, and a mean follows the share of time spent in each
        # smoothly where a median jumps from one state to the other
        pass_s = statistics.mean(res["passes"])
        values = {"setup_s": probes["setup_s"], "pass_s": pass_s,
                  "pass_ref": pass_s / statistics.mean(res["refs"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        measured = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    tasks = {TASK_METRICS[t]: (statistics.median(v), len(v)) for t, v in res["tasks"].items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "provenance": dict(_provenance(), **res["provenance"]),
        "inputs": {r: {"sha256": e["sha256"], "blocks": len(e["blocks"])}
                   for r, e in manifest["inputs"].items()},
        "metrics": {k: v[0] for k, v in measured.items()},
        "tasks": {k: {"median": m, "n": n} for k, (m, n) in tasks.items()},
        "passes": res["passes"], "refs": res["refs"], "probes": probes,
        "attempted": attempted, "failed": failed, "failures": res["failures"],
    }
    for key in ("traced_passes", "accounting", "spans"):
        if key in res:
            record[key] = res[key]
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record), encoding="utf-8")

    n_pass = len(res["passes"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"untraced passes {n_pass}")
    for name, (value, unit) in measured.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'pass_s (mean wall time, not gated)':<44} {values['pass_s']:>14.6g} s")
        for name, (value, n) in tasks.items():
            print(f"  {name:<44} {value:>14.6g} s  (median of {n})")
    else:
        for root, rows in sorted(res["accounting"].items()):
            wall = sum(r["wall"] for r in rows)
            own = sum(r["own"] for r in rows)
            print(f"  {root:<44} traced {wall:.4f} s in {len(rows)} passes, "
                  f"outside library spans {own:.4f} s")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    for message in res["failures"]:
        print(f"  FAILED {message}")
    print(f"  blas {res['provenance']['blas']}  record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ncgroupoid benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    # a terminated run still stops its children and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return run(args)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
