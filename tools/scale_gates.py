"""Time and memory gates for the command line on large generated inputs.

Usage::

    python tools/scale_gates.py [WORKDIR]

Writes each input config into WORKDIR (a temporary directory when none is
given), runs each gated command in a fresh ``python -m ncgroupoid.cli``
process, prints one summary line per command, and exits non-zero naming
every gate whose bound was exceeded.  A command's peak is its own
process's ``ru_maxrss``, read when that process is reaped.  The inputs
come from ``numpy.random.default_rng(0)``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np


def one_class_4000() -> dict:
    xy = np.random.default_rng(0).uniform(-1, 1, size=(4000, 2)).tolist()
    return {"dimension": 2, "generators": [],
            "points": [{"id": i, "coords": c} for i, c in enumerate(xy)]}


def one_class_1000() -> dict:
    xy = np.random.default_rng(0).uniform(-1, 1, size=(1000, 2)).tolist()
    return {"dimension": 2, "generators": [],
            "points": [{"id": i, "coords": c, "weight": (1.0, 1.5, 2.0)[i % 3]}
                       for i, c in enumerate(xy)]}


def classes_40x100() -> dict:
    x2 = np.random.default_rng(0).uniform(-1, 1, size=4000).tolist()
    return {"dimension": 2, "generators": [],
            "points": [{"id": i, "coords": [float(i // 100), y]} for i, y in enumerate(x2)]}


def separated_1e5() -> dict:
    xy = np.random.default_rng(0).uniform(-1, 1, size=(100_000, 2)).tolist()
    return {"dimension": 2,
            "points": [{"id": i, "coords": c, "weight": (1.0, 1.5, 2.0)[i % 3]}
                       for i, c in enumerate(xy)],
            "generators": [{"name": "f1", "expr": "x1"}, {"name": "f2", "expr": "x2"}]}


SWEEP = ("deform", "sweep")
# (input, command, --out directory, summary label, wall-time bound in s, peak bound in MB);
# None is no output directory or no bound
GATES = [
    # one class at level 0, singletons from level 1 on: the sweep reads the constants'
    # restriction defects off the class labels and tabulates elements on the top level's
    # 4,000 arrows only, none on level 0's 4000^2
    (one_class_4000, SWEEP, "sweep", "deform sweep, one class of 4,000 points", None, 300),
    # split into singletons at level 2: no element on level 0's 4000^2 arrows or on
    # level 1's 40 * 100^2
    (classes_40x100, SWEEP, "sweep_40x100", "deform sweep, 40 classes of 100 points",
     None, 250),
    # level 0 glues the points into one class of 10^10 arrows, which the sweep never
    # tabulates
    (separated_1e5, SWEEP, "sweep_1e5", "deform sweep, 10^5 separated points", 20, 400),
    # the separated regime's random trials at the default 20 trials: each element is
    # drawn straight into its channel stack and the diagonal collapse is one array kernel
    (separated_1e5, ("algebra", "check-laws"), None,
     "algebra check-laws, 10^5 separated points, 20 trials", 20, None),
    (separated_1e5, ("rep", "check"), None,
     "rep check, 10^5 separated points, 20 trials", 20, None),
    # conv.csv holds the product's value and jets on all 10^6 arrows: its columns are
    # formatted a chunk of rows at a time, with no tuple per arrow
    (one_class_1000, ("algebra", "conv", "--a", "x1*y1 + sin(x2)", "--b", "x1 + y2"),
     "conv_1000", "algebra conv --out, one class of 1,000 points", None, 600),
]


def run(argv: list[str]) -> tuple[float, float]:
    """Wall time in s and peak RSS in MB of one child process, which must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, usage.ru_maxrss / 1024


def main(workdir: str) -> int:
    paths, over = {}, []
    for make, command, out, label, max_wall, max_mb in GATES:
        if make not in paths:
            paths[make] = os.path.join(workdir, f"{make.__name__}.json")
            with open(paths[make], "w", encoding="utf-8") as fh:
                json.dump(make(), fh)
        argv = [sys.executable, "-m", "ncgroupoid.cli", *command, "--space", paths[make]]
        wall, mb = run(argv + (["--out", os.path.join(workdir, out)] if out else []))
        peak = f", ru_maxrss {mb:.0f} MB" if max_mb is not None else ""
        print(f"{label}: {wall:.2f} s{peak}", flush=True)
        if max_wall is not None and wall > max_wall:
            over.append(f"{label} took {wall:.1f} s, over the {max_wall} s bound")
        if max_mb is not None and mb > max_mb:
            over.append(f"{label} peaked at {mb:.0f} MB, over the {max_mb} MB bound")
    if over:
        print("; ".join(over), file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(main(sys.argv[1]))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(main(tmp))
