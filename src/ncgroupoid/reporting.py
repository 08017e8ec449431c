"""Check records, run reports, and the CLI's one CSV writer, fed by columns of arrays."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

# repr-faithful: equal to format(x, ".17g") for every double
_FLOAT_FMT = "%.17g"
_CHUNK = 1 << 16  # rows formatted per write: bounds the Python objects alive at once


def config_digest(config: dict) -> str:
    """sha256 of the canonical JSON rendering of a config."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CheckRecord:
    """One pass/fail/skip line: a named defect against a tolerance."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    defect: float | None = None
    tolerance: float | None = None
    note: str = ""

    def line(self) -> str:
        parts = [f"[{self.status.upper():<4}] {self.name}"]
        if self.defect is not None:
            parts.append(f"defect={self.defect:.6g}")
        if self.tolerance is not None:
            parts.append(f"tol={self.tolerance:.6g}")
        if self.note:
            parts.append(f"({self.note})")
        return "  ".join(parts)


def check(name: str, defect: float, tolerance: float, note: str = "") -> CheckRecord:
    """A record that passes iff defect <= tolerance."""
    status = "pass" if defect <= tolerance else "fail"
    return CheckRecord(name, status, float(defect), float(tolerance), note)


def check_flag(name: str, ok: bool, note: str = "") -> CheckRecord:
    return CheckRecord(name, "pass" if ok else "fail", note=note)


def skip(name: str, note: str) -> CheckRecord:
    return CheckRecord(name, "skip", note=note)


@dataclass
class RunReport:
    """Everything one CLI invocation found, plus where its input came from."""

    command: str
    input_digest: str
    checks: list[CheckRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def failed(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failed

    def lines(self) -> list[str]:
        out = [f"command: {self.command}", f"input sha256: {self.input_digest}"]
        out.extend(self.notes)
        out.extend(c.line() for c in self.checks)
        n_skip = sum(1 for c in self.checks if c.status == "skip")
        out.append(
            f"{len(self.checks)} checks: "
            f"{len(self.checks) - len(self.failed) - n_skip} passed, "
            f"{len(self.failed)} failed, {n_skip} skipped"
        )
        return out

    def write(self, outdir: str) -> str:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "report.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines()) + "\n")
        return path


def write_csv(path: str, header: list[str], columns) -> None:
    """Equal-length columns as CSV lines ending in CRLF, one format per column from its
    dtype: integers ``%d``, floats repr-faithful ``%.17g``, anything else ``%s``, unquoted."""
    cols = [np.asarray(col) for col in columns]
    kinds = {"i": "%d", "u": "%d", "f": _FLOAT_FMT}
    row = ",".join(kinds.get(col.dtype.kind, "%s") for col in cols) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols[0]), _CHUNK):
            rows = zip(*(col[start:start + _CHUNK].tolist() for col in cols))
            fh.write("".join(map(row.__mod__, rows)))
