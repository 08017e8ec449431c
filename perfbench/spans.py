"""Spans around calls into ncgroupoid's layers, with counts taken at the same boundary.

A span is ``[name, start, end, parent, counts]`` with ``perf_counter``
times; the tracers of one benchmark run share its run id.  Only calls
made from outside the library open a span: a wrapped function that runs
inside another wrapped call is not recorded again, so each span names
the layer the caller asked for, and its self time is what that call
cost.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from types import SimpleNamespace


class Tracer:
    """Spans kept in memory; ``None`` as the tracer means tracing is off."""

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_call = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def call(self, name, fn, counter, args, kwargs):
        if self._in_call:
            return fn(*args, **kwargs)
        if callable(name):
            name = name(*args)
        self._in_call = True
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
            self._in_call = False
        if counter is not None:
            self.spans[idx][4] = counter(result, *args)
        return result


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


# ------------------------------------------------------------------ counts

def _sizes(g) -> tuple[int, int, int]:
    """(sum m^2, sum m^3, dimension) of a groupoid."""
    sizes = [len(b) for b in g.blocks]
    return sum(m * m for m in sizes), sum(m ** 3 for m in sizes), g.space.dimension


def _convolve_name(a, b) -> str:
    if a.values and a.values[0].dtype == object:
        return "algebra.exact_convolve"
    return "algebra.convolve_jets" if a.has_jets and b.has_jets else "algebra.convolve"


def _convolve_counts(result, a, b) -> dict:
    """Computed work of one convolution: complex matmuls of the block sizes.

    One matrix product per block, 1 + 2n of them when jets ride along;
    8 real flops per complex multiply-add, and 3 m^2 complex entries
    (16 bytes each) read or written per product.  Computed from the block
    sizes, not measured.
    """
    if a.values and a.values[0].dtype == object:
        return {"algebra.exact_convolve_calls": 1}
    sq, cube, n = _sizes(a.groupoid)
    mats = 1 + 2 * n if result.has_jets else 1
    return {"algebra.convolve_calls": 1, "algebra.convolve_flops_computed": 8 * cube * mats,
            "algebra.convolve_bytes_computed": 48 * sq * mats}


def _groupoid_counts(g, space, rho) -> dict:
    sizes = [len(b) for b in g.blocks]
    return {"groupoid.blocks": len(sizes), "groupoid.arrows": sum(m * m for m in sizes),
            "groupoid.max_block": max(sizes)}


def _space_counts(space, config) -> dict:
    return {"diffspace.generator_evals": len(space.points) * len(space.generators)}


def _tabulate_counts(a, g, text) -> dict:
    return {"algebra.arrows_tabulated": _sizes(g)[0]}


def _basis_counts(basis, g) -> dict:
    arrows = _sizes(g)[0]
    # each delta element allocates every block: one nonzero per allocation
    return {"algebra.arrow_basis_nonzero": arrows, "algebra.arrow_basis_allocated": arrows * arrows}


def _state_counts(state, rho) -> dict:
    return {"vonneumann.eigh_calls": len(rho.matrices),
            "vonneumann.density_entries": sum(int(m.size) for m in rho.matrices)}


def _commutant_counts(report, generators) -> dict:
    D = report.commutant.ambient_dim
    return {"vonneumann.ambient_dim": D, "vonneumann.commutant_dim": report.commutant.dim,
            "vonneumann.kron_rows": len(generators) * D * D}


def _chain_counts(chain, space) -> dict:
    return {"deform.chain_arrows": sum(chain.report.arrow_counts)}


# (span name or namer, api key, module, attribute path, counter)
CALLS = (
    ("diffspace.build_space", "build_space", "diffspace", "build_space", _space_counts),
    ("diffspace.relation", "hausdorff_relation", "diffspace", "hausdorff_relation", None),
    ("groupoid.build", "build_groupoid", "groupoid", "build_groupoid", _groupoid_counts),
    ("algebra.element", "element", "algebra", "AlgebraElement", None),
    ("algebra.from_expression", "from_expression", "algebra", "from_expression", _tabulate_counts),
    (_convolve_name, "convolve", "algebra", "convolve", _convolve_counts),
    ("algebra.involution", "involution", "algebra", "involution", None),
    ("algebra.unit", "unit", "algebra", "unit", None),
    ("algebra.max_diff", "max_diff", "algebra", "max_diff", None),
    ("algebra.random_element", "random_element", "algebra", "random_element", None),
    ("algebra.arrow_basis", "arrow_basis", "algebra", "arrow_basis", _basis_counts),
    ("algebra.base_function", "base_function", "algebra", "BaseFunction.from_expression", None),
    ("calculus.derivation", "derivation", "calculus", "Derivation.from_expressions", None),
    ("calculus.leibniz_defect", "leibniz_defect", "calculus", "leibniz_defect", None),
    ("calculus.commutator_defect", "commutator_defect", "calculus", "commutator_defect", None),
    ("calculus.commutator_apply", "commutator_apply", "calculus", "commutator_apply", None),
    ("representation.represent", "represent", "representation", "represent", None),
    ("representation.defect", "homomorphism_defect", "representation", "homomorphism_defect", None),
    ("representation.defect", "star_defect", "representation", "star_defect", None),
    ("representation.ess_sup", "ess_sup", "representation", "RandomOperator.ess_sup", None),
    ("representation.identity", "identity", "representation", "RandomOperator.identity", None),
    ("representation.adjoint", "adjoint", "representation", "RandomOperator.adjoint", None),
    ("representation.compose", "compose", "representation", "RandomOperator.__matmul__", None),
    ("vonneumann.uniform_density", "uniform_density", "vonneumann", "DensityField.uniform", None),
    ("vonneumann.make_state", "make_state", "vonneumann", "make_state", _state_counts),
    ("vonneumann.expect", "expect", "vonneumann", "expect", None),
    ("vonneumann.double_commutant", "double_commutant", "vonneumann", "double_commutant",
     _commutant_counts),
    ("deform.chain", "deformation_chain", "deform", "deformation_chain", _chain_counts),
    ("deform.restriction_defect", "restriction_defect", "deform", "homomorphism_defect_chain",
     None),
    ("deform.step_n", "step_n", "deform", "step_n_pointwise_check", None),
)


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"ncgroupoid.{module}")
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _wrap(tracer: Tracer, name, fn, counter):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, counter, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    """The library calls the benchmark makes, traced when a tracer is given."""
    api = {}
    for name, key, module, path, counter in CALLS:
        _, fn = _resolve(module, path)
        api[key] = fn if tracer is None else _wrap(tracer, name, fn, counter)
    return SimpleNamespace(**api)


def instrument_cli(tracer: Tracer, cli_module) -> None:
    """Route the CLI layer's calls into the other layers through the tracer.

    Functions are replaced in the CLI module's own namespace, methods on
    their class (the CLI calls them on objects), so only this process's
    CLI run is affected.
    """
    for name, key, module, path, counter in CALLS:
        owner, fn = _resolve(module, path)
        if key == "element":
            continue  # the CLI also uses the class in isinstance checks
        if "." in path:
            attr = path.rsplit(".", 1)[1]
            traced = _wrap(tracer, name, fn, counter)
            if isinstance(owner.__dict__[attr], (classmethod, staticmethod)):
                traced = staticmethod(traced)
            setattr(owner, attr, traced)
        elif getattr(cli_module, path, None) is fn:
            setattr(cli_module, path, _wrap(tracer, name, fn, counter))
