"""Shared builders for the test suite.

Random spaces use small integer coordinates and integer polynomial
coefficients, so generator evaluation is exact in floating point; random
weights are dyadic for the same reason.  That keeps the structural
properties (gluing invariance, collapse identities) exactly true instead
of true up to a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
import sympy

from ncgroupoid import DiffSpace, GeneratorFunction, Partition, Point, build_groupoid

DYADIC_WEIGHTS = (0.5, 1.0, 1.0, 2.0)

# numpy warns when a complex -> real cast drops imaginary parts; that is a
# bug, so it fails the test (numpy.exceptions is numpy 1.25 and later)
COMPLEX_WARNING = ("numpy.exceptions.ComplexWarning" if hasattr(np, "exceptions")
                   else "numpy.ComplexWarning")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", f"error::{COMPLEX_WARNING}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sympy_coordinates(dimension: int, prefix: str = "x") -> tuple[sympy.Symbol, ...]:
    """x1..xn (or another prefix) as sympy symbols, for expressions sympy checks."""
    return tuple(sympy.symbols(f"{prefix}1:{dimension + 1}")) if dimension else ()


def int_poly(rng, syms, degree=2, max_terms=4, coef_bound=3) -> sympy.Expr:
    """Random polynomial with integer coefficients, bounded total degree."""
    n = len(syms)
    expr = sympy.Integer(int(rng.integers(-coef_bound, coef_bound + 1)))
    for _ in range(int(rng.integers(1, max_terms + 1))):
        c = int(rng.integers(1, coef_bound + 1)) * int(rng.choice((-1, 1)))
        exps = rng.integers(0, degree + 1, size=n)
        while exps.sum() > degree:
            exps[int(rng.integers(0, n))] = 0
        term = sympy.Integer(c)
        for s, e in zip(syms, exps):
            term *= s ** int(e)
        expr += term
    return expr


def make_points(rng, npts, dim, int_coords=True, unit_weights=False):
    pts = []
    for i in range(npts):
        if int_coords:
            coords = tuple(float(c) for c in rng.integers(0, 4, size=dim))
        else:
            coords = tuple(float(c) for c in rng.uniform(-1.5, 1.5, size=dim))
        w = 1.0 if unit_weights else float(rng.choice(DYADIC_WEIGHTS))
        pts.append(Point(id=i, coords=coords, weight=w))
    return pts


def random_int_space(rng, max_points=8, max_gens=4) -> DiffSpace:
    """A random space with integer coordinates and polynomial generators."""
    n = int(rng.integers(1, 4))
    npts = int(rng.integers(2, max_points + 1))
    pts = make_points(rng, npts, n)
    syms = sympy_coordinates(n)
    k = int(rng.integers(1, max_gens + 1))
    gens = [
        GeneratorFunction(f"g{j + 1}", int_poly(rng, syms), n) for j in range(k)
    ]
    return DiffSpace(pts, n, gens)


def random_partition(rng, ids, max_block=6) -> Partition:
    ids = list(ids)
    rng.shuffle(ids)
    blocks = []
    i = 0
    while i < len(ids):
        size = int(rng.integers(1, min(max_block, len(ids) - i) + 1))
        blocks.append(ids[i : i + size])
        i += size
    return Partition(blocks)


def random_groupoid(
    rng, max_points=8, max_block=6, dim=None,
    int_coords=True, unit_weights=False,
):
    """A pair groupoid over a random partition of a random measured set."""
    n = dim if dim is not None else int(rng.integers(1, 3))
    npts = int(rng.integers(2, max_points + 1))
    pts = make_points(rng, npts, n, int_coords=int_coords, unit_weights=unit_weights)
    space = DiffSpace(pts, n, (), constants_only=True)
    rho = random_partition(rng, space.ids, max_block=max_block)
    return build_groupoid(space, rho)


def total_pair_space(weights=(1.0, 1.0)) -> DiffSpace:
    """Two points glued by the constants-only structure."""
    pts = [
        Point(id=0, coords=(0.0,), weight=float(weights[0])),
        Point(id=1, coords=(1.0,), weight=float(weights[1])),
    ]
    return DiffSpace(pts, 1, (), constants_only=True)


def line_space(npts=5, unit_weights=True) -> DiffSpace:
    pts = [
        Point(id=i, coords=(float(i),), weight=1.0 if unit_weights else float(1 + i % 2))
        for i in range(npts)
    ]
    gen = GeneratorFunction("coord", "x1", 1)
    return DiffSpace(pts, 1, [gen])


def grid_space() -> DiffSpace:
    pts = [
        Point(id=0, coords=(0.0, 0.0), weight=1.0),
        Point(id=1, coords=(0.0, 1.0), weight=1.0),
        Point(id=2, coords=(1.0, 0.0), weight=1.0),
        Point(id=3, coords=(1.0, 1.0), weight=1.0),
    ]
    gen = GeneratorFunction("pi1", "x1", 2)
    return DiffSpace(pts, 2, [gen])
