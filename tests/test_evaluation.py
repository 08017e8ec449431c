"""The one array evaluation path behind every expression.

Generators, algebra elements, point functions and derivation
coefficients all go through ``ValueGradFn``.  Its values must not depend
on which other points share the call, must agree with an independent
scalar ``math`` evaluation, and must never let a NaN or infinity through.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgroupoid import (
    BaseFunction,
    Derivation,
    DiffSpace,
    GeneratorFunction,
    Partition,
    Point,
    build_groupoid,
    from_expression,
    hausdorff_relation,
)
from ncgroupoid._expr import ExpressionError, ValueGradFn, coordinate_symbols

from conftest import int_poly

# the four functions of the grammar, wrapped so their arguments stay in domain
WRAPPERS = (
    lambda p: p,
    sympy.sin,
    sympy.cos,
    sympy.exp,
    lambda p: sympy.log(1 + p ** 2),
)


def _expression(seed, dim, wrap):
    rng = np.random.default_rng(seed)
    return WRAPPERS[wrap](int_poly(rng, coordinate_symbols(dim)))


class _Rows:
    """Stands in for ``st.data()`` in an explicit example: draws return fixed rows."""

    def __init__(self, rows):
        self.rows = rows

    def draw(self, strategy):
        return self.rows


def _rounding_spread(reference, row, ulps=4):
    """How far the ``math`` reference moves when each coordinate moves by ``ulps`` ulp.

    Evaluation orders differ between numpy and ``math`` (``x**2`` against
    ``pow``), so the two may round an intermediate differently by an ulp;
    near a root of sin or cos that difference is amplified by the
    expression's conditioning.  Moving the input by a few ulp shows how
    large that amplification is at this row.
    """
    base = np.array(reference(*row), dtype=float)
    spread = np.zeros_like(base)
    for signs in itertools.product((-ulps, ulps), repeat=len(row)):
        moved = [x + s * math.ulp(x) for x, s in zip(row, signs)]
        spread = np.maximum(spread, np.abs(np.array(reference(*moved), dtype=float) - base))
    return spread


@settings(max_examples=80, deadline=None)
# -sin(2*x1^2 + 5*x1) near a root of sin: one ulp in x1^2 gives a 1.8e-14 relative difference
@example(seed=92, wrap=1, dim=1, data=_Rows([[1.8265976737355212]]))
# log((-3*x1*x3 + 3)^2 + 1): a point alone on numpy scalars squared through pow
# and differed from the same point in a batch by an ulp in d/dx1
@example(seed=206337, wrap=4, dim=3, data=_Rows([[-1e-12, 0.0, 0.25]]))
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    wrap=st.integers(0, len(WRAPPERS) - 1),
    dim=st.integers(1, 3),
    data=st.data(),
)
def test_batch_equals_rows_and_matches_math(seed, wrap, dim, data):
    syms = coordinate_symbols(dim)
    expr = _expression(seed, dim, wrap)
    rows = data.draw(st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim), min_size=1, max_size=40,
    ))
    X = np.array(rows)
    bundle = ValueGradFn(expr, syms)
    values, partials = bundle(X)
    assert values.shape == (len(rows),) and partials.shape == (len(rows), dim)

    reference = sympy.lambdify(syms, [expr, *bundle.partials], modules="math")
    for i, row in enumerate(rows):
        v, d = bundle(row)
        assert v.tobytes() == values[i].tobytes()
        assert d.tobytes() == partials[i].tobytes()
        want = np.array([float(t) for t in reference(*row)])
        got = np.array([values[i], *partials[i]])
        bound = 1e-14 * np.abs(want) + _rounding_spread(reference, row)
        assert (np.abs(got - want) <= bound).all(), (expr, row, got, want, bound)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    where=st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    point=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_coincident_points_glue_wherever_they_sit(n, where, point, seed):
    rng = np.random.default_rng(seed)
    coords = [tuple(c) for c in rng.uniform(-3.0, 3.0, size=(n, 2))]
    i, j = where[0] % n, where[1] % n
    if i == j:
        j = (i + 1) % n
    coords[i] = coords[j] = point
    pts = [Point(id=k, coords=c, weight=1.0) for k, c in enumerate(coords)]
    gens = [
        GeneratorFunction("a", "sin(x1)*exp(x2) + cos(x1*x2)", 2),
        GeneratorFunction("b", "log(1 + x1^2) - x2^3", 2),
    ]
    rho = hausdorff_relation(DiffSpace(pts, 2, gens))
    assert rho.relates(i, j)


# ------------------------------------------------------------ shapes

BLOCKS = [(0, 4, 7), (1,), (2, 5), (3,), (6, 8, 9)]


def _space(dim, n=10):
    pts = [Point(id=x, coords=tuple(float(x + k) for k in range(dim)), weight=1.0)
           for x in range(n)]
    return DiffSpace(pts, dim, (), constants_only=True)


@pytest.mark.parametrize("dim", [0, 2])
@pytest.mark.parametrize("text", ["1", "0"])
def test_constants_fill_every_shape(dim, text):
    space = _space(dim)
    g = build_groupoid(space, Partition(BLOCKS))
    want = float(text)
    a = from_expression(g, text)
    for block, v, ds, dd in zip(g.blocks, a.values, a.d_src, a.d_dst):
        m = len(block)
        assert v.shape == (m, m) and ds.shape == dd.shape == (m, m, dim)
        assert (v == want).all() and not ds.any() and not dd.any()
    f = BaseFunction.from_expression(space, text)
    assert f.values.shape == (10,) and f.grads.shape == (10, dim)
    assert (f.values == want).all() and not f.grads.any()
    P = Derivation.from_expressions(space, [text] * dim)
    assert P.coeffs.shape == (10, dim)
    assert (P.coeffs == want).all()
    assert space.generator_values.shape == (10, 1)


# --------------------------------------------------------- non-finite

@pytest.mark.parametrize("text, at, shown", [
    ("log(x1)", 0.0, "log(x1) is -inf at (x1=0.0)"),
    ("1/x1", 0.0, "1/x1 is inf at (x1=0.0)"),
    # log is finite at the smallest subnormal, its partial 1/x1 overflows
    ("log(x1)", 5e-324, "log(x1) has a non-finite partial at (x1=5e-324)"),
])
def test_non_finite_values_and_partials_are_refused(text, at, shown):
    pts = [Point(id=0, coords=(1.0,), weight=1.0), Point(id=1, coords=(at,), weight=1.0)]
    space = DiffSpace(pts, 1, (), constants_only=True)
    with pytest.raises(ExpressionError, match=re.escape(f"generator 'f': {shown}")):
        DiffSpace(pts, 1, [GeneratorFunction("f", text, 1)])
    for build in (
        lambda: GeneratorFunction("f", text, 1)((at,)),
        lambda: BaseFunction.from_expression(space, text),
        lambda: Derivation.from_expressions(space, [text]),
    ):
        with pytest.raises(ExpressionError, match=re.escape(shown)):
            build()
    # as a function of the destination, first met on the arrow from point 0
    g = build_groupoid(space, Partition.total(space.ids))
    on_arrows = shown.replace("x1", "y1").replace("(y1=", "(x1=1.0, y1=")
    with pytest.raises(ExpressionError, match=re.escape(on_arrows)):
        from_expression(g, text.replace("x1", "y1"))


def test_quantized_key_that_overflows_is_refused():
    pts = [Point(id=0, coords=(1.0,), weight=1.0), Point(id=7, coords=(1e300,), weight=1.0)]
    gens = [GeneratorFunction("f", "x1", 1)]
    with pytest.raises(ValueError, match="not finite at point 7"):
        DiffSpace(pts, 1, gens, compare_mode="quantized", eps=1e-9)
    assert DiffSpace(pts, 1, gens).generator_values[1, 0] == 1e300


def test_evaluation_emits_no_warnings():
    bundle = ValueGradFn(sympy.log(sympy.Symbol("x1")), coordinate_symbols(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a warning turned error would surface as "cannot evaluate" instead
        with pytest.raises(ExpressionError, match=r"is -inf at \(x1=0.0\)"):
            bundle(np.array([[0.0], [-1.0]]))
