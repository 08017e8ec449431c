"""The one array evaluation path behind every expression.

Generators, algebra elements, point functions and derivation
coefficients all go through ``ValueGradFn``.  Its values must not depend
on which other points share the call, must agree with a scalar ``math``
evaluation of its own formulas and with sympy's derivatives (an
independent oracle, test-only), and must never let a NaN or infinity
through.  Printed expressions parse back to themselves.
"""

import functools
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
    involution,
    max_diff,
)
from ncgroupoid._expr import (
    Expr, ExpressionError, ValueGradFn, _node, coordinate_symbols, format_expr, parse,
)

from conftest import int_poly, sympy_coordinates

# the four functions of the grammar, then a quotient, a general power and
# nested functions, over two random polynomials p and q, each wrapped so
# its arguments stay in domain
WRAPPERS = (
    "{p}",
    "sin({p})",
    "cos({p})",
    "exp({p})",
    "log(1 + ({p})**2)",
    "({p})/(2 + cos({q}))",
    "(1 + ({p})**2)**sin({q})",
    "log(2 + sin(exp(cos({p}))))*({q})",
)


def _expression(seed, dim, wrap, arrows=False):
    """One expression as text, and the same expression as sympy builds it.

    With ``arrows`` it is a function of x1..xn and y1..yn.
    """
    rng = np.random.default_rng(seed)
    syms = sympy_coordinates(dim) + (sympy_coordinates(dim, prefix="y") if arrows else ())
    p = int_poly(rng, syms)
    text = WRAPPERS[wrap].format(p=p, q=int_poly(rng, syms))
    return text, sympy.sympify(text)


class _Rows:
    """Stands in for ``st.data()`` in an explicit example: draws return fixed rows."""

    def __init__(self, rows):
        self.rows = rows

    def draw(self, strategy):
        return self.rows


_TINY = np.finfo(float).tiny
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}


def _math_reference(exprs, syms):
    """The expressions' own formulas, as printed, evaluated on floats by ``math``."""
    code = [compile(format_expr(e).replace("^", "**"), "<expr>", "eval") for e in exprs]
    names = [format_expr(s) for s in syms]

    def reference(*row):
        env = {**_MATH, **dict(zip(names, row))}
        return [eval(c, env) for c in code]

    return reference


def _rounding_spread(reference, row, ulps=4):
    """How far the ``math`` reference moves when each coordinate x moves by ``ulps``
    ulp of max(|x|, 1).

    Evaluation orders differ between numpy and ``math`` (``x**2`` against
    ``pow``), so the two may round an intermediate differently by an ulp;
    near a root of sin or cos that difference is amplified by the
    expression's conditioning.  Moving the input by a few ulp shows how
    large that amplification is at this row.  The polynomials' integer
    coefficients keep intermediates of size 1 or more even where x is 0,
    and an ulp of 0.0 (5e-324) would measure nothing of their rounding.
    """
    base = np.array(reference(*row), dtype=float)
    spread = np.zeros_like(base)
    for signs in itertools.product((-ulps, ulps), repeat=len(row)):
        moved = [x + s * math.ulp(max(abs(x), 1.0)) for x, s in zip(row, signs)]
        spread = np.maximum(spread, np.abs(np.array(reference(*moved), dtype=float) - base))
    return spread


@settings(max_examples=80, deadline=None)
# -sin(2*x1^2 + 5*x1) near a root of sin: one ulp in x1^2 gives a 1.8e-14 relative difference
@example(seed=92, wrap=1, dim=1, data=_Rows([[1.8265976737355212]]))
# log((-3*x1*x3 + 3)^2 + 1): a point alone on numpy scalars squared through pow
# and differed from the same point in a batch by an ulp in d/dx1
@example(seed=206337, wrap=4, dim=3, data=_Rows([[-1e-12, 0.0, 0.25]]))
# d/dx1 of (-3*x1 - 3)/(2 + cos(1 - 3*x1)) at 0: both formulas cancel terms of size 1.2
# down to 0.0074, so they round an ulp of 1 apart, 2.2e-16, past 1e-14 relative
@example(seed=427855, wrap=5, dim=1, data=_Rows([[0.0]]))
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    wrap=st.integers(0, len(WRAPPERS) - 1),
    dim=st.integers(1, 3),
    data=st.data(),
)
def test_batch_equals_rows_and_matches_math(seed, wrap, dim, data):
    syms = coordinate_symbols(dim)
    text, expr = _expression(seed, dim, wrap)
    rows = data.draw(st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim), min_size=1, max_size=40,
    ))
    X = np.array(rows)
    bundle = ValueGradFn(parse(text, syms), syms)
    values, partials = bundle(X)
    assert values.shape == (len(rows),) and partials.shape == (len(rows), dim)

    # the bundle's own formulas, printed and evaluated by math, within the
    # rounding spread; then sympy's derivatives, an independent oracle
    own = _math_reference([bundle.expr, *bundle.partials], syms)
    ssyms = sympy_coordinates(dim)
    oracle = sympy.lambdify(ssyms, [expr, *(sympy.diff(expr, s) for s in ssyms)],
                            modules="math")
    for i, row in enumerate(rows):
        v, d = bundle(row)
        assert v.tobytes() == values[i].tobytes()
        assert d.tobytes() == partials[i].tobytes()
        got = np.array([values[i], *partials[i]])
        want = np.array([float(t) for t in own(*row)])
        bound = 1e-14 * np.abs(want) + _rounding_spread(own, row)
        assert (np.abs(got - want) <= bound).all(), (text, row, got, want, bound)
        # two different exact formulas may round apart below the smallest
        # normal float, where fewer bits are left: relative to no less than it
        want = np.array([float(t) for t in oracle(*row)])
        bound = 1e-14 * np.maximum(np.abs(want), _TINY) + _rounding_spread(oracle, row)
        assert (np.abs(got - want) <= bound).all(), (text, row, got, want, bound)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), wrap=st.integers(0, len(WRAPPERS) - 1),
       dim=st.integers(1, 3))
def test_printed_forms_parse_back_to_themselves(seed, wrap, dim):
    syms = coordinate_symbols(dim)
    bundle = ValueGradFn(parse(_expression(seed, dim, wrap)[0], syms), syms)
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(20, dim))
    for e in (bundle.expr, *bundle.partials):
        again = parse(format_expr(e), syms)
        assert again == e, (format_expr(e), format_expr(again))
        assert ValueGradFn(again, syms)(X)[0].tobytes() == ValueGradFn(e, syms)(X)[0].tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), wrap=st.integers(0, len(WRAPPERS) - 1),
       dim=st.integers(1, 2))
def test_involution_form_is_the_source_destination_swap(seed, wrap, dim):
    rng = np.random.default_rng(seed)
    pts = [Point(id=k, coords=tuple(rng.uniform(-2.0, 2.0, size=dim)), weight=1.0)
           for k in range(3)]
    space = DiffSpace(pts, dim, ())
    g = build_groupoid(space, Partition.total(space.ids))
    text = _expression(seed, dim, wrap, arrows=True)[0]
    swapped = re.sub(r"\b([xy])(?=\d)", lambda m: "y" if m[1] == "x" else "x", text)
    star = involution(from_expression(g, text))
    syms = coordinate_symbols(dim) + coordinate_symbols(dim, prefix="y")
    assert star.expr == parse(swapped, syms)
    assert max_diff(star, from_expression(g, swapped)) == 0.0


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
    assert rho.block_of[i] == rho.block_of[j]


# ------------------------------------------------------------ shapes

BLOCKS = [(0, 4, 7), (1,), (2, 5), (3,), (6, 8, 9)]


def _space(dim, n=10):
    pts = [Point(id=x, coords=tuple(float(x + k) for k in range(dim)), weight=1.0)
           for x in range(n)]
    return DiffSpace(pts, dim, ())


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
    ("x1/x1", 0.0, "x1/x1 is nan at (x1=0.0)"),
    # log is finite at the smallest subnormal, its partial 1/x1 overflows
    ("log(x1)", 5e-324, "log(x1) has a non-finite partial at (x1=5e-324)"),
])
def test_non_finite_values_and_partials_are_refused(text, at, shown):
    pts = [Point(id=0, coords=(1.0,), weight=1.0), Point(id=1, coords=(at,), weight=1.0)]
    space = DiffSpace(pts, 1, ())
    # as a function of the destination, first met on the arrow from point 0
    g = build_groupoid(space, Partition.total(space.ids))
    on_arrows = shown.replace("x1", "y1").replace("(y1=", "(x1=1.0, y1=")
    builds = (
        lambda: DiffSpace(pts, 1, [GeneratorFunction("f", text, 1)]).generator_values,
        lambda: Derivation.from_expressions(space, [text]).coeffs,
        lambda: BaseFunction.from_expression(space, text).values,
        lambda: from_expression(g, text.replace("x1", "y1")).max_abs(),
    )
    if "partial" not in shown:
        for build, message in zip(builds, (f"generator 'f': {shown}", shown, shown, on_arrows)):
            with pytest.raises(ExpressionError, match=re.escape(message)):
                build()
        return
    # values first: the values are finite and accepted, and a partial is refused where
    # it is read
    for build in builds:
        assert np.isfinite(build()).all()
    with pytest.raises(ExpressionError, match=re.escape(shown)):
        BaseFunction.from_expression(space, text).grads
    with pytest.raises(ExpressionError, match=re.escape(on_arrows)):
        from_expression(g, text.replace("x1", "y1")).with_jets()


def test_quantized_key_that_overflows_is_refused():
    pts = [Point(id=0, coords=(1.0,), weight=1.0), Point(id=7, coords=(1e300,), weight=1.0)]
    gens = [GeneratorFunction("f", "x1", 1)]
    with pytest.raises(ValueError, match="not finite at point 7"):
        DiffSpace(pts, 1, gens, eps=1e-9)
    assert DiffSpace(pts, 1, gens).generator_values[1, 0] == 1e300


# signed zeros, the smallest subnormal, ints at and past 2^53 (past it they are
# floats), floats whose products and sums round, and ones that overflow
FOLD_OPERANDS = (0.0, -0.0, 5e-324, 2 ** 53, -(2 ** 53) + 1, 2 ** 60, 3, -7, 0.1, 1.5, 10, 1e308)
FOLD_UFUNCS = {"+": np.add, "*": np.multiply, "/": np.divide}


@pytest.mark.parametrize("op, arity", [("+", 2), ("+", 3), ("*", 2), ("*", 3), ("/", 2),
                                       ("neg", 1)])
def test_constants_fold_as_the_float64_ufuncs_do(op, arity):
    for values in itertools.product(FOLD_OPERANDS, repeat=arity):
        # the fold as evaluation computes it: left to right on one-element float64 arrays
        arrays = [np.array([float(v)]) for v in values]
        with np.errstate(all="ignore"):
            want = float((np.negative(*arrays) if op == "neg" else
                          functools.reduce(FOLD_UFUNCS[op], arrays))[0])
        if not math.isfinite(want):
            with pytest.raises(ExpressionError, match="not finite and real"):
                _node(op, *values)
            continue
        got = _node(op, *values).args[0]
        # integer operands keep an integral result within 2^53 an int
        exact = (op != "/" and all(type(v) is int and abs(v) <= 2 ** 53 for v in values)
                 and want.is_integer() and abs(want) <= 2 ** 53)
        assert type(got) is (int if exact else float), values
        assert float(got).hex() == (float(int(want)) if exact else want).hex(), values


def test_evaluation_emits_no_warnings():
    bundle = ValueGradFn(parse("log(x1)", coordinate_symbols(1)), coordinate_symbols(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a warning turned error would surface as "cannot evaluate" instead
        with pytest.raises(ExpressionError, match=r"is -inf at \(x1=0.0\)"):
            bundle(np.array([[0.0], [-1.0]]))


def test_sums_and_products_of_any_length_are_one_level():
    # a full degree-4 polynomial in 6 coordinates has 210 terms, nested 3 deep
    syms = coordinate_symbols(6)
    monomials = [m for d in range(5) for m in itertools.combinations_with_replacement(range(6), d)]
    terms = ["*".join([str(k % 5 + 1), *(f"x{i + 1}" for i in m)]) for k, m in enumerate(monomials)]
    cases = [
        (" - ".join(terms), syms),
        (" + ".join(["x1"] * 2000), syms[:1]),
        ("*".join(["x1"] * 300), syms[:1]),
    ]
    rng = np.random.default_rng(7)
    for text, xs in cases:
        # integer points keep every term exact, so sympy's exact values are the reference
        X = rng.integers(-2, 3, size=(5, len(xs))).astype(float)
        values, partials = ValueGradFn(parse(text, xs), xs)(X)
        oracle = sympy.sympify(text)
        ss = sympy_coordinates(len(xs))
        for row, v, d in zip(X, values, partials):
            at = dict(zip(ss, (int(c) for c in row)))
            assert v == float(oracle.subs(at))
            assert list(d) == [float(sympy.diff(oracle, s).subs(at)) for s in ss]


def test_trees_deeper_than_the_recursion_limit_are_walked():
    # derivatives may nest deeper than any parsed text; every walk keeps its own stack
    depth = 3000
    x1, x2 = coordinate_symbols(2)
    e = x1
    for _ in range(depth):
        e = Expr("sin", e)
    assert e.symbol_names() == {"x1"} and e.subs({x1: x2}).symbol_names() == {"x2"}
    assert format_expr(e) == "sin(" * depth + "x1" + ")" * depth
    X = np.array([[0.3], [1.2]])
    values, partials = ValueGradFn(e, (x1,))(X)
    want, slope = X[:, 0], None
    for _ in range(depth):
        slope = np.cos(want) if slope is None else np.cos(want) * slope
        want = np.sin(want)
    assert values.tobytes() == want.tobytes()
    np.testing.assert_allclose(partials[:, 0], slope, rtol=1e-12)


def test_nesting_deeper_than_the_limit_is_refused():
    syms = coordinate_symbols(1)
    assert ValueGradFn(parse("-" * 200 + "x1", syms), syms)(np.array([[3.0]]))[0][0] == 3.0
    with pytest.raises(ExpressionError, match="nested deeper than 200 levels"):
        parse("-" * 201 + "x1", syms)
