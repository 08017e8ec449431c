"""Restricted symbolic expressions shared by the space, algebra and calculus layers.

The accepted grammar is small on purpose: ``+ - * / ^``, real literals,
coordinate symbols, and the functions sin, cos, exp, log.  Parsing and
differentiation are delegated to sympy; evaluation goes through one
numpy-lambdified bundle per expression, on arrays, so a value does not
depend on which other points it was evaluated with.
"""

from __future__ import annotations

import numpy as np
import sympy
from sympy.core.function import AppliedUndef
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

ALLOWED_FUNCTIONS = {
    "sin": sympy.sin,
    "cos": sympy.cos,
    "exp": sympy.exp,
    "log": sympy.log,
}

# parse_expr's standard transformations emit calls to these constructors.
_PARSE_GLOBALS = {
    "Integer": sympy.Integer,
    "Float": sympy.Float,
    "Rational": sympy.Rational,
    "Symbol": sympy.Symbol,
    "Function": sympy.Function,
}

_TRANSFORMATIONS = standard_transformations + (convert_xor,)


class ConfigError(ValueError):
    """Input from outside the program is malformed and refused: the command line's exit 2."""


class ExpressionError(ConfigError):
    """An expression does not fit the supported grammar, or failed to evaluate."""


def coordinate_symbols(dimension: int, prefix: str = "x") -> tuple[sympy.Symbol, ...]:
    """Symbols x1..xn (or another prefix) for a space of the given dimension."""
    if dimension == 0:
        return ()
    return tuple(sympy.symbols(f"{prefix}1:{dimension + 1}"))


def parse(text: object, symbols: tuple[sympy.Symbol, ...]) -> sympy.Expr:
    """Parse ``text`` into a sympy expression over exactly the given symbols.

    Accepts an already-built sympy expression as well (validated the same
    way).  Unknown names and unknown functions are rejected rather than
    evaluated.
    """
    if isinstance(text, sympy.Expr):
        expr = text
    else:
        local = {s.name: s for s in symbols}
        local.update(ALLOWED_FUNCTIONS)
        try:
            expr = parse_expr(
                str(text),
                local_dict=local,
                global_dict=dict(_PARSE_GLOBALS),
                transformations=_TRANSFORMATIONS,
            )
        except ExpressionError:
            raise
        except Exception as exc:
            raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
    if not isinstance(expr, sympy.Expr):
        raise ExpressionError(f"not an arithmetic expression: {text!r}")
    if expr.has(sympy.zoo, sympy.nan, sympy.oo, -sympy.oo, sympy.I):
        raise ExpressionError(f"not finite and real: {text!r} is {format_expr(expr)}")
    undefined = expr.atoms(AppliedUndef)
    if undefined:
        names = sorted(str(f.func) for f in undefined)
        raise ExpressionError(f"unknown function(s) {names} in {text!r}")
    extra = expr.free_symbols - set(symbols)
    if extra:
        names = sorted(s.name for s in extra)
        raise ExpressionError(f"unknown symbol(s) {names} in {text!r}")
    return expr


class ValueGradFn:
    """Array evaluation of one expression and its exact partials.

    ``expr`` and its partials with respect to ``symbols`` are lambdified
    once, with numpy, and always evaluated on arrays: one point is an
    array with an empty leading shape.  This is the only way expressions
    are evaluated, so gluing, tabulation and derivation coefficients see
    the same arithmetic.
    """

    __slots__ = ("expr", "symbols", "partials", "_fn")

    def __init__(self, expr: sympy.Expr, symbols: tuple[sympy.Symbol, ...]):
        self.expr = expr
        self.symbols = tuple(symbols)
        self.partials = tuple(sympy.diff(expr, s) for s in self.symbols)
        self._fn = sympy.lambdify(self.symbols, [expr, *self.partials], modules="numpy")

    def __call__(self, *coords, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Values and partials at coordinate arrays of any leading shape.

        Each array of ``coords`` has shape S_i + (n_i,); their last axes
        supply the symbols in order, and their leading shapes broadcast to
        S.  Returns the values, shape S, and the partials, shape
        S + (len(symbols),), written into ``out`` when it is given (of any
        dtype that holds floats).  A NaN or infinity in any value or
        partial raises ExpressionError naming the first such point.
        """
        arrays = [np.asarray(c, dtype=float) for c in coords]
        columns = [a[..., i] for a in arrays for i in range(a.shape[-1])]
        shape = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
        partials = np.empty(shape + (len(self.symbols),)) if out is None else out
        try:
            with np.errstate(all="ignore"):
                value, *grads = self._fn(*columns)
                values = np.array(np.broadcast_to(value, shape), dtype=float)
                for i, d in enumerate(grads):
                    partials[..., i] = d
        except Exception as exc:
            raise ExpressionError(f"cannot evaluate {format_expr(self.expr)}: {exc}") from None
        bad = ~np.isfinite(values) | ~np.isfinite(partials).all(axis=-1)
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), shape)
            point = ", ".join(f"{s}={float(np.broadcast_to(c, shape)[at])!r}"
                              for s, c in zip(self.symbols, columns))
            what = (f"is {float(values[at])!r}" if not np.isfinite(values[at])
                    else "has a non-finite partial")
            raise ExpressionError(f"{format_expr(self.expr)} {what} at ({point})")
        return values, partials


def format_expr(expr: sympy.Expr) -> str:
    """Render an expression in the input grammar (^ for powers)."""
    return sympy.sstr(expr).replace("**", "^")
