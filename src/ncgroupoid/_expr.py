"""Restricted symbolic expressions shared by the space, algebra and calculus layers.

The accepted grammar is small on purpose: ``+ - * / ^`` (or ``**``) and
unary signs, int and float literals, the coordinate symbols of the call,
and the functions sin, cos, exp, log of one argument.  An expression is
an immutable tree of :class:`Expr` nodes.  :func:`parse` builds it by
walking Python's syntax tree of the text through that allowlist, so
nothing outside the grammar is ever evaluated; constant subtrees fold as
they are built, and one that is not finite and real is refused.
:meth:`Expr.diff` gives the exact partials by the sum, product, quotient,
power and chain rules, and :func:`format_expr` prints the input grammar
back.  :class:`ValueGradFn` is the one way expressions are evaluated: it
walks the tree with numpy ufuncs on arrays, so a value does not depend on
which other points it was evaluated with.
"""

from __future__ import annotations

import ast
import functools
import math
import operator

import numpy as np

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
# the grammar's operators as Python applies them to arrays, so that ** with
# an int exponent takes numpy's scalar-power loop (x**2 squares)
_APPLY = {"+": operator.add, "*": operator.mul, "/": operator.truediv,
          "^": operator.pow, "neg": operator.neg, **FUNCTIONS}
# Python nests a + b - c and a*b*c to the left; each is one n-ary node here
_CHAINS = {ast.Add: "+", ast.Sub: "+", ast.Mult: "*"}
_BINARY = {ast.Div: "/", ast.Pow: "^"}
# how tightly a node binds when printed: sums, products, powers, atoms; a
# negation is put in parentheses wherever it is an operand
_PRECEDENCE = {"neg": 0, "+": 1, "*": 2, "/": 2, "^": 4}
# larger ints are kept as floats, the type numpy computes them in
_EXACT_INT = 2 ** 53
MAX_DEPTH = 200


class ConfigError(ValueError):
    """Input from outside the program is malformed and refused: the command line's exit 2."""


class ExpressionError(ConfigError):
    """An expression does not fit the supported grammar, or failed to evaluate."""


class Expr:
    """One immutable expression node.

    ``op`` is ``"num"`` (``args`` holds an int or a float), ``"sym"``
    (``args`` holds the name), one of ``+ * / ^``, ``"neg"`` or a
    function name (``args`` holds the operand nodes).  Sums and products
    take any number of operands and evaluate left to right; a subtracted
    term is a negation, and ``a - b`` is evaluated as a subtraction.  The
    arithmetic operators build new nodes the way :func:`parse` does.
    """

    __slots__ = ("op", "args")

    def __init__(self, op: str, *args):
        self.op = op
        self.args = args

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and (self.op, self.args) == (other.op, other.args)

    def __hash__(self) -> int:
        return hash((self.op, self.args))

    def __add__(self, other) -> "Expr":
        return _node("+", self, other)

    def __sub__(self, other) -> "Expr":
        return _node("+", self, _node("neg", other))

    def __mul__(self, other) -> "Expr":
        return _node("*", self, other)

    def __neg__(self) -> "Expr":
        return _node("neg", self)

    def __str__(self) -> str:
        return format_expr(self)

    __repr__ = __str__

    def symbol_names(self) -> set[str]:
        return set(_walk(self, lambda e, names: {e.args[0]} if e.op == "sym" else
                         set().union(*(names[id(a)] for a in _children(e)))))

    def subs(self, mapping: dict) -> "Expr":
        """Symbols replaced by expressions, all at once (so x <-> y swaps work)."""
        def visit(e, out):
            if e.op == "sym":
                return mapping.get(e, e)
            if e.op == "num":
                return e
            return _node(e.op, *(out[id(a)] for a in e.args))
        return _walk(self, visit)

    def diff(self, s: "Expr") -> "Expr":
        """The exact partial derivative with respect to the symbol ``s``."""
        return _walk(self, lambda e, done: _diff_rule(e, done, s))


def _diff_rule(e: Expr, done: dict, s: Expr) -> Expr:
    """The partial of the node ``e`` by ``s``, from the partials of its operands in ``done``."""
    op, args = e.op, e.args
    if op in ("num", "sym"):
        return ONE if e == s else ZERO
    d = [done[id(a)] for a in args]
    u, du = args[0], d[0]
    if op in ("+", "neg"):
        return _node(op, *d)
    if op == "*":
        return _node("+", *(_node("*", *args[:i], di, *args[i + 1:])
                             for i, di in enumerate(d)))
    if op == "/":
        v, dv = args[1], d[1]
        return _node("/", du, v) - _node("/", u * dv, _node("^", v, 2))
    if op == "^":
        v, dv = args[1], d[1]
        if dv == ZERO:
            return v * _node("^", u, v - ONE) * du
        return e * (dv * _node("log", u) + _node("/", v * du, u))
    if op == "sin":
        return _node("cos", u) * du
    if op == "cos":
        return -_node("sin", u) * du
    if op == "exp":
        return e * du
    return _node("/", du, u)  # log


def _children(e: Expr) -> tuple:
    """The operand nodes of ``e``; none for a number or a symbol."""
    return () if e.op in ("num", "sym") else e.args


def _walk(expr: Expr, visit, children=_children, done=None):
    """``visit(e, done)`` for every node ``e`` that ``expr`` reads through
    ``children``, children first.

    ``done`` maps the id of every node visited so far to its result (pass
    one to share results between walks), and the root's result is
    returned.  A node object met twice is visited once.  The walk keeps its
    own stack, so a tree deeper than Python's recursion limit (a derivative
    often is) is walked like any other.
    """
    done = {} if done is None else done
    # the path from the root, each node with an iterator over its children
    stack = [(expr, iter(children(expr)))]
    while stack:
        e, todo = stack[-1]
        for a in todo:
            if id(a) not in done:
                stack.append((a, iter(children(a))))
                break
        else:
            stack.pop()
            done[id(e)] = visit(e, done)
    return done[id(expr)]


ZERO, ONE = Expr("num", 0), Expr("num", 1)


class Pending:
    """An expression derived on first read: ``make(*args)``, with each argument that is
    itself pending resolved first.

    The arguments are expressions, tuples or dicts of them, or pending expressions, never
    what they were read from, so a pending expression keeps no tabulated data alive.
    :meth:`resolve` derives the expression once and drops the recipe.
    """

    __slots__ = ("make", "args", "expr")

    def __init__(self, make, *args):
        self.make, self.args = make, args

    def resolve(self) -> Expr:
        def visit(p, done):
            if p.make is not None:
                p.expr = p.make(*(done[id(a)] if isinstance(a, Pending) else a for a in p.args))
                p.make = p.args = None
            return p.expr
        # a chain of pending expressions resolves without recursion
        return _walk(self, visit, lambda p: () if p.make is None else
                     [a for a in p.args if isinstance(a, Pending)])


def _number(value) -> Expr:
    """A literal as a node: ints up to 2^53 stay ints, others become floats."""
    if isinstance(value, int) and abs(value) <= _EXACT_INT:
        return Expr("num", value)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ExpressionError(f"not finite and real: a literal is {value!r}")
    return Expr("num", value)


def _fold(op: str, args) -> Expr:
    """The constant ``op(*args)``, with the float64 results evaluation gives.

    Sums, products, negation and division by a nonzero constant are folded
    on Python floats, which round as the float64 ufuncs do; powers,
    functions and division by zero go through the ufuncs evaluation uses.
    Integer operands of ``+ * ^`` and negation keep an integral result an int.
    """
    values = [a.args[0] for a in args]
    floats = [float(v) for v in values]
    if op in ("+", "*", "neg") or (op == "/" and floats[1] != 0):
        out = _apply(op, floats)
    else:
        with np.errstate(all="ignore"):
            out = float(_apply(op, [np.array([v]) for v in floats])[0])
    if not math.isfinite(out):
        raise ExpressionError(f"not finite and real: {format_expr(Expr(op, *args))} is {out!r}")
    if (op in ("+", "*", "^", "neg") and all(type(v) is int for v in values)
            and out.is_integer() and abs(out) <= _EXACT_INT):
        return Expr("num", int(out))
    return Expr("num", out)


def _apply(op: str, values):
    """``op`` applied to its operands' values, a sum or product left to right."""
    return functools.reduce(_APPLY[op], values) if len(values) > 1 else _APPLY[op](*values)


def _is(e: Expr, value) -> bool:
    return e.op == "num" and e.args[0] == value


def _node(op: str, *args) -> Expr:
    """The node ``op(*args)``: constants fold, zero terms and unit factors drop.

    A sum or product whose first operand is one of its own kind takes that
    operand's operands, which keeps the left-to-right order; a later
    operand of its own kind stays a node, as its parentheses say.
    """
    args = tuple(a if isinstance(a, Expr) else _number(a) for a in args)
    if all(a.op == "num" for a in args):
        return _fold(op, args)
    if op in ("+", "*"):
        if op == "*" and any(_is(a, 0) for a in args):
            return ZERO
        unit = 0 if op == "+" else 1
        args = tuple(a for a in args if not _is(a, unit))
        if args[0].op == op:
            args = args[0].args + args[1:]
        return Expr(op, *args) if len(args) > 1 else args[0]
    a, b = args[0], args[-1]
    if op == "/" and _is(a, 0):
        return ZERO
    if op in ("/", "^") and _is(b, 1):
        return a
    if op == "^" and _is(b, 0):
        return ONE
    if op == "neg" and a.op == "neg":
        return a.args[0]
    return Expr(op, *args)


def coordinate_symbols(dimension: int, prefix: str = "x") -> tuple[Expr, ...]:
    """Symbols x1..xn (or another prefix) for a space of the given dimension."""
    return tuple(Expr("sym", f"{prefix}{i}") for i in range(1, dimension + 1))


def parse(text: object, symbols: tuple[Expr, ...]) -> Expr:
    """Parse ``text`` into an expression over exactly the given symbols.

    Anything that is not a string goes through ``str()`` first, except an
    already-built :class:`Expr`, whose symbols are checked.  Names other
    than the symbols, functions other than the four, and every other piece
    of syntax are refused rather than evaluated.
    """
    names = {s.args[0]: s for s in symbols}
    if isinstance(text, Expr):
        extra = sorted(text.symbol_names() - set(names))
        if extra:
            raise ExpressionError(f"unknown symbol(s) {extra} in {format_expr(text)!r}")
        return text
    text = str(text)
    source = text.strip().replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: "
                              f"{getattr(exc, 'msg', None) or exc}") from None
    try:
        return _build(tree.body, names, source, 0)
    except ExpressionError as exc:
        raise ExpressionError(f"{exc} in {text!r}") from None


def _build(node: ast.AST, names: dict, source: str, depth: int) -> Expr:
    """The node for one piece of Python syntax, if the grammar allows it."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"nested deeper than {MAX_DEPTH} levels")

    def sub(child):
        return _build(child, names, source, depth + 1)

    if isinstance(node, ast.BinOp) and type(node.op) in _CHAINS:
        # the whole chain a + b - c ... is one level, walked without recursion
        op, links = _CHAINS[type(node.op)], []
        while isinstance(node, ast.BinOp) and _CHAINS.get(type(node.op)) == op:
            links.append(node)
            node = node.left
        out = sub(node)
        for link in reversed(links):
            right = sub(link.right)
            out = _node(op, out, _node("neg", right) if isinstance(link.op, ast.Sub) else right)
        return out
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _node(_BINARY[type(node.op)], sub(node.left), sub(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _node("neg", sub(node.operand))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return sub(node.operand)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _number(node.value)
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise ExpressionError(f"unknown symbol {node.id!r}")
        return names[node.id]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id not in FUNCTIONS:
            raise ExpressionError(f"unknown function {node.func.id!r}")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"{node.func.id} takes one argument")
        return _node(node.func.id, sub(node.args[0]))
    raise ExpressionError(f"outside the grammar: {ast.get_source_segment(source, node)}")


def format_expr(expr: Expr) -> str:
    """Render an expression in the input grammar (^ for powers), parsing back to itself."""
    return _walk(expr, _format_node, _operands)


def _operands(e: Expr) -> tuple:
    """The nodes that printing and evaluation read: a term subtracted after the first
    term of a sum is read through its operand."""
    if e.op != "+":
        return _children(e)
    return (e.args[0], *(t.args[0] if t.op == "neg" else t for t in e.args[1:]))


def _format_node(e: Expr, texts: dict) -> str:
    """The text of the node ``e``, from the ``texts`` of the nodes it reads."""
    op, args = e.op, e.args

    def operand(a: Expr, at_least: int) -> str:
        # a in parentheses when it binds less tightly than at_least
        text = texts[id(a)]
        if a.op == "num":
            binding = 0 if text.startswith("-") else 5
        else:
            binding = _PRECEDENCE.get(a.op, 5)
        return f"({text})" if binding < at_least else text

    if op == "num":
        return repr(args[0])
    if op == "sym":
        return args[0]
    if op in FUNCTIONS:
        return f"{op}({texts[id(args[0])]})"
    if op == "neg":
        return "-" + operand(args[0], 3)
    if op == "+":
        text = operand(args[0], 1)
        for t in args[1:]:
            if t.op == "neg":
                text += " - " + operand(t.args[0], 2)
            elif t.op == "num" and t.args[0] < 0:
                text += f" - {-t.args[0]!r}"
            else:
                text += " + " + operand(t, 2)
        return text
    if op == "*":
        return "*".join([operand(args[0], 2), *(operand(a, 3) for a in args[1:])])
    p = _PRECEDENCE[op]
    # a ^ b ^ c is a ^ (b ^ c); a / b / c is (a / b) / c
    left = operand(args[0], p + (op == "^"))
    right = operand(args[1], p + (op != "^"))
    return f"{left}{op}{right}"


def _evaluate(expr: Expr, env: dict, memo: dict):
    """``expr`` with symbols bound to ``env``; ``memo`` shares subtrees evaluated once."""
    def visit(e, done):
        if e.op == "num":
            return e.args[0]
        if e.op == "sym":
            return env[e.args[0]]
        if e.op == "+":
            out = done[id(e.args[0])]
            for t in e.args[1:]:
                out = out - done[id(t.args[0])] if t.op == "neg" else out + done[id(t)]
            return out
        return _apply(e.op, [done[id(a)] for a in e.args])
    return _walk(expr, visit, _operands, memo)


class ValueGradFn:
    """Array evaluation of one expression and its exact partials.

    The partials with respect to ``symbols`` are derived on first use, so
    evaluating the values alone (:meth:`values`) never derives them.  The
    value and partials are always evaluated on arrays with at least one
    leading axis: one point is a batch of one, because numpy's scalar
    arithmetic may differ from its array loops in the last bit.  This is
    the only way expressions are evaluated, so gluing, tabulation and
    derivation coefficients see the same arithmetic, and the values alone
    equal, bit for bit, the values evaluated with the partials.
    """

    __slots__ = ("expr", "symbols", "_partials")

    def __init__(self, expr: Expr, symbols: tuple[Expr, ...]):
        self.expr = expr
        self.symbols = tuple(symbols)
        self._partials = None

    @property
    def partials(self) -> tuple[Expr, ...]:
        """The exact partials with respect to ``symbols``, derived once."""
        if self._partials is None:
            self._partials = tuple(self.expr.diff(s) for s in self.symbols)
        return self._partials

    def __call__(self, *coords, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Values and partials at coordinate arrays of any leading shape.

        Each array of ``coords`` has shape S_i + (n_i,); their last axes
        supply the symbols in order, and their leading shapes broadcast to
        S.  Returns the values, shape S, and the partials, shape
        S + (len(symbols),), written into ``out`` when it is given (of any
        dtype that holds floats).  A NaN or infinity in any value or
        partial raises ExpressionError naming the first such point.
        """
        return self._run(coords, self.partials, None, out)

    def values(self, *coords, out=None) -> np.ndarray:
        """The values alone, shape S, written into ``out`` when it is given.

        Only a NaN or infinity in a value is refused: the partials are
        neither derived nor evaluated.
        """
        return self._run(coords, (), out, None)[0]

    def _run(self, coords, partials, out_values, out_partials):
        # a leading axis of one, dropped on return
        arrays = [np.asarray(c, dtype=float)[None] for c in coords]
        columns = [a[..., i] for a in arrays for i in range(a.shape[-1])]
        shape = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
        values = np.empty(shape) if out_values is None else out_values[None]
        grads = np.empty(shape + (len(partials),)) if out_partials is None else out_partials[None]
        env = {s.args[0]: c for s, c in zip(self.symbols, columns)}
        memo: dict = {}
        try:
            with np.errstate(all="ignore"):
                values[...] = _evaluate(self.expr, env, memo)
                for i, d in enumerate(partials):
                    grads[..., i] = _evaluate(d, env, memo)
        except Exception as exc:
            raise ExpressionError(f"cannot evaluate {format_expr(self.expr)}: {exc}") from None
        # min and max carry a NaN or infinity through without a temporary; the flags
        # are built only to name the first bad point
        finite = (np.isfinite(x.min()) and np.isfinite(x.max()) for x in (values, grads) if x.size)
        if not all(finite):
            bad = ~np.isfinite(values) | ~np.isfinite(grads).all(axis=-1)
            at = np.unravel_index(int(np.argmax(bad)), shape)
            point = ", ".join(f"{s}={float(np.broadcast_to(c, shape)[at])!r}"
                              for s, c in zip(self.symbols, columns))
            what = (f"is {float(values[at])!r}" if not np.isfinite(values[at])
                    else "has a non-finite partial")
            raise ExpressionError(f"{format_expr(self.expr)} {what} at ({point})")
        return values[0, ...], grads[0]
