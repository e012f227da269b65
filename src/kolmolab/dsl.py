"""Small expression DSL for coefficient fields.

Grammar (EBNF), read by Python's own parser with '^' taken as '**', so
precedence and associativity are Python's:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | base ('^' exponent)?
    exponent := ['+'|'-'] number    (parentheses around any part allowed)
    base   := number | 't' | 'x'i | 'normsq(x)' | 'exp(' expr ')'
            | '(' expr ')' | ident

A number is a decimal literal such as 2, 0.5, .5 or 1e-3; a unary minus
-e is read as 0 - e.  The text may hold ASCII letters, digits, '_', '.',
'+-*/^()' and whitespace only, and '**' is rejected: the power is '^'.
A parsed text nests at most _MAX_DEPTH levels.

Identifiers name sub-expressions supplied as bindings (used for scalar
functions of t such as damping profiles); the parser substitutes each
binding's tree where its name appears, so a parsed expression holds no
names and evaluates, differentiates and prints on its own.  Expressions
are evaluated with numpy broadcasting over (t, x) sample arrays, support
symbolic differentiation in t and x_i, and round-trip through
``print`` / ``parse``.  A nonlinearity psi(x, z) reads x_i and z_ik only.

The tree is Python's own ``ast`` nodes of five kinds: a float Constant, a
Name (t, x_i or z_ik), a BinOp with + - * /, a BinOp ** whose right side
is a float Constant, and a Call of exp(e) or normsq(x).  Subtrees may be
shared, are never mutated, and are never compiled or run by Python.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DslError",
    "CoeffExpr",
    "parse_coeff_expr",
    "parse_state_expr",
    "const_expr",
    "check_guards",
]

_GUARD_FLOOR = 1e-8  # smallest |value| check_guards accepts
_GUARD_SAMPLES = 512  # the (t, x, z) samples check_guards draws
# Deepest nesting a parsed text may have (a sum of n terms nests n
# levels).  The presets and the golden psi nest at most 6; evaluating and
# differentiating a tree costs a few interpreter frames per level, so
# this stays far below Python's default recursion limit of 1000.
_MAX_DEPTH = 100
_SYMBOLS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                     "0123456789_.+-*/^()")
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_APPLY = {ast.Add: operator.add, ast.Sub: operator.sub,
          ast.Mult: operator.mul, ast.Div: operator.truediv}
_SIGNS = (ast.UAdd, ast.USub)


class DslError(ValueError):
    """Syntax or semantic error in a coefficient expression.

    ``offset`` is the byte offset into the source text, when known.
    """

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


def _num(value):
    return ast.Constant(float(value))


def _pow(base, exponent):
    return ast.BinOp(base, ast.Pow(), _num(exponent))


def _print(node):
    kind = type(node)
    if kind is ast.Constant:
        return repr(node.value)
    if kind is ast.Name:
        return node.id
    if kind is ast.Call:  # exp(e) or normsq(x)
        return f"{node.func.id}({_print(node.args[0])})"
    if type(node.op) is ast.Pow:
        return f"({_print(node.left)})^{node.right.value!r}"
    return f"({_print(node.left)} {_BINOPS[type(node.op)]} " \
        f"{_print(node.right)})"


def _eval(node, t, x, z=None):
    """Evaluate node at t and coordinates x; z maps extra state variable
    names (z11, z12, ...) to arrays, for nonlinearities."""
    kind = type(node)
    if kind is ast.BinOp:
        a = _eval(node.left, t, x, z)
        op = type(node.op)
        if op is ast.Pow:
            e = node.right.value
            return a ** int(e) if e == int(e) else np.power(a, e)
        return _APPLY[op](a, _eval(node.right, t, x, z))
    if kind is ast.Constant:
        return node.value
    if kind is ast.Name:
        if node.id == "t":
            return t
        if node.id.startswith("x"):
            return x[int(node.id[1:]) - 1]
        if z is not None and node.id in z:
            return z[node.id]
        raise DslError(f"unbound state variable {node.id!r}")
    if node.func.id == "exp":
        return np.exp(_eval(node.args[0], t, x, z))
    return sum(x[i] * x[i] for i in range(len(x)))  # normsq(x)


def _diff(node, var):
    """Derivative in var by the sum, product, quotient and chain rules."""
    kind = type(node)
    if kind is ast.Constant:
        return _num(0.0)
    if kind is ast.Name:
        return _num(1.0 if node.id == var else 0.0)
    if kind is ast.Call:  # exp(e) or normsq(x)
        if node.func.id == "exp":
            return _mul(node, _diff(node.args[0], var))
        return _mul(_num(2.0), ast.Name(var)) if var.startswith("x") \
            else _num(0.0)
    op = type(node.op)
    if op is ast.Pow:
        e = node.right.value
        return _mul(_mul(_num(e), _pow(node.left, e - 1.0)),
                    _diff(node.left, var))
    da, db = _diff(node.left, var), _diff(node.right, var)
    if op is ast.Add:
        return _add(da, db)
    if op is ast.Sub:
        return _sub(da, db)
    if op is ast.Mult:
        return _add(_mul(da, node.right), _mul(node.left, db))
    # quotient rule
    num = _sub(_mul(da, node.right), _mul(node.left, db))
    return ast.BinOp(num, ast.Div(), _pow(node.right, 2.0))


def _is_num(node, value=None):
    return type(node) is ast.Constant and value in (None, node.value)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return _num(a.value + b.value)
    return ast.BinOp(a, ast.Add(), b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return _num(a.value - b.value)
    return ast.BinOp(a, ast.Sub(), b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return _num(a.value * b.value)
    return ast.BinOp(a, ast.Mult(), b)


def _guards(node):
    """Sub-expressions that must stay away from zero, operands' first."""
    for child in ast.iter_child_nodes(node):
        yield from _guards(child)
    op = type(getattr(node, "op", None))
    if op is ast.Div:
        yield "denominator", node.right
    elif op is ast.Pow and ((e := node.right.value) != int(e) or e < 0):
        yield "power base", node.left


@dataclass(frozen=True)
class CoeffExpr:
    """A parsed coefficient expression over t, x_1..x_d (and optional
    extra state variables for nonlinearities)."""

    ast: object  # the tree, of the five node kinds in the module docstring
    d: int

    def __call__(self, t, x):
        """Evaluate at time(s) t and points x of shape (d, ...)."""
        x = np.asarray(x, dtype=float)
        coords = [x[i] for i in range(self.d)] if x.ndim > 0 else [x]
        out = _eval(self.ast, t, coords)
        return np.asarray(out, dtype=float) + np.zeros(np.broadcast(
            np.asarray(t, dtype=float), *coords).shape)

    def eval_state(self, t, x, z):
        """Evaluate with extra named state variables (dict name -> array)."""
        coords = [np.asarray(x)[i] for i in range(self.d)]
        return np.asarray(_eval(self.ast, t, coords, z), dtype=float)

    def diff(self, var):
        """Symbolic derivative with respect to 't' or 'x1'..'xd'."""
        return CoeffExpr(_diff(self.ast, var), self.d)

    def depends_on_t(self):
        return "t" in self.free_variables()

    def free_variables(self):
        """The names read: t, x_i, z_ik and 'normsq' (the function names
        and normsq's bare argument x are not variables)."""
        return {node.id for node in ast.walk(self.ast)
                if type(node) is ast.Name} - {"exp", "x"}

    def print(self):
        return _print(self.ast)

    def __repr__(self):
        return f"CoeffExpr({self.print()})"


def _parse(text, d, names, bindings):
    if not isinstance(text, str):
        raise DslError(f"expression must be a string, got {text!r}")
    for i, c in enumerate(text):
        if c not in _SYMBOLS and not c.isspace():
            raise DslError(f"unexpected character {c!r}", i)
    if "**" in text:
        raise DslError("unexpected '**' (the power is '^')", text.index("**"))
    names = set(names) | {f"x{i + 1}" for i in range(d)}
    too_deep = f"expression nests more than {_MAX_DEPTH} levels"
    # ast.parse reads one unindented line, with '**' for '^' and leading
    # zeros blanked (Python refuses 007); pos[k] is the offset in text of
    # character k of that line
    line = "".join("**" if c == "^" else " " if c.isspace() else c
                   for c in text)
    line = re.sub(r"(?<![\w.])(?<![\d.][eE][+-])0+(?=\d)",
                  lambda z: " " * len(z[0]), line)
    pos = [i for i, c in enumerate(text) for _ in range(1 + (c == "^"))]
    lead = len(line) - len(line.lstrip())
    line, pos = line[lead:], pos[lead:] + [len(text)]
    try:
        tree = ast.parse(line, mode="eval").body
    except SyntaxError as err:
        k = (err.offset or 1) - 1
        raise DslError(err.msg, pos[min(max(k, 0), len(line))]) from None
    except (RecursionError, MemoryError):
        # how CPython's parser reports a text nested past its own stack
        raise DslError(too_deep) from None

    def convert(node, depth):
        where = pos[node.col_offset]
        if depth > _MAX_DEPTH:
            raise DslError(too_deep, where)
        if isinstance(node, ast.Constant) and (lit := _NUMBER.fullmatch(
                line, node.col_offset, node.end_col_offset)):
            return _num(lit[0])
        if isinstance(node, ast.Name):
            if node.id in names:
                return ast.Name(node.id)
            if node.id in bindings:
                return bindings[node.id].ast
            raise DslError(f"unknown identifier {node.id!r}", where)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
            arg = convert(node.operand, depth + 1)
            return ast.BinOp(_num(0.0), ast.Sub(), arg) \
                if isinstance(node.op, ast.USub) else arg
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            e, sign = node.right, 1.0
            if isinstance(e, ast.UnaryOp) and isinstance(e.op, _SIGNS):
                e, sign = e.operand, -1.0 if isinstance(e.op, ast.USub) \
                    else 1.0
            if not isinstance(e, ast.Constant):
                raise DslError("exponent must be a number",
                               pos[node.right.col_offset])
            return _pow(convert(node.left, depth + 1),
                        sign * convert(e, depth + 1).value)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return ast.BinOp(convert(node.left, depth + 1), node.op,
                             convert(node.right, depth + 1))
        # ',' and '=' are refused above, so a call has no keywords
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("exp", "normsq") and len(node.args) == 1:
            arg = node.args[0]
            if node.func.id == "exp":
                return ast.Call(node.func, [convert(arg, depth + 1)], [])
            if isinstance(arg, ast.Name) and arg.id == "x":
                return ast.Call(node.func, [arg], [])
            raise DslError("normsq takes the bare argument x",
                           pos[arg.col_offset])
        raise DslError(
            f"unexpected {text[where:pos[node.end_col_offset]]!r}", where)

    return CoeffExpr(convert(tree, 1), d)


def parse_coeff_expr(text, d, bindings=None):
    """Parse an expression over t, x_1..x_d. See module docstring."""
    return _parse(text, d, {"t"}, bindings or {})


def parse_state_expr(text, d, m):
    """Parse a nonlinearity expression psi(x, z) over x_i and z_{ik}
    (named z11..z<d><m>, spatial index first); it names no t."""
    return _parse(text, d, (f"z{i + 1}{k + 1}" for i in range(d)
                            for k in range(m)), {})


def const_expr(value, d):
    return CoeffExpr(_num(value), d)


def check_guards(expr, box, time_interval):
    """Load-time guard: denominators and fractional-power bases must stay
    at least _GUARD_FLOOR away from 0 on the sampled box x time window,
    with each state variable z_ik of a nonlinearity drawn on [-box, box].
    Raises DslError.
    """
    guards = list(_guards(expr.ast))
    if not guards:
        return
    rng = np.random.default_rng(0)
    lo, hi = time_interval
    ts = rng.uniform(lo, hi, _GUARD_SAMPLES)
    xs = rng.uniform(-box, box, (expr.d, _GUARD_SAMPLES))
    zs = {name: rng.uniform(-box, box, _GUARD_SAMPLES)
          for name in sorted(expr.free_variables()) if name[0] == "z"}
    for kind, node in guards:
        sub = CoeffExpr(node, expr.d)
        vals = sub.eval_state(ts, xs, zs)
        # a sign change implies a zero crossing somewhere on the box
        if np.min(np.abs(vals)) < _GUARD_FLOOR or \
                np.min(vals) < 0 < np.max(vals):
            raise DslError(
                f"{kind} {sub.print()!r} not bounded away from 0 on the box")
        if kind == "power base" and np.min(vals) < _GUARD_FLOOR:
            raise DslError(
                f"{kind} {sub.print()!r} must stay positive on the box")
