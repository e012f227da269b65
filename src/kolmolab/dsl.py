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
``print`` / ``parse``.
"""

from __future__ import annotations

import ast
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
# Deepest nesting a parsed text may have (a sum of n terms nests n
# levels).  The presets and the golden psi nest at most 6; evaluating and
# differentiating a tree costs a few interpreter frames per level, so
# this stays far below Python's default recursion limit of 1000.
_MAX_DEPTH = 100
_SYMBOLS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                     "0123456789_.+-*/^()")
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
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


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    # 't', 'x1'..'xd', or an extra state variable like 'z11'
    name: str


@dataclass(frozen=True)
class NormSq:
    pass


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: float


@dataclass(frozen=True)
class Exp:
    arg: object


# ---------------------------------------------------------------------------
# Printing

def _print(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, NormSq):
        return "normsq(x)"
    if isinstance(node, BinOp):
        return f"({_print(node.left)} {node.op} {_print(node.right)})"
    if isinstance(node, Pow):
        return f"({_print(node.base)})^{node.exponent!r}"
    if isinstance(node, Exp):
        return f"exp({_print(node.arg)})"
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Evaluation

def _eval(node, t, x, z=None):
    """Evaluate node at t and coordinates x; z maps extra state variable
    names (z11, z12, ...) to arrays, for nonlinearities."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "t":
            return t
        if node.name.startswith("x"):
            return x[int(node.name[1:]) - 1]
        if z is not None and node.name in z:
            return z[node.name]
        raise DslError(f"unbound state variable {node.name!r}")
    if isinstance(node, NormSq):
        return sum(x[i] * x[i] for i in range(len(x)))
    if isinstance(node, BinOp):
        a = _eval(node.left, t, x, z)
        b = _eval(node.right, t, x, z)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        base = _eval(node.base, t, x, z)
        e = node.exponent
        if e == int(e):
            return base ** int(e)
        return np.power(base, e)
    if isinstance(node, Exp):
        return np.exp(_eval(node.arg, t, x, z))
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Differentiation (sum/product/quotient/chain rules over the listed ops)

def _diff(node, var):
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, NormSq):
        if var.startswith("x"):
            return _mul(Num(2.0), Var(var))
        return Num(0.0)
    if isinstance(node, BinOp):
        da = _diff(node.left, var)
        db = _diff(node.right, var)
        if node.op in "+-":
            return _add(da, db) if node.op == "+" else _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, node.right), _mul(node.left, db))
        # quotient rule
        num = _sub(_mul(da, node.right), _mul(node.left, db))
        return BinOp("/", num, Pow(node.right, 2.0))
    if isinstance(node, Pow):
        db = _diff(node.base, var)
        return _mul(_mul(Num(node.exponent), Pow(node.base, node.exponent - 1.0)), db)
    if isinstance(node, Exp):
        return _mul(node, _diff(node.arg, var))
    raise TypeError(node)


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _subst_t(node, repl):
    if isinstance(node, Var):
        return repl if node.name == "t" else node
    if isinstance(node, BinOp):
        return BinOp(node.op, _subst_t(node.left, repl),
                     _subst_t(node.right, repl))
    if isinstance(node, Pow):
        return Pow(_subst_t(node.base, repl), node.exponent)
    if isinstance(node, Exp):
        return Exp(_subst_t(node.arg, repl))
    return node


def _collect_vars(node, acc):
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, NormSq):
        acc.add("normsq")
    elif isinstance(node, BinOp):
        _collect_vars(node.left, acc)
        _collect_vars(node.right, acc)
    elif isinstance(node, Pow):
        _collect_vars(node.base, acc)
    elif isinstance(node, Exp):
        _collect_vars(node.arg, acc)


def _collect_guards(node, acc):
    """Collect sub-expressions that must stay away from zero."""
    if isinstance(node, BinOp):
        _collect_guards(node.left, acc)
        _collect_guards(node.right, acc)
        if node.op == "/":
            acc.append(("denominator", node.right))
    elif isinstance(node, Pow):
        _collect_guards(node.base, acc)
        e = node.exponent
        if e != int(e) or e < 0:
            acc.append(("power base", node.base))
    elif isinstance(node, Exp):
        _collect_guards(node.arg, acc)


# ---------------------------------------------------------------------------
# Public wrapper


@dataclass(frozen=True)
class CoeffExpr:
    """A parsed coefficient expression over t, x_1..x_d (and optional
    extra state variables for nonlinearities)."""

    ast: object
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
        acc = set()
        _collect_vars(self.ast, acc)
        return acc

    def time_reversed(self, T):
        """Substitute t -> T - t everywhere."""
        repl = BinOp("-", Num(float(T)), Var("t"))
        return CoeffExpr(_subst_t(self.ast, repl), self.d)

    def print(self):
        return _print(self.ast)

    def __repr__(self):
        return f"CoeffExpr({self.print()})"


def _parse(text, d, extra_vars, bindings):
    if not isinstance(text, str):
        raise DslError(f"expression must be a string, got {text!r}")
    for i, c in enumerate(text):
        if c not in _SYMBOLS and not c.isspace():
            raise DslError(f"unexpected character {c!r}", i)
    if "**" in text:
        raise DslError("unexpected '**' (the power is '^')", text.index("**"))
    names = {"t"} | {f"x{i + 1}" for i in range(d)} | set(extra_vars)
    bindings = bindings or {}
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
            return Num(float(lit[0]))
        if isinstance(node, ast.Name):
            if node.id in names:
                return Var(node.id)
            if node.id in bindings:
                return bindings[node.id].ast
            raise DslError(f"unknown identifier {node.id!r}", where)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
            arg = convert(node.operand, depth + 1)
            return BinOp("-", Num(0.0), arg) \
                if isinstance(node.op, ast.USub) else arg
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            e, sign = node.right, 1.0
            if isinstance(e, ast.UnaryOp) and isinstance(e.op, _SIGNS):
                e, sign = e.operand, -1.0 if isinstance(e.op, ast.USub) \
                    else 1.0
            if not isinstance(e, ast.Constant):
                raise DslError("exponent must be a number",
                               pos[node.right.col_offset])
            return Pow(convert(node.left, depth + 1),
                       sign * convert(e, depth + 1).value)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return BinOp(_BINOPS[type(node.op)], convert(node.left, depth + 1),
                         convert(node.right, depth + 1))
        # ',' and '=' are refused above, so a call has no keywords
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("exp", "normsq") and len(node.args) == 1:
            arg = node.args[0]
            if node.func.id == "exp":
                return Exp(convert(arg, depth + 1))
            if isinstance(arg, ast.Name) and arg.id == "x":
                return NormSq()
            raise DslError("normsq takes the bare argument x",
                           pos[arg.col_offset])
        raise DslError(
            f"unexpected {text[where:pos[node.end_col_offset]]!r}", where)

    return CoeffExpr(convert(tree, 1), d)


def parse_coeff_expr(text, d, bindings=None):
    """Parse an expression over t, x_1..x_d. See module docstring."""
    return _parse(text, d, (), bindings)


def parse_state_expr(text, d, m):
    """Parse a nonlinearity expression over t, x_i and z_{ik} (named
    z11..z<d><m>, spatial index first)."""
    return _parse(text, d, (f"z{i + 1}{k + 1}" for i in range(d)
                            for k in range(m)), None)


def const_expr(value, d):
    return CoeffExpr(Num(float(value)), d)


def check_guards(expr, box, time_interval, n_samples=512):
    """Load-time guard: denominators and fractional-power bases must stay
    at least _GUARD_FLOOR away from 0 on the sampled box x time window,
    with each state variable z_ik of a nonlinearity drawn on [-box, box].
    Raises DslError.
    """
    guards = []
    _collect_guards(expr.ast, guards)
    if not guards:
        return
    rng = np.random.default_rng(0)
    lo, hi = time_interval
    ts = rng.uniform(lo, hi, n_samples)
    xs = rng.uniform(-box, box, (expr.d, n_samples))
    zs = {name: rng.uniform(-box, box, n_samples)
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
