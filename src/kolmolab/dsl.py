"""Small expression DSL for coefficient fields.

Grammar (EBNF):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' number)?
    base   := number | 't' | 'x'i | 'normsq(x)' | 'exp(' expr ')'
            | '(' expr ')' | ident

Identifiers name sub-expressions supplied as bindings (used for scalar
functions of t such as damping profiles); the parser substitutes each
binding's tree where its name appears, so a parsed expression holds no
names and evaluates, differentiates and prints on its own.  Expressions
are evaluated with numpy broadcasting over (t, x) sample arrays, support
symbolic differentiation in t and x_i, and round-trip through
``print`` / ``parse``.
"""

from __future__ import annotations

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
# Tokenizer / parser

_OPS = set("+-*/^()")


def _tokenize(text):
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise DslError(f"bad number {text[i:j]!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise DslError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, var_names, bindings):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_names = var_names
        self.bindings = bindings

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise DslError(f"expected {op!r}", offset)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, _, offset = self.peek()
        if kind != "end":
            raise DslError("trailing input", offset)
        return node

    def expr(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            node = self.term()
            if value == "-":
                node = BinOp("-", Num(0.0), node)
        else:
            node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            sign = 1.0
            if kind == "op" and value in "+-":
                sign = -1.0 if value == "-" else 1.0
                self.advance()
                kind, value, offset = self.peek()
            if kind != "num":
                raise DslError("exponent must be a number", offset)
            self.advance()
            node = Pow(node, sign * value)
        return node

    def base(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if value == "normsq":
                self.expect_op("(")
                kind2, value2, offset2 = self.advance()
                if kind2 != "ident" or value2 != "x":
                    raise DslError("normsq takes the bare argument x", offset2)
                self.expect_op(")")
                return NormSq()
            if value == "exp":
                self.expect_op("(")
                node = self.expr()
                self.expect_op(")")
                return Exp(node)
            if value in self.var_names:
                return Var(value)
            if value in self.bindings:
                return self.bindings[value].ast
            raise DslError(f"unknown identifier {value!r}", offset)
        raise DslError("expected a number, variable or parenthesis", offset)


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
    var_names = {"t"} | {f"x{i + 1}" for i in range(d)} | set(extra_vars)
    return CoeffExpr(_Parser(text, var_names, bindings or {}).parse(), d)


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
