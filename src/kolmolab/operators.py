"""Operator specifications for the coupled system

    (A u)_k = sum_ij Q_ij D^2_ij u_k + sum_j (B_j D_j u)_k + (C u)_k,
    B_j = b_j I_m + Btilde_j,

each with its optional gradient weight, and the built-in example
families.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dsl import check_guards, const_expr, parse_coeff_expr

__all__ = ["OperatorSpec", "FamilyError", "example_family",
           "check_family_params", "FAMILIES", "matrix_of_consts",
           "numeric_matrix", "scalar_comparison"]


class FamilyError(ValueError):
    pass


def numeric_matrix(value, shape, what):
    """value as a float array of the given shape; FamilyError, naming
    what, unless it is finite numbers nested to exactly that shape."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != shape \
            or not np.all(np.isfinite(arr)):
        raise FamilyError(f"{what} must be a {' x '.join(map(str, shape))} "
                          f"array of finite numbers, got {value!r}")
    return arr.astype(float)


def matrix_of_consts(mat, d):
    mat = np.asarray(mat, dtype=float)
    return tuple(tuple(const_expr(v, d) for v in row) for row in mat)


def _eval_matrix(exprs, t, pts):
    """(rows, cols, ...) values; each entry has the broadcast shape of t
    and a coordinate row of pts."""
    return np.array([[e(t, pts) for e in row] for row in exprs])


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficient data of the vector operator and its diagonal drift.

    Q is d x d (upper triangle mirrored), b the diagonal drift d-vector,
    Btilde the d coupling matrices (each m x m), C the potential m x m,
    weight the gradient weight M(t,x), a d x d matrix applied to the
    columns of the Jacobian transpose, or None.  The weight is read only
    by the weighted-gradient audit and check.
    """

    d: int
    m: int
    Q: tuple  # d x d of CoeffExpr
    b: tuple  # d of CoeffExpr
    Btilde: tuple  # d of (m x m of CoeffExpr)
    C: tuple  # m x m of CoeffExpr
    time_interval: tuple = (0.0, 1.0)
    name: str = "custom"
    weight: tuple | None = None  # d x d of CoeffExpr
    sigma: float = 0.5  # of the coupling growth |Btilde| <= xi lambda_Q^sigma

    def __post_init__(self):
        # mirror the upper triangle so Q is symmetric by construction
        Q = [list(row) for row in self.Q]
        for i in range(self.d):
            for j in range(i):
                Q[i][j] = Q[j][i]
        object.__setattr__(self, "Q", tuple(tuple(row) for row in Q))

    def Q_at(self, t, pts):
        """(d, d, K) array at time t and points pts of shape (d, K)."""
        return _eval_matrix(self.Q, t, pts)

    def b_at(self, t, pts):
        return np.array([e(t, pts) for e in self.b])

    def Btilde_at(self, t, pts):
        return np.array([_eval_matrix(Bj, t, pts) for Bj in self.Btilde])

    def C_at(self, t, pts):
        return _eval_matrix(self.C, t, pts)

    def weight_at(self, t, pts):
        return _eval_matrix(self.weight, t, pts)

    def B_full_at(self, t, pts):
        """Reconstructed full drift matrices b_j I + Btilde_j, (d,m,m,K)."""
        out = self.Btilde_at(t, pts).copy()
        bv = self.b_at(t, pts)
        for j in range(self.d):
            for k in range(self.m):
                out[j, k, k] += bv[j]
        return out

    def depends_on_t(self):
        return any(e.depends_on_t() for e in self._all_exprs())

    def check_guards(self, box):
        for e in self._all_exprs():
            check_guards(e, box, self.time_interval)

    def _all_exprs(self):
        yield from (e for row in self.Q for e in row)
        yield from self.b
        yield from (e for Bj in self.Btilde for row in Bj for e in row)
        yield from (e for row in self.C for e in row)


def scalar_comparison(spec: OperatorSpec):
    """The scalar operator Tr(Q D^2) + <b, grad> built from (Q, b)."""
    zero = const_expr(0.0, spec.d)
    return OperatorSpec(spec.d, 1, spec.Q, spec.b,
                        tuple(((zero,),) for _ in range(spec.d)),
                        ((zero,),), spec.time_interval,
                        spec.name + "_scalar")


# ---------------------------------------------------------------------------
# Example families

# The parameters of each family with their defaults, read by both the
# inequality check and the builder; a family takes these, d and
# time_interval, and no other key.  A given value has its default's kind:
# m (an int) an integer >= 1, a float a finite number, a string an
# expression.  None stands for a matrix default that depends on d and m
# and lives in the builder, which checks matrices by numeric_matrix.
_DEFAULTS = {
    "heat": {"m": 1},
    "ou": {},
    "const_coupling": {"C": [[1.0, 0.0], [0.0, -1.0]]},
    "ex71i": {"r": 1.0, "p": 3.0, "m": 2, "g": "1", "h": "1",
              "Bhat": None, "Chat": None},
    "ex71ii": {"k": 1.0, "r": 1.0, "p": 0.4, "gamma": 0.5, "sigma": 0.5,
               "m": 2, "q": "1", "b": "1", "btilde": "1", "c": "1"},
    "ex72": {"k": 0.0, "r": 0.0, "p": 2.0, "s": 0.5, "tau": 0.0, "m": 2,
             "q": "1", "b": "1", "btilde": "1"},
}


def _with_defaults(name, params):
    if name not in _DEFAULTS:
        raise FamilyError(f"unknown family {name!r}")
    params = params or {}
    allowed = {"d", "time_interval", *_DEFAULTS[name]}
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise FamilyError(f"family {name!r}: unknown parameter(s) {unknown}; "
                          f"allowed: {sorted(allowed)}")
    for key, value in params.items():
        _check_kind(name, key, value, _DEFAULTS[name].get(key))
    return {"d": 1, "time_interval": (0.0, 1.0), **_DEFAULTS[name], **params}


def _check_kind(name, key, value, default):
    """FamilyError, naming key, unless value has the kind of its default;
    d, time_interval and matrices are checked where they are read."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if isinstance(default, str):
        ok, what = isinstance(value, str), "an expression string"
    elif isinstance(default, int):
        ok = real and isinstance(value, numbers.Integral) and value >= 1
        what = "an integer >= 1"
    elif isinstance(default, float):
        ok, what = real and math.isfinite(value), "a finite number"
    else:
        return
    if not ok:
        raise FamilyError(f"family {name!r}: parameter {key!r} must be "
                          f"{what}, got {value!r}")


def _radial(prefix, exponent, d, bindings=None):
    text = f"{prefix}(1+normsq(x))^{exponent!r}"
    return parse_coeff_expr(text, d, bindings=bindings)


def _radial_matrix(coefs, template, exponent, d, bindings=None):
    """Entries template.format(c) (1+|x|^2)^exponent for each coefficient
    c of the matrix coefs; a zero coefficient gives the constant 0."""
    zero = const_expr(0.0, d)
    return tuple(
        tuple(zero if c == 0.0 else
              _radial(template.format(c), exponent, d, bindings)
              for c in map(float, row))
        for row in np.asarray(coefs, dtype=float))


def check_family_params(name, params):
    """Each inequality of the named family with verdict and slack."""
    p = _with_defaults(name, params)
    if name == "ex71i":
        r, pp = float(p["r"]), float(p["p"])
        return [("p > 2r", pp > 2 * r, pp - 2 * r),
                ("r >= 0", r >= 0, r)]
    if name == "ex71ii":  # its skew coupling, like ex72's, needs m <= 2
        m, k, r, pp = int(p["m"]), float(p["k"]), float(p["r"]), float(p["p"])
        gamma, sigma = float(p["gamma"]), float(p["sigma"])
        return [("m <= 2", m <= 2, 2 - m),
                ("r > k-1", r > k - 1, r - (k - 1)),
                ("p >= 0", pp >= 0, pp),
                ("p <= k*sigma", pp <= k * sigma, k * sigma - pp),
                ("gamma > k(2 sigma - 1)", gamma > k * (2 * sigma - 1),
                 gamma - k * (2 * sigma - 1)),
                ("0 < sigma < 1", 0 < sigma < 1, min(sigma, 1 - sigma))]
    if name == "ex72":
        m, k, r, pp = int(p["m"]), float(p["k"]), float(p["r"]), float(p["p"])
        s, tau = float(p["s"]), float(p["tau"])
        a = pp if s < 0.5 else pp - 1.0
        return [("m <= 2", m <= 2, 2 - m),
                ("k >= 2r", k >= 2 * r, k - 2 * r),
                ("2k-2 <= a", 2 * k - 2 <= a, a - (2 * k - 2)),
                ("2s+2 tau <= a", 2 * s + 2 * tau <= a, a - 2 * s - 2 * tau),
                ("2r < 2s+a", 2 * r < 2 * s + a, 2 * s + a - 2 * r),
                ("k+s < p+1", k + s < pp + 1, pp + 1 - k - s)]
    return []


def _uncoupled(name, d, ti, Qmat, b, Cmat):
    """A constant-coefficient preset with Btilde = 0."""
    m = Cmat.shape[0]
    return OperatorSpec(
        d, m, matrix_of_consts(Qmat, d), tuple(b),
        tuple(matrix_of_consts(np.zeros((m, m)), d) for _ in range(d)),
        matrix_of_consts(Cmat, d), ti, name)


def example_family(name, params=None):
    """Assemble a preset OperatorSpec; only ex72's carries a weight."""
    p = dict(params or {})
    bad = [ineq for ineq, ok, _ in check_family_params(name, p) if not ok]
    if bad:
        raise FamilyError(f"family {name!r}: inequality violated: "
                          + "; ".join(bad))
    v = _with_defaults(name, p)
    d = int(v["d"])
    ti = tuple(v["time_interval"])
    zero = const_expr(0.0, d)

    if name == "heat":
        m = int(v["m"])
        return _uncoupled(name, d, ti, 0.5 * np.eye(d), [zero] * d,
                          np.zeros((m, m)))
    if name == "ou":
        return _uncoupled(name, d, ti, 0.5 * np.eye(d),
                          [parse_coeff_expr(f"-(x{j + 1})", d)
                           for j in range(d)], np.zeros((1, 1)))
    if name == "const_coupling":
        # C is square, of any size m >= 1
        m = max(len(v["C"]) if hasattr(v["C"], "__len__") else 0, 1)
        return _uncoupled(name, d, ti, np.eye(d), [zero] * d,
                          numeric_matrix(v["C"], (m, m), "C"))

    m, r, pp = int(v["m"]), float(v["r"]), float(v["p"])

    def skew(a):
        """d copies of the skew coupling [[0, a], [-a, 0]]; at m = 1 it
        is 0, the only 1 x 1 skew matrix (m <= 2 is a family
        inequality)."""
        return [np.array([[0.0, a], [-a, 0.0]]) if m == 2
                else np.zeros((1, 1))] * d

    if name == "ex71i":
        Bhat = numeric_matrix([np.eye(m)] * d if v["Bhat"] is None
                              else v["Bhat"], (d, m, m), "Bhat")
        mus = [float(np.mean(np.diag(B))) for B in Bhat]
        bind = {"gfun": parse_coeff_expr(v["g"], d),
                "hfun": parse_coeff_expr(v["h"], d)}
        b = tuple(_radial(f"-(x{j + 1})*({mu!r})*gfun*", r, d, bind)
                  for j, mu in enumerate(mus))
        Btl = tuple(_radial_matrix(B - mu * np.eye(m),
                                   f"-(x{j + 1})*({{!r}})*gfun*", r, d, bind)
                    for j, (B, mu) in enumerate(zip(Bhat, mus)))
        Chat = numeric_matrix(np.eye(m) if v["Chat"] is None
                              else v["Chat"], (m, m), "Chat")
        C = _radial_matrix(Chat, "-(normsq(x))*({!r})*hfun*", pp, d, bind)
        return OperatorSpec(d, m, matrix_of_consts(np.eye(d), d), b, Btl, C,
                            ti, name)

    k = float(v["k"])
    bind = {"qfun": parse_coeff_expr(v["q"], d),
            "bfun": parse_coeff_expr(v["b"], d),
            "btfun": parse_coeff_expr(v["btilde"], d)}
    if name == "ex71ii":
        bind["cfun"] = parse_coeff_expr(v["c"], d)
        Q = _radial_matrix(np.eye(d), "qfun*", k, d, bind)
        b = tuple(_radial(f"-(x{j + 1})*bfun*", r, d, bind)
                  for j in range(d))
        Btl = tuple(_radial_matrix(B, "({!r})*btfun*", pp, d, bind)
                    for B in skew(1.0))
        C = _radial_matrix(np.eye(m), "-({!r})*cfun*", float(v["gamma"]), d,
                           bind)
        return OperatorSpec(d, m, Q, b, Btl, C, ti, name,
                            sigma=float(v["sigma"]))

    # ex72
    Q = _radial_matrix(np.eye(d), "({!r})*qfun*", k, d, bind)
    b = tuple(_radial(f"-(x{j + 1})*bfun*", pp, d, bind) for j in range(d))
    Btl = tuple(_radial_matrix(B, "({!r})*btfun*", r, d, bind)
                for B in skew(0.5))
    C = _radial_matrix(-np.eye(m), "({!r})*", float(v["tau"]), d)
    return OperatorSpec(d, m, Q, b, Btl, C, ti, name,
                        _radial_matrix(np.eye(d), "", float(v["s"]), d))


FAMILIES = {
    "heat": "no constraints (Q = I/2, b = 0, C = 0)",
    "ou": "no constraints (Q = I/2, b = -x, C = 0)",
    "const_coupling": "no constraints (Q = I, constant potential C)",
    "ex71i": "p > 2r >= 0",
    "ex71ii": "m <= 2, r > k-1, 0 <= p <= k*sigma, "
              "gamma > k(2 sigma - 1), 0 < sigma < 1",
    "ex72": "m <= 2, k >= 2r, 2k-2 <= a, 2s+2 tau <= a, 2r < 2s+a, "
            "k+s < p+1 (a = p for s < 1/2, else p-1)",
}
