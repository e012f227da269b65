"""Operator specifications for the coupled system

    (A u)_k = sum_ij Q_ij D^2_ij u_k + sum_j (B_j D_j u)_k + (C u)_k,
    B_j = b_j I_m + Btilde_j,

together with gradient weights and the built-in example families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsl import check_guards, const_expr, parse_coeff_expr

__all__ = ["OperatorSpec", "WeightSpec", "FamilyError", "example_family",
           "check_family_params", "FAMILIES", "matrix_of_consts",
           "scalar_comparison"]


class FamilyError(ValueError):
    pass


def matrix_of_consts(mat, d):
    mat = np.asarray(mat, dtype=float)
    return tuple(tuple(const_expr(v, d) for v in row) for row in mat)


def _eval_matrix(exprs, t, pts):
    rows = []
    for row in exprs:
        rows.append([np.broadcast_to(e(t, pts), pts.shape[1:]) for e in row])
    return np.array(rows)


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficient data of the vector operator and its diagonal drift.

    Q is d x d (upper triangle mirrored), b the diagonal drift d-vector,
    Btilde the d coupling matrices (each m x m), C the potential m x m.
    """

    d: int
    m: int
    Q: tuple  # d x d of CoeffExpr
    b: tuple  # d of CoeffExpr
    Btilde: tuple  # d of (m x m of CoeffExpr)
    C: tuple  # m x m of CoeffExpr
    time_interval: tuple = (0.0, 1.0)
    name: str = "custom"
    params: dict = field(default_factory=dict)

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
        return np.array([np.broadcast_to(e(t, pts), pts.shape[1:])
                         for e in self.b])

    def Btilde_at(self, t, pts):
        return np.array([_eval_matrix(Bj, t, pts) for Bj in self.Btilde])

    def C_at(self, t, pts):
        return _eval_matrix(self.C, t, pts)

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

    def check_guards(self, box, n_samples=512):
        for e in self._all_exprs():
            check_guards(e, box, self.time_interval, n_samples=n_samples)

    def _all_exprs(self):
        yield from (e for row in self.Q for e in row)
        yield from self.b
        yield from (e for Bj in self.Btilde for row in Bj for e in row)
        yield from (e for row in self.C for e in row)

    def time_reversed(self, T):
        """Coefficients evaluated at T - t (the backward-problem operator)."""
        rev = lambda e: e.time_reversed(T)
        return OperatorSpec(
            self.d, self.m,
            tuple(tuple(rev(e) for e in row) for row in self.Q),
            tuple(rev(e) for e in self.b),
            tuple(tuple(tuple(rev(e) for e in row) for row in Bj)
                  for Bj in self.Btilde),
            tuple(tuple(rev(e) for e in row) for row in self.C),
            self.time_interval, self.name + "_rev", dict(self.params))


def scalar_comparison(spec: OperatorSpec):
    """The scalar operator Tr(Q D^2) + <b, grad> built from (Q, b)."""
    zero = const_expr(0.0, spec.d)
    return OperatorSpec(spec.d, 1, spec.Q, spec.b,
                        tuple(((zero,),) for _ in range(spec.d)),
                        ((zero,),), spec.time_interval,
                        spec.name + "_scalar", dict(spec.params))


@dataclass(frozen=True)
class WeightSpec:
    """Spatial gradient weight M(t,x), a d x d symmetric matrix applied
    to the columns of the Jacobian transpose."""

    d: int
    M: tuple  # d x d of CoeffExpr

    def M_at(self, t, pts):
        return _eval_matrix(self.M, t, pts)

    def lambda_min(self, t, pts):
        Mv = np.moveaxis(self.M_at(t, pts), 2, 0)
        return np.linalg.eigvalsh(Mv)[:, 0]


# ---------------------------------------------------------------------------
# Example families

# Default parameters of each family, read by both the inequality check and
# the builder.  Matrix defaults that depend on d and m live in the builder.
_DEFAULTS = {
    "heat": {"m": 1},
    "ou": {},
    "const_coupling": {"C": [[1.0, 0.0], [0.0, -1.0]]},
    "ex71i": {"r": 1.0, "p": 3.0, "m": 2, "g": "1", "h": "1"},
    "ex71ii": {"k": 1.0, "r": 1.0, "p": 0.4, "gamma": 0.5, "sigma": 0.5,
               "m": 2, "q": "1", "b": "1", "btilde": "1", "c": "1"},
    "ex72": {"k": 0.0, "r": 0.0, "p": 2.0, "s": 0.5, "tau": 0.0, "m": 2,
             "q": "1", "b": "1", "btilde": "1"},
}


def _with_defaults(name, params):
    if name not in _DEFAULTS:
        raise FamilyError(f"unknown family {name!r}")
    return {"d": 1, "time_interval": (0.0, 1.0), **_DEFAULTS[name],
            **(params or {})}


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
    if name == "ex71ii":
        k, r, pp = float(p["k"]), float(p["r"]), float(p["p"])
        gamma, sigma = float(p["gamma"]), float(p["sigma"])
        return [("r > k-1", r > k - 1, r - (k - 1)),
                ("p >= 0", pp >= 0, pp),
                ("p <= k*sigma", pp <= k * sigma, k * sigma - pp),
                ("gamma > k(2 sigma - 1)", gamma > k * (2 * sigma - 1),
                 gamma - k * (2 * sigma - 1))]
    if name == "ex72":
        k, r, pp = float(p["k"]), float(p["r"]), float(p["p"])
        s, tau = float(p["s"]), float(p["tau"])
        a = pp if s < 0.5 else pp - 1.0
        return [("k >= 2r", k >= 2 * r, k - 2 * r),
                ("2k-2 <= a", 2 * k - 2 <= a, a - (2 * k - 2)),
                ("2s+2 tau <= a", 2 * s + 2 * tau <= a, a - 2 * s - 2 * tau),
                ("2r < 2s+a", 2 * r < 2 * s + a, 2 * s + a - 2 * r),
                ("k+s < p+1", k + s < pp + 1, pp + 1 - k - s)]
    return []


def _uncoupled(name, p, d, ti, Qmat, b, Cmat):
    """A constant-coefficient preset with Btilde = 0."""
    m = Cmat.shape[0]
    return OperatorSpec(
        d, m, matrix_of_consts(Qmat, d), tuple(b),
        tuple(matrix_of_consts(np.zeros((m, m)), d) for _ in range(d)),
        matrix_of_consts(Cmat, d), ti, name, p)


def example_family(name, params=None):
    """Assemble a preset OperatorSpec (and WeightSpec for ex72).

    Returns OperatorSpec, or (OperatorSpec, WeightSpec) for ex72.
    """
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
        return _uncoupled(name, p, d, ti, 0.5 * np.eye(d), [zero] * d,
                          np.zeros((m, m)))
    if name == "ou":
        return _uncoupled(name, p, d, ti, 0.5 * np.eye(d),
                          [parse_coeff_expr(f"-(x{j + 1})", d)
                           for j in range(d)], np.zeros((1, 1)))
    if name == "const_coupling":
        return _uncoupled(name, p, d, ti, np.eye(d), [zero] * d,
                          np.asarray(v["C"], dtype=float))

    m, r, pp = int(v["m"]), float(v["r"]), float(v["p"])

    def skew(a):
        return [np.array([[0.0, a], [-a, 0.0]]) if m == 2
                else np.zeros((m, m))] * d

    if name == "ex71i":
        Bhat = [np.asarray(B, dtype=float)
                for B in v.get("Bhat", [np.eye(m)] * d)]
        mus = [float(np.mean(np.diag(B))) for B in Bhat]
        bind = {"gfun": parse_coeff_expr(v["g"], d),
                "hfun": parse_coeff_expr(v["h"], d)}
        b = tuple(_radial(f"-(x{j + 1})*({mu!r})*gfun*", r, d, bind)
                  for j, mu in enumerate(mus))
        Btl = tuple(_radial_matrix(B - mu * np.eye(m),
                                   f"-(x{j + 1})*({{!r}})*gfun*", r, d, bind)
                    for j, (B, mu) in enumerate(zip(Bhat, mus)))
        C = _radial_matrix(v.get("Chat", np.eye(m)),
                           "-(normsq(x))*({!r})*hfun*", pp, d, bind)
        return OperatorSpec(d, m, matrix_of_consts(np.eye(d), d), b, Btl, C,
                            ti, name, p)

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
                    for B in v.get("Btilde0", skew(1.0)))
        C = _radial_matrix(v.get("Chat", np.eye(m)), "-({!r})*cfun*",
                           float(v["gamma"]), d, bind)
        return OperatorSpec(d, m, Q, b, Btl, C, ti, name, p)

    # ex72
    Q = _radial_matrix(v.get("Q0", np.eye(d)), "({!r})*qfun*", k, d, bind)
    b = tuple(_radial(f"-(x{j + 1})*bfun*", pp, d, bind) for j in range(d))
    Btl = tuple(_radial_matrix(B, "({!r})*btfun*", r, d, bind)
                for B in v.get("Btilde0", skew(0.5)))
    C = _radial_matrix(v.get("C0", -np.eye(m)), "({!r})*", float(v["tau"]),
                       d)
    spec = OperatorSpec(d, m, Q, b, Btl, C, ti, name, p)
    return spec, WeightSpec(d, _radial_matrix(np.eye(d), "", float(v["s"]),
                                              d))


FAMILIES = {
    "heat": "no constraints (Q = I/2, b = 0, C = 0)",
    "ou": "no constraints (Q = I/2, b = -x, C = 0)",
    "const_coupling": "no constraints (Q = I, constant potential C)",
    "ex71i": "p > 2r >= 0",
    "ex71ii": "r > k-1, 0 <= p <= k*sigma, gamma > k(2 sigma - 1)",
    "ex72": "k >= 2r, 2k-2 <= a, 2s+2 tau <= a, 2r < 2s+a, k+s < p+1 "
            "(a = p for s < 1/2, else p-1)",
}
