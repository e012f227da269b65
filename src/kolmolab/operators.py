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
        exprs = [e for row in self.Q for e in row] + list(self.b)
        exprs += [e for Bj in self.Btilde for row in Bj for e in row]
        exprs += [e for row in self.C for e in row]
        return any(e.depends_on_t() for e in exprs)

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

def _radial(prefix, exponent, d, extra="", bindings=None):
    text = f"{prefix}(1+normsq(x))^{exponent!r}{extra}"
    return parse_coeff_expr(text, d, bindings=bindings)


def _family_inequalities(name, p):
    g = lambda key, default=None: p.get(key, default)
    if name == "ex71i":
        r, pp = float(g("r", 1.0)), float(g("p", 3.0))
        return [("p > 2r", pp > 2 * r, pp - 2 * r),
                ("r >= 0", r >= 0, r)]
    if name == "ex71ii":
        k = float(g("k", 1.0))
        r = float(g("r", 1.0))
        pp = float(g("p", 0.4))
        gamma = float(g("gamma", 0.5))
        sigma = float(g("sigma", 0.5))
        return [("r > k-1", r > k - 1, r - (k - 1)),
                ("p >= 0", pp >= 0, pp),
                ("p <= k*sigma", pp <= k * sigma, k * sigma - pp),
                ("gamma > k(2 sigma - 1)", gamma > k * (2 * sigma - 1),
                 gamma - k * (2 * sigma - 1))]
    if name == "ex72":
        k = float(g("k", 0.0))
        r = float(g("r", 0.0))
        pp = float(g("p", 2.0))
        s = float(g("s", 0.5))
        tau = float(g("tau", 0.0))
        a = pp if s < 0.5 else pp - 1.0
        return [("k >= 2r", k >= 2 * r, k - 2 * r),
                ("2k-2 <= a", 2 * k - 2 <= a, a - (2 * k - 2)),
                ("2s+2 tau <= a", 2 * s + 2 * tau <= a, a - 2 * s - 2 * tau),
                ("2r < 2s+a", 2 * r < 2 * s + a, 2 * s + a - 2 * r),
                ("k+s < p+1", k + s < pp + 1, pp + 1 - k - s)]
    if name in ("heat", "ou", "const_coupling"):
        return []
    raise FamilyError(f"unknown family {name!r}")


def check_family_params(name, params):
    """Each inequality of the named family with verdict and slack."""
    return _family_inequalities(name, dict(params or {}))


def _require_params(name, params):
    report = check_family_params(name, params)
    bad = [ineq for ineq, ok, _ in report if not ok]
    if bad:
        raise FamilyError(f"family {name!r}: inequality violated: "
                          + "; ".join(bad))


def example_family(name, params=None):
    """Assemble a preset OperatorSpec (and WeightSpec for ex72).

    Returns OperatorSpec, or (OperatorSpec, WeightSpec) for ex72.
    """
    p = dict(params or {})
    _require_params(name, p)
    d = int(p.get("d", 1))
    ti = tuple(p.get("time_interval", (0.0, 1.0)))
    zero = const_expr(0.0, d)

    if name == "heat":
        m = int(p.get("m", 1))
        Q = matrix_of_consts(0.5 * np.eye(d), d)
        b = tuple(zero for _ in range(d))
        Btl = tuple(matrix_of_consts(np.zeros((m, m)), d) for _ in range(d))
        C = matrix_of_consts(np.zeros((m, m)), d)
        return OperatorSpec(d, m, Q, b, Btl, C, ti, "heat", p)

    if name == "ou":
        m = 1
        Q = matrix_of_consts(0.5 * np.eye(d), d)
        b = tuple(parse_coeff_expr(f"-(x{j + 1})", d) for j in range(d))
        Btl = tuple(matrix_of_consts(np.zeros((1, 1)), d) for _ in range(d))
        C = matrix_of_consts(np.zeros((1, 1)), d)
        return OperatorSpec(d, m, Q, b, Btl, C, ti, "ou", p)

    if name == "const_coupling":
        Cmat = np.asarray(p.get("C", [[1.0, 0.0], [0.0, -1.0]]), dtype=float)
        m = Cmat.shape[0]
        Q = matrix_of_consts(np.eye(d), d)
        b = tuple(zero for _ in range(d))
        Btl = tuple(matrix_of_consts(np.zeros((m, m)), d) for _ in range(d))
        C = matrix_of_consts(Cmat, d)
        return OperatorSpec(d, m, Q, b, Btl, C, ti, "const_coupling", p)

    if name == "ex71i":
        r = float(p.get("r", 1.0))
        pp = float(p.get("p", 3.0))
        m = int(p.get("m", 2))
        Bhat = [np.asarray(B, dtype=float)
                for B in p.get("Bhat", [np.eye(m)] * d)]
        Chat = np.asarray(p.get("Chat", np.eye(m)), dtype=float)
        gtxt = p.get("g", "1")
        htxt = p.get("h", "1")
        bind = {"gfun": parse_coeff_expr(gtxt, d),
                "hfun": parse_coeff_expr(htxt, d)}
        Q = matrix_of_consts(np.eye(d), d)
        b, Btl = [], []
        for j in range(d):
            mu = float(np.mean(np.diag(Bhat[j])))
            b.append(_radial(f"-(x{j + 1})*({mu!r})*gfun*", r, d,
                             bindings=bind))
            rows = []
            for h in range(m):
                row = []
                for k in range(m):
                    coef = float(Bhat[j][h, k]) - (mu if h == k else 0.0)
                    if coef == 0.0:
                        row.append(zero)
                    else:
                        row.append(_radial(
                            f"-(x{j + 1})*({coef!r})*gfun*", r, d,
                            bindings=bind))
                rows.append(tuple(row))
            Btl.append(tuple(rows))
        C = []
        for h in range(m):
            row = []
            for k in range(m):
                if float(Chat[h, k]) == 0.0:
                    row.append(zero)
                else:
                    row.append(_radial(
                        f"-(normsq(x))*({float(Chat[h, k])!r})*hfun*", pp, d,
                        bindings=bind))
            C.append(tuple(row))
        return OperatorSpec(d, m, Q, tuple(b), tuple(Btl), tuple(C), ti,
                            "ex71i", p)

    if name == "ex71ii":
        k = float(p.get("k", 1.0))
        r = float(p.get("r", 1.0))
        pp = float(p.get("p", 0.4))
        gamma = float(p.get("gamma", 0.5))
        m = int(p.get("m", 2))
        Btl0 = [np.asarray(B, dtype=float) for B in
                p.get("Btilde0", [np.array([[0.0, 1.0], [-1.0, 0.0]])
                                  if m == 2 else np.zeros((m, m))] * d)]
        Chat = np.asarray(p.get("Chat", np.eye(m)), dtype=float)
        bind = {"qfun": parse_coeff_expr(p.get("q", "1"), d),
                "bfun": parse_coeff_expr(p.get("b", "1"), d),
                "btfun": parse_coeff_expr(p.get("btilde", "1"), d),
                "cfun": parse_coeff_expr(p.get("c", "1"), d)}
        Q = [[zero] * d for _ in range(d)]
        for j in range(d):
            Q[j][j] = _radial("qfun*", k, d, bindings=bind)
        b = tuple(_radial(f"-(x{j + 1})*bfun*", r, d, bindings=bind)
                  for j in range(d))
        Btl = []
        for j in range(d):
            rows = []
            for h in range(m):
                row = []
                for kk in range(m):
                    coef = float(Btl0[j][h, kk])
                    row.append(zero if coef == 0.0 else _radial(
                        f"({coef!r})*btfun*", pp, d, bindings=bind))
                rows.append(tuple(row))
            Btl.append(tuple(rows))
        C = []
        for h in range(m):
            row = []
            for kk in range(m):
                coef = float(Chat[h, kk])
                row.append(zero if coef == 0.0 else _radial(
                    f"-({coef!r})*cfun*", gamma, d, bindings=bind))
            C.append(tuple(row))
        return OperatorSpec(d, m, tuple(tuple(rw) for rw in Q), b,
                            tuple(Btl), tuple(C), ti, "ex71ii", p)

    if name == "ex72":
        k = float(p.get("k", 0.0))
        r = float(p.get("r", 0.0))
        pp = float(p.get("p", 2.0))
        s = float(p.get("s", 0.5))
        tau = float(p.get("tau", 0.0))
        m = int(p.get("m", 2))
        Q0 = np.asarray(p.get("Q0", np.eye(d)), dtype=float)
        Btl0 = [np.asarray(B, dtype=float) for B in
                p.get("Btilde0", [np.array([[0.0, 0.5], [-0.5, 0.0]])
                                  if m == 2 else np.zeros((m, m))] * d)]
        Cmat = np.asarray(p.get("C0", -np.eye(m)), dtype=float)
        bind = {"qfun": parse_coeff_expr(p.get("q", "1"), d),
                "bfun": parse_coeff_expr(p.get("b", "1"), d),
                "btfun": parse_coeff_expr(p.get("btilde", "1"), d)}
        Q = []
        for i in range(d):
            row = []
            for j in range(d):
                row.append(zero if float(Q0[i, j]) == 0.0 else _radial(
                    f"({float(Q0[i, j])!r})*qfun*", k, d, bindings=bind))
            Q.append(tuple(row))
        b = tuple(_radial(f"-(x{j + 1})*bfun*", pp, d, bindings=bind)
                  for j in range(d))
        Btl = []
        for j in range(d):
            rows = []
            for h in range(m):
                row = []
                for kk in range(m):
                    coef = float(Btl0[j][h, kk])
                    row.append(zero if coef == 0.0 else _radial(
                        f"({coef!r})*btfun*", r, d, bindings=bind))
                rows.append(tuple(row))
            Btl.append(tuple(rows))
        C = []
        for h in range(m):
            row = []
            for kk in range(m):
                coef = float(Cmat[h, kk])
                row.append(zero if coef == 0.0 else _radial(
                    f"({coef!r})*", tau, d))
            C.append(tuple(row))
        spec = OperatorSpec(d, m, tuple(Q), b, tuple(Btl), tuple(C), ti,
                            "ex72", p)
        Mw = []
        for i in range(d):
            row = []
            for j in range(d):
                row.append(_radial("", s, d) if i == j else zero)
            Mw.append(tuple(row))
        return spec, WeightSpec(d, tuple(Mw))

    raise FamilyError(f"unknown family {name!r}")


FAMILIES = {
    "heat": "no constraints (Q = I/2, b = 0, C = 0)",
    "ou": "no constraints (Q = I/2, b = -x, C = 0)",
    "const_coupling": "no constraints (Q = I, constant potential C)",
    "ex71i": "p > 2r >= 0",
    "ex71ii": "r > k-1, 0 <= p <= k*sigma, gamma > k(2 sigma - 1)",
    "ex72": "k >= 2r, 2k-2 <= a, 2s+2 tau <= a, 2r < 2s+a, k+s < p+1 "
            "(a = p for s < 1/2, else p-1)",
}
