"""Numerical audit of the structural hypotheses behind the evolution
operator: uniform ellipticity, the direction-wise nonnegativity
functional, growth/coupling bounds, Lyapunov and compactness criteria,
and the weighted-gradient hypothesis set.

Everything is checked by deterministic sampling on a finite box (Halton
points plus box corners); asymptotic conditions are decided by trends
across nested annuli and reported as such.
"""

from __future__ import annotations

import numpy as np

from .dsl import parse_coeff_expr
from .operators import _eval_matrix

__all__ = ["AuditError", "sample_points", "eta_sphere",
           "check_ellipticity", "check_coupling_nonnegativity", "check_coupling_growth",
           "lyapunov_probe", "check_weight_conditions", "full_audit"]


_N_ETA = 64  # directions eta_sphere samples on the sphere of R^2 or R^3
_N_ANNULI = 6  # nested annuli on which check_weight_conditions decides trends
_LIMIT_THRESHOLD = 1e-2  # outermost value a limit quantity must fall to


class AuditError(RuntimeError):
    pass


def _halton(dim, n):
    """First n points of the unscrambled Halton sequence in [0, 1)^dim,
    index 0 first: per axis the radical inverse of the index in the
    axis' prime base (Halton, Numer. Math. 2, 1960)."""
    primes = []
    c = 2
    while len(primes) < dim:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    out = np.zeros((n, dim))
    for j, base in enumerate(primes):
        q = np.arange(n)
        scale = 1.0 / base
        while q.any():
            out[:, j] += q % base * scale
            scale /= base
            q //= base
    return out


def sample_points(d, box, n_samples, time_interval):
    """Deterministic audit set: Halton points in (t, x) plus the box
    corners at both ends of the time window.  Returns (ts, pts)."""
    raw = _halton(d + 1, n_samples)
    lo, hi = time_interval
    ts = lo + raw[:, 0] * (hi - lo)
    pts = (raw[:, 1:].T * 2 - 1) * box
    corner_x = np.array(np.meshgrid(*[[-box, box]] * d)).reshape(d, -1)
    corner_x = np.concatenate([corner_x, np.zeros((d, 1))], axis=1)
    for tc in (lo, hi):
        ts = np.concatenate([ts, np.full(corner_x.shape[1], tc)])
        pts = np.concatenate([pts, corner_x], axis=1)
    return ts, pts


def eta_sphere(m):
    """Quasi-uniform directions on the unit sphere of R^m, fixed order."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        ang = 2 * np.pi * np.arange(_N_ETA) / _N_ETA
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci sphere for m = 3; higher m is out of desk scale
    if m != 3:
        raise AuditError("eta sampling supports m <= 3")
    i = np.arange(_N_ETA) + 0.5
    phi = np.arccos(1 - 2 * i / _N_ETA)
    golden = np.pi * (1 + 5 ** 0.5)
    theta = golden * i
    return np.stack([np.cos(theta) * np.sin(phi),
                     np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1)


def _witness(ts, pts, idx, eta=None):
    w = {"t": float(np.asarray(ts).ravel()[idx] if np.ndim(ts) else ts),
         "x": [float(v) for v in pts[:, idx]]}
    if eta is not None:
        w["eta"] = [float(v) for v in eta]
    return w


def _sym_lmax(Ms):
    """Largest eigenvalue of the symmetric part; Ms has shape (K, m, m)."""
    S = 0.5 * (Ms + np.swapaxes(Ms, 1, 2))
    return np.linalg.eigvalsh(S)[:, -1]


def check_ellipticity(spec, box, n_samples):
    """Sampled inf of the smallest eigenvalue of Q."""
    ts, pts = sample_points(spec.d, box, n_samples, spec.time_interval)
    Qv = np.moveaxis(spec.Q_at(ts, pts), 2, 0)
    lam = np.linalg.eigvalsh(Qv)[:, 0]
    idx = int(np.argmin(lam))
    return float(lam[idx]), _witness(ts, pts, idx)


def check_coupling_nonnegativity(spec, box, epsilon, kappa0, n_samples):
    """Minimum over sampled (t, x, eta) of the nonnegativity functional

        sum_ij (Q^-1)_ij [<B_i eta, eta><B_j eta, eta> - <B_i^T eta, B_j^T eta>]
        - 4 <C eta, eta> + 4 eps kappa0.
    """
    if epsilon <= 0:
        raise AuditError("epsilon must be positive")
    ts, pts = sample_points(spec.d, box, n_samples, spec.time_interval)
    Qv = np.moveaxis(spec.Q_at(ts, pts), 2, 0)  # (K, d, d)
    if np.min(np.abs(np.linalg.det(Qv))) < 1e-14:
        idx = int(np.argmin(np.abs(np.linalg.det(Qv))))
        raise AuditError(f"Q singular at witness {_witness(ts, pts, idx)}")
    Qinv = np.linalg.inv(Qv)
    Bv = np.moveaxis(spec.B_full_at(ts, pts), 3, 1)  # (d, K, m, m)
    Cv = np.moveaxis(spec.C_at(ts, pts), 2, 0)  # (K, m, m)
    etas = eta_sphere(spec.m)

    best = np.inf
    best_w = None
    for eta in etas:
        Be = Bv @ eta  # (d, K, m)
        quad = np.einsum("iKm,m->iK", Be, eta)  # <B_i eta, eta>
        BTe = np.einsum("iKmn,m->iKn", Bv, eta)  # B_i^T eta
        cross = np.einsum("iKn,jKn->ijK", BTe, BTe)
        term = np.einsum("Kij,iK,jK->K", Qinv, quad, quad)
        term -= np.einsum("Kij,ijK->K", Qinv, cross)
        term -= 4 * np.einsum("Kmn,n,m->K", Cv, eta, eta)
        term += 4 * epsilon * kappa0
        idx = int(np.argmin(term))
        if term[idx] < best:
            best = float(term[idx])
            best_w = _witness(ts, pts, idx, eta)
    return {"K_eta_min": best, "epsilon": epsilon, "kappa0": kappa0,
            "witness": best_w, "verdict": bool(best >= -1e-9)}


def check_coupling_growth(spec, box, sigma, n_samples):
    """Smallest xi with |(Btilde_i)_jk| <= xi lambda_Q^sigma on samples,
    the constant H_J, and a box-doubling divergence flag for xi."""
    if not 0 < sigma < 1:
        raise AuditError("sigma must lie in (0, 1)")

    def xi_on(box_):
        ts, pts = sample_points(spec.d, box_, n_samples, spec.time_interval)
        Qv = np.moveaxis(spec.Q_at(ts, pts), 2, 0)
        lam = np.linalg.eigvalsh(Qv)[:, 0]
        Bt = np.abs(spec.Btilde_at(ts, pts))  # (d, m, m, K)
        ratios = np.max(Bt, axis=(0, 1, 2)) / lam ** sigma
        idx = int(np.argmax(ratios))
        return float(ratios[idx]), ts, pts, lam, idx

    xi, ts, pts, lam, _ = xi_on(box)
    xi2, *_ = xi_on(2 * box)
    diverging = xi2 > 1.05 * xi if xi > 0 else False

    Cv = np.moveaxis(spec.C_at(ts, pts), 2, 0)
    lam_C = _sym_lmax(Cv)
    HJ_vals = lam_C + 0.25 * spec.m ** 2 * spec.d * xi ** 2 \
        * lam ** (2 * sigma - 1)
    idx = int(np.argmax(HJ_vals))
    return {"xi": xi, "xi_doubled_box": xi2, "xi_diverging": bool(diverging),
            "HJ": float(HJ_vals[idx]), "sigma": sigma,
            "witness": _witness(ts, pts, idx),
            "verdict": bool(np.isfinite(xi) and np.isfinite(HJ_vals[idx])
                            and not diverging)}


def _scalar_apply(spec, phi, ts, pts):
    """(Tr(Q D^2) + <b, grad>) phi at the sample points, symbolically."""
    d = spec.d
    Qv = spec.Q_at(ts, pts)
    bv = spec.b_at(ts, pts)
    out = np.zeros(pts.shape[1])
    for i in range(d):
        di = phi.diff(f"x{i + 1}")
        out += bv[i] * di(ts, pts)
        for j in range(d):
            dij = di.diff(f"x{j + 1}")
            out += Qv[i, j] * dij(ts, pts)
    return out


def lyapunov_probe(spec, box, n_samples):
    """Smallest sampled mu with (scalar op) phi <= mu phi, plus a
    compactness fit (scalar op) phi <= -b0 phi^(r+1) + K on the box, for
    phi = 1 + |x|^2."""
    phi = parse_coeff_expr("1+normsq(x)", spec.d)
    ts, pts = sample_points(spec.d, box, n_samples, spec.time_interval)
    phiv = phi(ts, pts)
    Aphi = _scalar_apply(spec, phi, ts, pts)
    mu = float(np.max(Aphi / phiv))
    sup_res = float(np.max(Aphi - mu * phiv))  # <= 0 by construction

    # compactness: need A phi strongly negative far out; fit the decay
    # exponent on the outer annulus |x| >= box/2
    rads = np.sqrt(np.sum(pts ** 2, axis=0))
    outer = rads >= box / 2
    fit = {"verdict": False, "b0": None, "K": None, "r": None}
    if np.any(outer) and np.all(Aphi[outer] < 0):
        y = phiv[outer]
        z = -Aphi[outer]
        slope, _ = np.polyfit(np.log(y), np.log(z), 1)
        r_fit = float(slope - 1.0)
        # smallest b0 and matching offset with -A phi >= b0 y^{r+1} - K
        b0 = float(np.min(z / y ** (r_fit + 1)))
        K = float(np.max(np.maximum(b0 * phiv ** (r_fit + 1) + Aphi, 0.0)))
        fit = {"verdict": bool(b0 > 0), "b0": b0, "K": K, "r": r_fit}
    return {"mu": mu, "sup_residual": sup_res, "compactness": fit,
            "verdict": bool(np.isfinite(mu))}


def _diff(exprs, var):
    return tuple(tuple(e.diff(var) for e in row) for row in exprs)


def _envelope(fields):
    """Pointwise largest spectral norm over (K, a, b) matrix fields."""
    return np.max([np.linalg.norm(f, ord=2, axis=(1, 2)) for f in fields],
                  axis=0)


def check_weight_conditions(spec, box, n_samples):
    """Audit the weighted-gradient hypothesis set of spec and its weight
    M on _N_ANNULI nested annuli; each limit quantity must fall to
    _LIMIT_THRESHOLD.

    The set reads the envelopes psi_1..psi_6 (pointwise spectral norms of
    Btilde_i, D_k Btilde_i, D_k C, D_t M, D_k M and D_k Q, largest over
    the indices) and the matrix
    M (J_x b)^T M^-1 - sum_j b_j (D_j M) M^-1 - sum_ij Q_ij (D_ij M) M^-1.
    A constant M takes the relaxed condition set that drops the
    weight-derivative requirements.
    """
    d, M = spec.d, spec.weight
    xs = [f"x{k + 1}" for k in range(d)]
    relax_identity = not any(
        e.depends_on_t() or e.free_variables() - {"t"}
        for row in M for e in row)
    ts, pts = sample_points(d, box, n_samples, spec.time_interval)

    def at(exprs):  # (K, a, b) values of a matrix of expressions
        return np.moveaxis(_eval_matrix(exprs, ts, pts), 2, 0)

    Mk = at(M)
    eigM = np.linalg.eigvalsh(Mk)
    lamM, LamM = eigM[:, 0], eigM[:, -1]
    if np.min(lamM) <= 0:
        raise AuditError("weight not positive definite on the box")

    rads = np.maximum(np.sqrt(np.sum(pts ** 2, axis=0)), 1e-12)
    bv = spec.b_at(ts, pts)
    b0_vals = np.einsum("iK,iK->K", bv, pts) / rads
    inner = rads < 0.2 * box
    b0_out = b0_vals[~inner]
    if np.max(b0_out) >= 0:
        idx_global = np.where(~inner)[0][int(np.argmax(b0_out))]
        raise AuditError("b0 >= 0 at witness "
                         f"{_witness(ts, pts, idx_global)}")
    b0 = float(np.max(b0_out))

    Qk = at(spec.Q)
    eigQ = np.linalg.eigvalsh(Qk)
    lamQ, LamQ = eigQ[:, 0], eigQ[:, -1]
    LamM2 = np.linalg.eigvalsh(Mk @ Mk)[:, -1]
    LamC = _sym_lmax(at(spec.C))
    DM = [at(_diff(M, x)) for x in xs]
    psi = [_envelope([at(B) for B in spec.Btilde]),
           _envelope([at(_diff(B, x)) for B in spec.Btilde for x in xs]),
           _envelope([at(_diff(spec.C, x)) for x in xs]),
           _envelope([at(_diff(M, "t"))]),
           _envelope(DM),
           _envelope([at(_diff(spec.Q, x)) for x in xs])]

    Minv = np.linalg.inv(Mk)
    MM = Mk @ at([[bj.diff(x) for bj in spec.b] for x in xs]) @ Minv
    for j in range(d):
        MM -= bv[j][:, None, None] * (DM[j] @ Minv)
        for i in range(d):
            MM -= Qk[:, i, j][:, None, None] * (
                at(_diff(_diff(M, xs[i]), xs[j])) @ Minv)
    LamMM = _sym_lmax(MM + np.swapaxes(MM, 1, 2))
    denomC = 2 * LamC + LamMM
    denom_floor = np.where(np.abs(denomC) < 1e-12, 1e-12, np.abs(denomC))
    r2 = np.sum(pts ** 2, axis=0)

    # a quotient may overflow to inf (lambda_M^2 underflows for a tiny
    # M, say); its row then reads no finite limit and FAILs, so numpy's
    # warning would only repeat the verdict
    with np.errstate(over="ignore"):
        quantities = {
            "sup1a": psi[0] ** 2 * LamM2 / (lamQ * LamM ** 2),
            "sup1b": LamQ ** 2 * LamM2 / ((1 + r2) * lamQ ** 2),
            "sup2a": LamQ ** 2 / (1 + r2 ** 2) / denom_floor,
            "sup2b": LamM ** 2 * psi[2] ** 2 / denom_floor,
            "lim3a": (LamQ ** 2 * psi[4] ** 2 + LamM ** 2 * psi[5] ** 2
                      + lamQ * psi[0] ** 2) / (lamQ * lamM ** 2 * denom_floor),
            "lim3b": (LamM * psi[1] + psi[3]) / (lamM * denom_floor),
            "lim3c": LamQ * psi[4] / np.maximum(np.abs(b0_vals), 1e-12),
        }
    dropped = {"sup2a", "sup1b", "lim3c"} if relax_identity else set()

    edges = np.linspace(0, box, _N_ANNULI + 1)
    section = {"b0": b0, "relaxed": bool(relax_identity),
               "psi_sup": [float(np.max(p)) for p in psi],
               "mathcalM_quadform_sup": float(np.max(LamMM)),
               "quantities": {}}
    all_pass = True
    for name, vals in quantities.items():
        annuli = []
        for a in range(_N_ANNULI):
            sel = (rads >= edges[a]) & (rads < edges[a + 1])
            annuli.append(float(np.max(vals[sel])) if np.any(sel)
                          else float("nan"))
        entry = {"sup": float(np.max(vals)), "annuli": annuli,
                 "dropped": name in dropped}
        tail = [v for v in annuli[-3:] if np.isfinite(v)]
        if name.startswith("sup"):
            # finiteness on the box plus no systematic growth across the
            # outermost annuli (>5% per annulus reads as divergence)
            growing = len(tail) == 3 and all(
                tail[i + 1] > 1.05 * tail[i] for i in range(2))
            entry["verdict"] = bool(np.isfinite(entry["sup"]) and not growing)
        else:
            # no finite outer value (all inf, say) is no limit: FAIL
            decreasing = all(tail[i + 1] <= tail[i] * (1 + 1e-9)
                             for i in range(len(tail) - 1))
            entry["verdict"] = bool(tail and decreasing
                                    and tail[-1] <= _LIMIT_THRESHOLD)
        if not entry["verdict"] and name not in dropped:
            all_pass = False
        section["quantities"][name] = entry
    section["verdict"] = bool(all_pass)
    return section


def full_audit(spec, box, epsilon, kappa0, sigma, n_samples):
    """Run every applicable check, the weight's only when spec has one;
    returns {section: result dict}, each with its "verdict".  A check
    that cannot sample this operator (AuditError) gives its section
    {"verdict": False, "error": ...}."""
    def ellipticity():
        lam0, wit = check_ellipticity(spec, box, n_samples)
        return {"lambda0": lam0, "witness": wit, "verdict": bool(lam0 > 0)}

    checks = {
        "ellipticity": ellipticity,
        "nonnegativity": lambda: check_coupling_nonnegativity(
            spec, box, epsilon, kappa0, n_samples),
        "coupling_growth": lambda: check_coupling_growth(
            spec, box, sigma, n_samples),
        "lyapunov": lambda: lyapunov_probe(spec, box, n_samples)}
    if spec.weight is not None:
        checks["weighted_gradient"] = lambda: check_weight_conditions(
            spec, box, n_samples)
    sections = {}
    for name, check in checks.items():
        try:
            sections[name] = check()
        except AuditError as err:
            sections[name] = {"verdict": False, "error": str(err)}
    return sections
