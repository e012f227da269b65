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


def sample_points(d, box, n_samples, time_interval, corners=True):
    """Deterministic audit set: Halton points in (t, x) plus the box
    corners at both ends of the time window.  Returns (ts, pts)."""
    raw = _halton(d + 1, n_samples)
    lo, hi = time_interval
    ts = lo + raw[:, 0] * (hi - lo)
    pts = (raw[:, 1:].T * 2 - 1) * box
    if corners:
        corner_x = np.array(np.meshgrid(*[[-box, box]] * d)).reshape(d, -1)
        corner_x = np.concatenate([corner_x, np.zeros((d, 1))], axis=1)
        for tc in (lo, hi):
            ts = np.concatenate([ts, np.full(corner_x.shape[1], tc)])
            pts = np.concatenate([pts, corner_x], axis=1)
    return ts, pts


def eta_sphere(m, n_eta=64):
    """Quasi-uniform directions on the unit sphere of R^m, fixed order."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        ang = 2 * np.pi * np.arange(n_eta) / n_eta
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci sphere for m = 3; higher m is out of desk scale
    if m != 3:
        raise AuditError("eta sampling supports m <= 3")
    i = np.arange(n_eta) + 0.5
    phi = np.arccos(1 - 2 * i / n_eta)
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


def check_ellipticity(spec, box, n_samples=2048):
    """Sampled inf of the smallest eigenvalue of Q."""
    ts, pts = sample_points(spec.d, box, n_samples, spec.time_interval)
    Qv = np.moveaxis(spec.Q_at(ts, pts), 2, 0)
    lam = np.linalg.eigvalsh(Qv)[:, 0]
    idx = int(np.argmin(lam))
    return float(lam[idx]), _witness(ts, pts, idx)


def check_coupling_nonnegativity(spec, box, epsilon, kappa0, n_eta=64, n_samples=1024):
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
    etas = eta_sphere(spec.m, n_eta)

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


def check_coupling_growth(spec, box, sigma, n_samples=1024):
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


def _default_phi(d):
    return parse_coeff_expr("1+normsq(x)", d)


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


def lyapunov_probe(spec, box, phi=None, n_samples=2048):
    """Smallest sampled mu with (scalar op) phi <= mu phi, plus a
    compactness fit (scalar op) phi <= -b0 phi^(r+1) + K on the box."""
    phi = phi or _default_phi(spec.d)
    ts, pts = sample_points(spec.d, box, n_samples, spec.time_interval)
    phiv = phi(ts, pts)
    if np.min(phiv) <= 0:
        idx = int(np.argmin(phiv))
        raise AuditError(f"phi not positive at {_witness(ts, pts, idx)}")
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


def _matrix_diff(exprs, var):
    return tuple(tuple(e.diff(var) for e in row) for row in exprs)


def _psi_envelopes(spec, weight, ts, pts):
    """Pointwise envelopes psi_1..psi_6 (spectral norms over the index
    ranges), shape (6, K)."""
    d = spec.d
    K = pts.shape[1]

    def norm2(exprs):
        # spectral norm per sample of the (a, b, K) coefficient field
        return np.linalg.norm(np.moveaxis(_eval_matrix(exprs, ts, pts), 2, 0),
                              ord=2, axis=(1, 2))

    psi1 = np.zeros(K)
    psi2 = np.zeros(K)
    for i in range(d):
        Bt = spec.Btilde[i]
        psi1 = np.maximum(psi1, norm2(Bt))
        for k in range(d):
            dBt = _matrix_diff(Bt, f"x{k + 1}")
            psi2 = np.maximum(psi2, norm2(dBt))
    psi3 = np.zeros(K)
    for k in range(d):
        dC = _matrix_diff(spec.C, f"x{k + 1}")
        psi3 = np.maximum(psi3, norm2(dC))
    psi4 = norm2(_matrix_diff(weight.M, "t"))
    psi5 = np.zeros(K)
    psi6 = np.zeros(K)
    for k in range(d):
        dM = _matrix_diff(weight.M, f"x{k + 1}")
        psi5 = np.maximum(psi5, norm2(dM))
        dQ = _matrix_diff(spec.Q, f"x{k + 1}")
        psi6 = np.maximum(psi6, norm2(dQ))
    return np.stack([psi1, psi2, psi3, psi4, psi5, psi6])


def _mathcal_m(spec, weight, ts, pts):
    """M (J_x b)^T M^-1 - sum_j b_j (D_j M) M^-1 - sum_ij Q_ij (D_ij M) M^-1,
    shape (K, d, d)."""
    d = spec.d
    Mv = weight.M_at(ts, pts)  # (d, d, K)
    Mk = np.moveaxis(Mv, 2, 0)
    Minv = np.linalg.inv(Mk)
    Jb = np.zeros((pts.shape[1], d, d))  # (K, j, k) = D_k b_j
    for j in range(d):
        for k in range(d):
            Jb[:, j, k] = np.broadcast_to(
                spec.b[j].diff(f"x{k + 1}")(ts, pts), pts.shape[1:])
    out = Mk @ np.swapaxes(Jb, 1, 2) @ Minv
    bv = spec.b_at(ts, pts)
    Qv = spec.Q_at(ts, pts)
    for j in range(d):
        DjM = np.moveaxis(_eval_matrix(
            _matrix_diff(weight.M, f"x{j + 1}"), ts, pts), 2, 0)
        out -= bv[j][:, None, None] * (DjM @ Minv)
        for i in range(d):
            DiM = _matrix_diff(weight.M, f"x{i + 1}")
            DijM = np.moveaxis(_eval_matrix(
                _matrix_diff(DiM, f"x{j + 1}"), ts, pts), 2, 0)
            out -= Qv[i, j][:, None, None] * (DijM @ Minv)
    return out


def check_weight_conditions(spec, weight, box, n_samples=2048):
    """Audit the weighted-gradient hypothesis set on _N_ANNULI nested
    annuli; each limit quantity must fall to _LIMIT_THRESHOLD.

    A constant M takes the relaxed condition set that drops the
    weight-derivative requirements.
    """
    d = spec.d
    relax_identity = not any(
        e.depends_on_t() or e.free_variables() - {"t"}
        for row in weight.M for e in row)
    ts, pts = sample_points(d, box, n_samples, spec.time_interval)
    lamM = weight.lambda_min(ts, pts)
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

    Qk = np.moveaxis(spec.Q_at(ts, pts), 2, 0)
    lamQ = np.linalg.eigvalsh(Qk)[:, 0]
    LamQ = np.linalg.eigvalsh(Qk)[:, -1]
    Mk = np.moveaxis(weight.M_at(ts, pts), 2, 0)
    LamM = np.linalg.eigvalsh(Mk)[:, -1]
    LamM2 = np.linalg.eigvalsh(Mk @ Mk)[:, -1]
    Cv = np.moveaxis(spec.C_at(ts, pts), 2, 0)
    LamC = _sym_lmax(Cv)
    psi = _psi_envelopes(spec, weight, ts, pts)
    MM = _mathcal_m(spec, weight, ts, pts)
    LamMM = _sym_lmax(2 * 0.5 * (MM + np.swapaxes(MM, 1, 2)))
    denomC = 2 * LamC + LamMM
    denom_floor = np.where(np.abs(denomC) < 1e-12, 1e-12, np.abs(denomC))
    r2 = np.sum(pts ** 2, axis=0)

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
               "psi_sup": [float(np.max(psi[h])) for h in range(6)],
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
            decreasing = all(tail[i + 1] <= tail[i] * (1 + 1e-9)
                             for i in range(len(tail) - 1))
            entry["verdict"] = bool(decreasing
                                    and tail[-1] <= _LIMIT_THRESHOLD)
        if not entry["verdict"] and name not in dropped:
            all_pass = False
        section["quantities"][name] = entry
    section["verdict"] = bool(all_pass)
    return section


def full_audit(spec, box, weight=None, epsilon=1.0, kappa0=0.0, sigma=0.5,
               n_samples=1024):
    """Run every applicable check; returns {section: result dict}, each
    with its "verdict"."""
    lam0, wit = check_ellipticity(spec, box, n_samples)
    sections = {
        "ellipticity": {"lambda0": lam0, "witness": wit,
                        "verdict": bool(lam0 > 0)},
        "nonnegativity": check_coupling_nonnegativity(
            spec, box, epsilon, kappa0, n_samples=n_samples),
        "coupling_growth": check_coupling_growth(
            spec, box, sigma, n_samples=n_samples),
        "lyapunov": lyapunov_probe(spec, box, n_samples=n_samples)}
    if weight is not None:
        try:
            sections["weighted_gradient"] = check_weight_conditions(
                spec, weight, box, n_samples=n_samples)
        except AuditError as err:
            sections["weighted_gradient"] = {
                "verdict": False, "error": str(err)}
    return sections
