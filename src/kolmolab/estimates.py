"""Quantitative estimate checks: maximum principle, pointwise
domination by the scalar operator, the weighted gradient bound, and the
scalar-component representation formula.

Every check reads Solutions.  squared_solve and representation_residual
march the scalar comparison on the stepper they are handed, so that
the caller decides how long each LU lives.  Sup norms are taken on Grid.probe,
|x| <= L/2, to keep artificial-boundary pollution out of the constants;
max_principle_check and pointwise_check record that restriction.
"""

from __future__ import annotations

import numpy as np

from .grids import gradient, weighted_gradient_sup

__all__ = ["max_principle_check", "squared_solve", "pointwise_check",
           "weighted_gradient_check", "representation_residual"]

# pointwise_check leaves out nodes whose scalar denominator is below this
_FLOOR = 1e-14
# pointwise_check reads the levels nearest to s + k (T-s) / _N_T
_N_T = 4


def _report(name, measured, bound, trend, verdict, notes):
    """The report dict of a check; bound is None when the theory asserts
    existence only, and then so is the margin."""
    return {"name": name, "measured": measured, "bound": bound,
            "refinement_trend": trend, "verdict": verdict, "notes": notes,
            "margin": None if bound is None else bound - measured}


def _bound_verdict(measured, bound, trend):
    ok = measured <= bound * 1.01
    if len(trend) >= 2:
        ok = ok and trend[-1] <= trend[0] * (1 + 1e-9)
    return "PASS" if ok else "FAIL"


def max_principle_check(solves, epsilon, kappa0):
    """Measured growth of the sup norm against exp(eps kappa0 (t-s)),
    read off the last level of each Solution of evolve, coarse to
    fine."""
    f, grid = solves[0].values[0], solves[0].grid
    trend = [float(np.max(np.abs(sol.values[-1][:, grid.probe])))
             / float(np.max(np.abs(f))) for sol in solves]
    measured = trend[-1]
    times = solves[-1].times
    bound = float(np.exp(epsilon * kappa0 * (times[-1] - times[0])))
    return _report(
        "max_principle", measured, bound, trend,
        _bound_verdict(measured, bound, trend),
        {"epsilon": epsilon, "kappa0": kappa0, "probe_L": grid.probe_L})


def squared_solve(scalar, sol):
    """The Solution of G(., s)|f|^2 on the ladder of sol, the Solution of
    evolve from f, marched on scalar, the _Stepper of the scalar
    comparison on sol's grid."""
    g = np.sum(sol.values[0] ** 2, axis=0)[None, :]  # |f|^2
    return scalar.solve(g, sol.times)


def pointwise_check(sol, sq, HJ):
    """Sup over probe nodes and the levels nearest to s + k (T-s) / _N_T
    of |u(t,x)|^2 / (G(t,s)|f|^2)(x) against exp(2 H_J (T-s)), with sol
    the Solution of evolve and sq its squared_solve; nodes where the
    denominator is below _FLOOR are left out and counted."""
    times, grid = sol.times, sol.grid
    if not np.array_equal(sq.times, times):
        raise ValueError("G|f|^2 must be marched on the solve's ladder")
    s, T = times[0], times[-1]
    mask = grid.probe
    checks = np.linspace(s, T, _N_T + 1)[1:]
    picks = np.abs(times[:, None] - checks).argmin(axis=0)  # nearest levels
    num = np.sum(sol.values[picks] ** 2, axis=1)
    den = sq.values[picks, 0]
    floored = den[:, mask] < _FLOOR
    floored_frac = float(np.max(np.mean(floored, axis=1)))
    ratio = num[:, mask] / np.maximum(den[:, mask], _FLOOR)
    measured = float(np.max(ratio[~floored], initial=0.0))
    bound = float(np.exp(2 * HJ * (T - s)))
    verdict = _bound_verdict(measured, bound, [])
    if floored_frac > 0.01:
        verdict = "INCONCLUSIVE"
    return _report(
        "pointwise_domination", measured, bound, [],
        verdict, {"HJ": HJ, "floored_fraction": floored_frac,
                  "probe_L": grid.probe_L})


def weighted_gradient_check(spec, solves):
    """sqrt(t-s) sup|M(t) (J_x u(t))^T| / sup|f|, with M spec's weight,
    over every level of each Solution of evolve, coarse grid to fine; the
    theory asserts existence of the constant, so the acceptance is
    finiteness plus refinement stability (<= 5% drift)."""
    trend = []
    for sol in solves:
        grid, times = sol.grid, sol.times
        W = np.moveaxis(spec.weight_at(times[:, None], grid.points()[:, None]),
                        (0, 1), (1, 2))  # (L, d, d, N)
        trend.append(weighted_gradient_sup(grid, W, sol.values,
                                           times - times[0])
                     / float(np.max(np.abs(sol.values[0]))))
    measured = trend[-1]
    drift = abs(trend[-1] - trend[0]) / max(abs(trend[0]), 1e-300)
    if drift > 0.20:
        verdict = "INCONCLUSIVE"
    elif np.isfinite(measured) and drift <= 0.05:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return _report("weighted_gradient", measured, None, trend, verdict,
                   {"drift": drift})


def representation_residual(spec, sol, scalar):
    """Defect of the representation of the first component, k = 1,

        (G_vec(t,s)f)_k = G(t,s) f_k + int_s^t G(t,r) (S r) dr,
        (S r) = sum_i <row_k Btilde_i, D_i G_vec(r,s)f>
              + <row_k C, G_vec(r,s)f>,

    with sol the vector Solution of evolve and the r-integral realized by
    stepping the inhomogeneous scalar problem on its ladder with scalar,
    the _Stepper of scalar_comparison(spec) on sol's grid."""
    grid, times, vec = sol.grid, sol.times, sol.values
    pts = grid.points()
    # left-endpoint quadrature: the source of the step onto times[l] is
    # built from level l-1 at times[l-1], so the defect is a genuine
    # O(dt) time-integration error; every left endpoint is evaluated in
    # one call, then laid out (and summed) as one call per level was;
    # only row k = 1 of Btilde and C is evaluated, as only it is read
    r, x = times[:-1, None], pts[:, None, :]
    Btv = np.ascontiguousarray(np.moveaxis(np.array(
        [[e(r, x) for e in Bj[0]] for Bj in spec.Btilde]),
        2, 0))  # (L, d, m, N)
    Cv = np.ascontiguousarray(np.moveaxis(
        np.array([e(r, x) for e in spec.C[0]]), 1, 0))  # (L, m, N)
    src = np.einsum("likN,lkiN->lN", Btv, gradient(grid, vec[:-1])) \
        + np.einsum("lkN,lkN->lN", Cv, vec[:-1])
    # Duhamel's formula as one scalar march: f_k transported, with src
    # added at each step
    resid = vec[-1, 0] - scalar.final(vec[0, 0][None], times,
                                      src[:, None])[0]
    return float(np.max(np.abs(resid[grid.probe])))
