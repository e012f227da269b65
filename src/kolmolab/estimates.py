"""Quantitative estimate checks: maximum principle, pointwise
domination by the scalar operator, the weighted gradient bound, and the
scalar-component representation formula.

All sup norms are taken on the interior probe box |x| <= L/2 (half the
domain) to keep artificial-boundary pollution out of the constants;
max_principle_check and pointwise_check record that restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolve import _Stepper, _time_ladder, evolve
from .grids import GridFunction, gradient, weighted_gradient_sup
from .operators import scalar_comparison

__all__ = ["EstimateResult", "max_principle_check", "pointwise_check",
           "weighted_gradient_check", "representation_residual"]

# pointwise_check leaves out nodes whose scalar denominator is below this
_FLOOR = 1e-14


@dataclass
class EstimateResult:
    name: str
    measured: float
    bound: float = None  # None when the theory asserts existence only
    refinement_trend: list = field(default_factory=list)
    verdict: str = "PASS"  # PASS / FAIL / INCONCLUSIVE
    notes: dict = field(default_factory=dict)

    @property
    def margin(self):
        return None if self.bound is None else self.bound - self.measured

    def as_dict(self):
        return {"name": self.name, "measured": self.measured,
                "bound": self.bound, "margin": self.margin,
                "refinement_trend": self.refinement_trend,
                "verdict": self.verdict, "notes": self.notes}


def _bound_verdict(measured, bound, trend):
    ok = measured <= bound * 1.01
    if len(trend) >= 2:
        ok = ok and trend[-1] <= trend[0] * (1 + 1e-9)
    return "PASS" if ok else "FAIL"


def max_principle_check(spec, f: GridFunction, s, t, epsilon, kappa0,
                        dt_list=(4e-3, 2e-3)):
    """Measured growth of the sup norm against exp(eps kappa0 (t-s))."""
    probe_L = f.grid.L / 2
    fnorm = f.sup_norm()
    trend = []
    for dt in dt_list:
        u = evolve(spec, f, s, t, dt)
        trend.append(u.sup_norm(probe_L) / fnorm)
    measured = trend[-1]
    bound = float(np.exp(epsilon * kappa0 * (t - s)))
    return EstimateResult(
        "max_principle", measured, bound, trend,
        _bound_verdict(measured, bound, trend),
        {"epsilon": epsilon, "kappa0": kappa0, "probe_L": probe_L})


def pointwise_check(spec, f: GridFunction, s, T, HJ, n_t=4, dt=2e-3):
    """Sup over probe nodes and intermediate times of
    |u(t,x)|^2 / (G(t,s)|f|^2)(x) against exp(2 H_J (T-s)); nodes where
    the denominator is below _FLOOR are left out and counted."""
    probe_L = f.grid.L / 2
    mask = f.grid.interior_mask(probe_L)
    check_times = np.linspace(s, T, n_t + 1)[1:]
    measured = 0.0
    floored_frac = 0.0
    vec = _Stepper(spec, f.grid, f.bc)
    sca = _Stepper(scalar_comparison(spec), f.grid, f.bc)
    u, g = f.values, np.sum(f.values ** 2, axis=0)[None, :]  # f and |f|^2
    prev = s
    for tk in check_times:
        times = _time_ladder(prev, tk, dt)
        u = vec.final(u, times)
        g = sca.final(g, times)
        prev = tk
        num = np.sum(u ** 2, axis=0)[mask]
        den = g[0, mask]
        floored = den < _FLOOR
        floored_frac = max(floored_frac, np.mean(floored))
        ratio = num / np.maximum(den, _FLOOR)
        measured = max(measured, float(np.max(ratio[~floored]))
                       if np.any(~floored) else 0.0)
    bound = float(np.exp(2 * HJ * (T - s)))
    verdict = _bound_verdict(measured, bound, [])
    if floored_frac > 0.01:
        verdict = "INCONCLUSIVE"
    return EstimateResult(
        "pointwise_domination", measured, bound, [],
        verdict, {"HJ": HJ, "floored_fraction": float(floored_frac),
                  "probe_L": probe_L})


def weighted_gradient_check(spec, weight, f_fn, s, T, t_list, grid_pair,
                            dt=2e-3, bc="dirichlet"):
    """sqrt(t-s) * sup |M (J_x u)^T| / sup|f| measured on two grid
    resolutions; the theory asserts existence of the constant, so the
    acceptance is finiteness plus refinement stability (<= 5% drift)."""
    trend = []
    for grid in grid_pair:
        mask = grid.interior_mask(grid.L / 2)
        f = GridFunction.from_callable(grid, spec.m, f_fn, bc=bc)
        fnorm = f.sup_norm()
        best = 0.0
        stepper = _Stepper(spec, grid, bc)
        u, prev = f.values, s
        for t in sorted(t_list):
            u = stepper.final(u, _time_ladder(prev, t, dt))
            prev = t
            val = np.sqrt(t - s) * weighted_gradient_sup(
                weight.M_at(t, grid.points()), gradient(grid, u),
                mask) / fnorm
            best = max(best, val)
        trend.append(best)
    measured = trend[-1]
    drift = abs(trend[-1] - trend[0]) / max(abs(trend[0]), 1e-300)
    if drift > 0.20:
        verdict = "INCONCLUSIVE"
    elif np.isfinite(measured) and drift <= 0.05:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return EstimateResult("weighted_gradient", measured, None, trend,
                          verdict, {"drift": drift, "t_list": list(t_list)})


def representation_residual(spec, f: GridFunction, kbar, s, t, dt):
    """Defect of the scalar-component representation

        (G_vec(t,s)f)_kbar = G(t,s) f_kbar + int_s^t G(t,r) (S r) dr,
        (S r) = sum_i <row_kbar Btilde_i, D_i G_vec(r,s)f>
              + <row_kbar C, G_vec(r,s)f>,

    with the r-integral realized by stepping the inhomogeneous scalar
    problem on the ladder of the vector solve."""
    grid = f.grid
    mask = grid.interior_mask(grid.L / 2)
    pts = grid.points()
    times = _time_ladder(s, t, dt)
    u = f.values
    vec = np.stack([u, *_Stepper(spec, grid, f.bc).march(u, times)])
    # left-endpoint quadrature: the source of the step onto times[l] is
    # built from level l-1 at times[l-1], so the defect is a genuine
    # O(dt) time-integration error; every left endpoint is evaluated in
    # one call, then laid out (and summed) as one call per level was
    r, x = times[:-1, None], pts[:, None, :]
    Btv = np.ascontiguousarray(
        np.moveaxis(spec.Btilde_at(r, x)[:, kbar], 2, 0))  # (L, d, m, N)
    Cv = np.ascontiguousarray(np.moveaxis(spec.C_at(r, x)[kbar], 1, 0))
    src = np.einsum("likN,lkiN->lN", Btv, gradient(grid, vec[:-1])) \
        + np.einsum("lkN,lkN->lN", Cv, vec[:-1])
    # one two-column march on one stepper, so that both columns share
    # each (t, dt) LU: the scalar transport of f_kbar, and the integral
    # term driven by src
    start = np.zeros((1, grid.n_nodes, 2))
    start[0, :, 0] = u[kbar]
    source = np.zeros((len(times) - 1, 1, grid.n_nodes, 2))
    source[:, 0, :, 1] = src
    v, w = np.moveaxis(_Stepper(scalar_comparison(spec), grid, f.bc).final(
        start, times, source), -1, 0)
    resid = vec[-1, kbar] - v[0] - w[0]
    return float(np.max(np.abs(resid[mask])))
