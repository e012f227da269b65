from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from kolmolab.estimates import (max_principle_check, pointwise_check,
                                representation_residual,
                                weighted_gradient_check)
from kolmolab.grids import Grid, gradient
from helpers import box_mask, constant, sample, squared
from kolmolab import evolve as evolve_module
from kolmolab.evolve import _Stepper, evolve
from kolmolab.operators import (example_family, matrix_of_consts,
                                scalar_comparison)


def test_max_principle_contraction_when_kappa_zero():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 241, "dirichlet")
    f = sample(grid, lambda p: np.cos(2 * p[0]))
    res = max_principle_check(
        [evolve(spec, grid, f, 0.0, 0.5, dt) for dt in (4e-3, 2e-3)],
        epsilon=1.0, kappa0=0.0)
    assert res["measured"] <= 1.0 + 1e-8
    assert res["verdict"] == "PASS"


def test_max_principle_tight_matrix_exponential():
    spec = example_family("const_coupling", {"d": 1})  # C = diag(1, -1)
    grid = Grid(1, 4.0, 81, "neumann")
    f = constant(grid, [1.0, 0.0])
    tau = 0.3
    res = max_principle_check(
        [evolve(spec, grid, f, 0.0, tau, dt) for dt in (1e-4, 0.5e-4)],
        epsilon=1.0, kappa0=1.0)
    # the first component grows like e^t exactly; bound is tight
    assert res["measured"] == pytest.approx(np.exp(tau), rel=1e-4)
    assert res["verdict"] == "PASS"
    # implicit stepping overshoots e^t by O(dt); the bound stays tight
    assert abs(res["margin"]) <= 1e-4 * res["bound"]


def test_max_principle_ex71i():
    spec = example_family("ex71i", {"d": 1, "m": 2, "r": 1.0, "p": 3.0})
    grid = Grid(1, 5.0, 201, "dirichlet")
    f = sample(grid, lambda p: np.stack([np.sin(p[0]), np.exp(-p[0] ** 2)]))
    res = max_principle_check(
        [evolve(spec, grid, f, 0.0, 0.4, dt) for dt in (4e-3, 2e-3)],
        epsilon=1.0, kappa0=1.0)
    assert res["verdict"] == "PASS"
    assert res["margin"] > 0


def test_max_principle_scaling_invariance():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 161, "dirichlet")
    f = sample(grid, lambda p: np.tanh(p[0]))
    r1 = max_principle_check([evolve(spec, grid, f, 0.0, 0.3, 4e-3)],
                             1.0, 0.0)
    r2 = max_principle_check([evolve(spec, grid, 2 * f, 0.0, 0.3, 4e-3)],
                             1.0, 0.0)
    assert abs(r1["measured"] - r2["measured"]) <= 1e-10


def test_pointwise_jensen_case():
    # no coupling: |u|^2 = |G f|^2 <= G |f|^2 by Jensen; ratio <= 1
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 241, "dirichlet")
    f = sample(grid, lambda p: np.sin(3 * p[0]))
    sol = evolve(spec, grid, f, 0.0, 0.5, 2e-3)
    res = pointwise_check(sol, squared(spec, sol), HJ=0.0)
    assert res["measured"] <= 1.0 + 1e-6
    assert res["verdict"] == "PASS"


def test_pointwise_ex71ii():
    from kolmolab.audit import check_coupling_growth
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    HJ = check_coupling_growth(spec, box=5.0, n_samples=512)["HJ"]
    grid = Grid(1, 5.0, 201, "dirichlet")
    f = sample(grid, lambda p: np.stack([np.cos(p[0]), np.sin(2 * p[0])]))
    sol = evolve(spec, grid, f, 0.0, 0.5, 2e-3)
    res = pointwise_check(sol, squared(spec, sol), HJ=max(HJ, 0.0))
    assert res["verdict"] == "PASS", res


def test_pointwise_factorises_once_per_operator(monkeypatch):
    # one LU per operator: the vector one in evolve's solve, the scalar
    # one in the single march of |f|^2 that pointwise reads at every
    # check time
    calls = []
    splu = evolve_module.spla.splu

    def counting_splu(M):
        calls.append(M.shape)
        return splu(M)

    monkeypatch.setattr(evolve_module.spla, "splu", counting_splu)
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 6.0, 61, "neumann")
    # the runner's default data: exp(-|x|^2) and cos(2 x1), neumann
    f = sample(grid,
               lambda p: np.stack([np.exp(-p[0] ** 2), np.cos(2 * p[0])]))
    sol = evolve(spec, grid, f, 0.0, 0.2, 0.01)
    res = pointwise_check(sol, squared(spec, sol), HJ=1.0)
    assert len(calls) == 2
    assert res["measured"] == 0.8649752824184967


def test_pointwise_reads_g_f_squared_on_the_solve_ladder():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 61, "neumann")
    f = sample(grid, lambda p: np.sin(p[0]))
    sol = evolve(spec, grid, f, 0.0, 0.2, 0.01)
    other = squared(spec, evolve(spec, grid, f, 0.0, 0.2, 0.02))
    with pytest.raises(ValueError, match="ladder"):
        pointwise_check(sol, other, HJ=0.0)


def test_pointwise_coupled_bounded_C():
    spec = example_family("const_coupling",
                          {"d": 1, "C": [[0.0, 0.5], [0.5, 0.0]]})
    grid = Grid(1, 6.0, 161, "neumann")
    rng = np.random.default_rng(11)
    vals = rng.uniform(-1, 1, (2, grid.n_nodes))
    # smooth the random data so gradients stay resolved
    for _ in range(40):
        vals[:, 1:-1] = (vals[:, :-2] + 2 * vals[:, 1:-1] + vals[:, 2:]) / 4
    # Lambda_C = 0.5, xi = 0 on the diagonal-drift side: HJ = 0.5
    sol = evolve(spec, grid, vals, 0.0, 0.4, 2e-3)
    res = pointwise_check(sol, squared(spec, sol), HJ=0.5)
    assert res["verdict"] == "PASS"


def _solves(spec, fn, grids, s, T, dt):
    """One evolve of fn over [s, T] on each grid, coarse to fine."""
    return [evolve(spec, grid, sample(grid, fn), s, T, dt) for grid in grids]


def test_weighted_gradient_constants_vanish():
    spec = example_family("ex71i", {"d": 1, "m": 2, "r": 1.0, "p": 3.0,
                                    "Chat": np.zeros((2, 2))})
    spec = replace(spec, weight=matrix_of_consts(np.eye(1), 1))
    res = weighted_gradient_check(spec, _solves(
        spec, lambda p: np.ones((2, p.shape[1])),
        [Grid(1, 5.0, n, "neumann") for n in (161, 321)], 0.0, 0.5, 2e-3))
    assert res["measured"] <= 1e-6


@pytest.mark.parametrize("d", [1, 2])
def test_weighted_gradient_check_is_the_level_by_level_sup(d):
    # sqrt(t - s) sup |M(t) (J_x u(t))^T| over the probe box, level by
    # level, divided by sup |f|; the largest over the levels of each grid
    spec = example_family("ex72", {"d": d, "m": 2})
    grids = [Grid(d, 5.0, n, "neumann") for n in (21, 41)]
    solves = _solves(spec, lambda p: np.stack(
        [np.tanh(p[0]), np.cos(p[-1])]), grids, 0.25, 0.5, 0.025)
    res = weighted_gradient_check(spec, solves)
    trend = []
    for grid, sol in zip(grids, solves):
        mask = box_mask(grid, grid.L / 2)
        best = 0.0
        for t, u in zip(sol.times, sol.values):
            M = spec.weight_at(t, grid.points())  # (d, d, N)
            g = gradient(grid, u)  # (m, d, N)
            wg = np.einsum("adN,mdN->amN", M, g)
            sup = np.max(np.sqrt(np.sum(wg[..., mask] ** 2, axis=(0, 1))))
            best = max(best, np.sqrt(t - 0.25) * sup)
        trend.append(best / float(np.max(np.abs(sol.values[0]))))
    assert res["refinement_trend"] == pytest.approx(trend, rel=1e-13)
    assert res["measured"] == res["refinement_trend"][-1] > 0
    assert res["notes"]["drift"] == pytest.approx(
        abs(trend[1] - trend[0]) / trend[0], rel=1e-12)
    assert res["bound"] is None and res["margin"] is None


def test_weighted_gradient_heat_gaussian_oracle():
    # f = erf(x/a): grad of the evolved profile at 0 is
    # 2/(sqrt(pi) sqrt(a^2 + 2t)) for unit-diffusion heat flow
    spec = example_family("heat", {"d": 1})
    a, tau = 1.0, 0.5
    grid = Grid(1, 8.0, 321, "dirichlet")
    f = sample(grid, lambda p: erf(p[0] / a))
    u = evolve(spec, grid, f, 0.0, tau, dt=2e-3).values[-1]
    # interior only: the dirichlet clamp at the faces fights the erf tails
    grad_max = np.max(np.abs(gradient(grid, u)[:, :, box_mask(grid, 2.0)]))
    oracle = 2 / (np.sqrt(np.pi) * np.sqrt(a ** 2 + 2 * tau))
    assert grad_max == pytest.approx(oracle, rel=0.10)


def test_weighted_gradient_ex72_stable():
    spec = example_family("ex72", {"d": 1, "m": 2})
    res = weighted_gradient_check(spec, _solves(
        spec, lambda p: np.stack([np.tanh(p[0]), np.cos(p[0])]),
        [Grid(1, 5.0, n, "dirichlet") for n in (201, 401)], 0.0, 0.5, 2e-3))
    assert res["verdict"] == "PASS", res
    assert np.isfinite(res["measured"])


def test_representation_decoupled_zero():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 161, "dirichlet")
    f = sample(grid, lambda p: np.sin(p[0]))
    res = representation_residual(spec,
                                  evolve(spec, grid, f, 0.0, 0.4, 5e-3),
                                  _Stepper(scalar_comparison(spec), grid))
    assert res <= 1e-12


def test_representation_residual_decays():
    spec = example_family("const_coupling",
                          {"d": 1, "C": [[0.0, 1.0], [-1.0, 0.0]]})
    grid = Grid(1, 6.0, 161, "dirichlet")
    f = sample(grid, lambda p: np.stack([np.exp(-p[0] ** 2), np.cos(p[0])]))
    scalar = _Stepper(scalar_comparison(spec), grid)
    resids = [representation_residual(
        spec, evolve(spec, grid, f, 0.0, 0.4, dt), scalar)
        for dt in (8e-3, 4e-3, 2e-3)]
    assert resids[1] <= 0.65 * resids[0]
    assert resids[2] <= 0.65 * resids[1]


def test_representation_residual_at_t_equals_s():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 5.0, 121, "dirichlet")
    f = sample(grid, lambda p: np.stack([np.cos(p[0]), np.sin(p[0])]))
    # one vanishing-width step: residual collapses with the window
    res = representation_residual(spec,
                                  evolve(spec, grid, f, 0.0, 1e-6, 1e-6),
                                  _Stepper(scalar_comparison(spec), grid))
    assert res <= 1e-6


def test_representation_time_dependent_factorises_twice_per_step(
        monkeypatch):
    # the vector march and the one two-column scalar march each need a
    # fresh LU per step of a time-dependent spec, and no more
    spec = example_family("ex71ii", {"d": 1, "m": 2, "q": "1+0.5*t",
                                     "c": "1+t"})
    assert spec.depends_on_t()
    grid = Grid(1, 6.0, 101, "neumann")
    f = sample(grid, lambda p: np.stack([np.exp(-p[0] ** 2), np.cos(p[0])]))
    factors = []
    real_splu = evolve_module.spla.splu

    def counted(M):
        factors.append(M.shape)
        return real_splu(M)

    monkeypatch.setattr(evolve_module.spla, "splu", counted)
    res = representation_residual(spec,
                                  evolve(spec, grid, f, 0.0, 0.5, 0.01),
                                  _Stepper(scalar_comparison(spec), grid))
    assert np.isfinite(res)
    assert len(factors) == 100
