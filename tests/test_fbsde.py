import numpy as np
import pytest

from kolmolab.evolve import _time_ladder
from kolmolab.fbsde import (DiffusionSpec, FbsdeError, bsde_residual, cost,
                            girsanov_weights, identify_yz, simulate_forward)
from kolmolab.grids import Grid
from helpers import constant, sample
from kolmolab.operators import example_family
from kolmolab.semilinear import mild_solve


def const_g(c):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return lambda pts: np.broadcast_to(c[:, None],
                                       (len(c), pts.shape[1])).copy()


def test_brownian_moments():
    spec = example_family("heat", {"d": 2})  # Q = I/2, so G = I
    ds = DiffusionSpec(op=spec, g=const_g([0.0]))
    tau = 0.5
    batch = simulate_forward(ds, [0.0, 0.0], 0.0, tau, 1 / 64, 20000, seed=1)
    XT = batch.X[-1]  # (d, N)
    sigma = np.sqrt(tau)
    assert np.max(np.abs(np.mean(XT, axis=1))) <= 3 * sigma / np.sqrt(20000)
    cov = np.cov(XT)
    assert np.allclose(cov, tau * np.eye(2), atol=0.05 * tau)


def test_ou_variance_oracle():
    spec = example_family("ou", {"d": 1})  # b = -x, Q = 1/2, G = 1
    ds = DiffusionSpec(op=spec, g=const_g([0.0]))
    tau, N = 0.5, 20000
    batch = simulate_forward(ds, 0.0, 0.0, tau, 1 / 256, N, seed=3)
    v = np.var(batch.X[-1, 0], ddof=1)
    expect = (1 - np.exp(-2 * tau)) / 2
    stderr = expect * np.sqrt(2 / (N - 1))
    assert abs(v - expect) <= 3 * stderr + 2e-3  # 2e-3 Euler bias budget


def test_paths_schedule_independent():
    spec = example_family("ou", {"d": 1})
    ds = DiffusionSpec(op=spec, g=const_g([0.0]))
    small = simulate_forward(ds, 0.1, 0.0, 0.25, 1 / 32, 4, seed=9)
    large = simulate_forward(ds, 0.1, 0.0, 0.25, 1 / 32, 16, seed=9)
    # one stream: path p is the same regardless of the batch size
    assert np.array_equal(small.X, large.X[..., :4])
    again = simulate_forward(ds, 0.1, 0.0, 0.25, 1 / 32, 4, seed=9)
    assert np.array_equal(small.X, again.X)
    other = simulate_forward(ds, 0.1, 0.0, 0.25, 1 / 32, 4, seed=10)
    assert not np.array_equal(small.X, other.X)


@pytest.mark.parametrize("seed", [9, -3])
def test_path_streams_are_blocks_of_one_philox_stream(seed):
    spec = example_family("heat", {"d": 2})
    ds = DiffusionSpec(op=spec, g=const_g([0.0]))
    h, steps, N = 1 / 32, 8, 5
    batch = simulate_forward(ds, [0.0, 0.0], 0.0, steps * h, h, N, seed)
    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    normals = gen.standard_normal((N, steps, 2))
    for p in range(N):
        assert np.array_equal(batch.dW[..., p], np.sqrt(h) * normals[p])


def _heat_paths(t, T, h):
    spec = example_family("heat", {"d": 1})
    return simulate_forward(DiffusionSpec(op=spec, g=const_g([0.0])), 0.0,
                            t, T, h, 4, seed=1)


@pytest.mark.parametrize("t, T, h", [
    (0.0, 0.5, 1 / 64), (0.0, 0.5, 1 / 128), (0.0, 0.5, 0.3),
    (0.0, 0.3, 0.1), (0.1, 0.5, 0.03)])
def test_paths_step_on_the_time_ladder(t, T, h):
    # the PDE marches' ladder: it ends at T exactly, and the paths step
    # by its own step (T - t)/steps, the largest step <= h that fits
    batch = _heat_paths(t, T, h)
    assert np.array_equal(batch.times, _time_ladder(t, T, h))
    assert batch.h_step == (T - t) / batch.steps
    assert batch.times[-1] == T and batch.h_step <= h


@pytest.mark.parametrize("h", [1 / 64, 1 / 128])
def test_power_of_two_steps_keep_the_times_t_plus_h_arange(h):
    # the workloads' steps: the ladder is bitwise the times t + h k
    batch = _heat_paths(0.0, 0.5, h)
    n = round(0.5 / h)
    assert np.array_equal(batch.times, 0.0 + h * np.arange(n + 1))
    assert batch.h_step == h


def test_a_step_that_does_not_divide_the_window_is_its_largest_step():
    batch = _heat_paths(0.0, 0.5, 0.3)
    assert (batch.steps, batch.h_step) == (2, 0.25)
    assert batch.times.tolist() == [0.0, 0.25, 0.5]
    # t + h k would end an ulp past T here, at 0.30000000000000004
    batch = _heat_paths(0.0, 0.3, 0.1)
    assert batch.steps == 3 and batch.times[-1] == 0.3


def test_diffusion_matrix_consistency_check():
    spec = example_family("ex71ii", {"d": 2, "m": 2})
    ds = DiffusionSpec(op=spec, g=const_g([0.0, 0.0]))
    pts = np.random.default_rng(0).uniform(-3.0, 3.0, (2, 64))
    for t in (0.0, 0.5):
        G = ds.G_at(t, pts)
        GG = 0.5 * np.einsum("abN,bcN->acN", G, G)
        assert np.max(np.abs(GG - spec.Q_at(t, pts))) <= 1e-10


def test_explosion_detection():
    from kolmolab.dsl import parse_coeff_expr
    from kolmolab.operators import OperatorSpec, matrix_of_consts
    # cubic outward drift: Euler paths blow up fast
    spec = OperatorSpec(
        1, 1, matrix_of_consts([[0.5]], 1),
        (parse_coeff_expr("x1^3", 1),),
        (matrix_of_consts([[0.0]], 1),), matrix_of_consts([[0.0]], 1))
    ds = DiffusionSpec(op=spec, g=const_g([0.0]))
    batch = simulate_forward(ds, 3.0, 0.0, 1.0, 1 / 16, 32, seed=0)
    assert len(batch.exploded) == 32
    assert np.all(np.isfinite(batch.X))


def test_feynman_kac_cross_check():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 241, "neumann")
    g = sample(grid, lambda p: np.sin(p[0]))
    tau = 0.5
    sol = mild_solve(spec, None, grid, g, 0.0, tau, dt=5e-3)
    ds = DiffusionSpec(op=spec, g=lambda p: np.sin(p)[:1])
    N = 20000
    batch = simulate_forward(ds, 0.3, 0.0, tau, 1 / 128, N, seed=5)
    yz = identify_yz(sol, ds, batch)
    mc = np.mean(yz.Y[-1, 0, yz.valid])
    se = np.std(yz.Y[-1, 0, yz.valid], ddof=1) / np.sqrt(np.sum(yz.valid))
    pde = sol.eval(0.0, np.array([[0.3]]))[0, 0]
    assert abs(mc - pde) <= 3 * se + 2e-3  # MC band + scheme-bias budget


def test_constant_terminal_data():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 121, "neumann")
    g = constant(grid, [2.5])
    sol = mild_solve(spec, None, grid, g, 0.0, 0.4, dt=1e-2)
    ds = DiffusionSpec(op=spec, g=const_g([2.5]))
    batch = simulate_forward(ds, 0.0, 0.0, 0.4, 0.4 / 16, 64, seed=2)
    yz = identify_yz(sol, ds, batch)
    assert np.max(np.abs(yz.Y - 2.5)) <= 1e-12
    assert np.max(np.abs(yz.Z)) <= 1e-12
    r, _ = bsde_residual(yz, ds, None, batch)
    assert r <= 1e-12


def test_escaping_paths_abort():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 1.0, 21, "neumann")  # tiny box: nearly every path leaves
    g = sample(grid, lambda p: p[0])
    sol = mild_solve(spec, None, grid, g, 0.0, 1.0, dt=5e-2)
    ds = DiffusionSpec(op=spec, g=lambda p: p[:1])
    batch = simulate_forward(ds, 0.0, 0.0, 1.0, 1 / 16, 128, seed=7)
    with pytest.raises(FbsdeError, match="escaped"):
        identify_yz(sol, ds, batch)


def test_bsde_residual_decays_linear_case():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 8.0, 321, "neumann")
    g = sample(grid, lambda p: np.tanh(p[0]))
    tau = 0.5
    sol = mild_solve(spec, None, grid, g, 0.0, tau, dt=2e-3)
    ds = DiffusionSpec(op=spec, g=lambda p: np.tanh(p)[:1])
    resids = []
    for steps in (16, 32, 64):
        batch = simulate_forward(ds, 0.2, 0.0, tau, tau / steps, 2000,
                                 seed=11)
        yz = identify_yz(sol, ds, batch)
        r, profile = bsde_residual(yz, ds, None, batch)
        resids.append(r)
        assert len(profile) == steps
    assert resids[1] < resids[0]
    assert resids[2] < resids[1]


def test_girsanov_trivial_and_lognormal():
    spec = example_family("heat", {"d": 1})
    ds0 = DiffusionSpec(op=spec, g=const_g([0.0]))
    tau, N = 0.5, 20000
    batch = simulate_forward(ds0, 0.0, 0.0, tau, 1 / 64, N, seed=13)
    rho0 = girsanov_weights(ds0, batch)
    assert np.all(rho0 == 1.0)  # r = 0 gives the base measure exactly

    from kolmolab.dsl import const_expr
    c = 0.8
    ds = DiffusionSpec(op=spec, g=const_g([0.0]), r1=(const_expr(c, 1),))
    rho = girsanov_weights(ds, batch)
    logr = np.log(rho)
    mu, var = -0.5 * c ** 2 * tau, c ** 2 * tau
    assert abs(np.mean(logr) - mu) <= 3 * np.sqrt(var / N)
    assert abs(np.var(logr, ddof=1) - var) <= 3 * var * np.sqrt(2 / N)
    se_rho = np.std(rho, ddof=1) / np.sqrt(N)
    assert abs(np.mean(rho) - 1.0) <= 3 * se_rho


def test_girsanov_state_feedback_mean_one():
    spec = example_family("ou", {"d": 1})
    from kolmolab.dsl import parse_coeff_expr
    ds = DiffusionSpec(op=spec, g=const_g([0.0]),
                       r1=(parse_coeff_expr("0-x1/2", 1),))
    N = 20000
    batch = simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 64, N, seed=17)
    rho = girsanov_weights(ds, batch)
    se = np.std(rho, ddof=1) / np.sqrt(N)
    assert abs(np.mean(rho) - 1.0) <= 3 * se


def test_cost_constant_and_running():
    spec = example_family("heat", {"d": 1})
    tau = 0.4
    ds = DiffusionSpec(op=spec, g=const_g([1.5]),
                       h=lambda i, p, u: np.ones(p.shape[1]))
    batch = simulate_forward(ds, 0.0, 0.0, tau, tau / 16, 4000, seed=19)
    rho = girsanov_weights(ds, batch)
    running = sum(batch.h_step * ds.h(0, x, None) for x in batch.X[:-1])
    out = cost(rho * (running + ds.g(batch.X[-1])[0]), rho)
    assert out["J"] == pytest.approx(tau + 1.5, abs=1e-10)
    assert out["stderr"] <= 1e-10
    assert not out["degenerate"]


def test_cost_of_underflowed_weights_is_degenerate():
    # every rho underflowed to 0: no effective sample, and no 0/0
    out = cost(np.zeros(50), np.zeros(50))
    assert (out["J"], out["stderr"], out["ess"]) == (0.0, 0.0, 0.0)
    assert out["degenerate"] is True


def test_cost_two_seeds_agree():
    spec = example_family("ou", {"d": 1})
    ds = DiffusionSpec(op=spec, g=lambda p: (p ** 2)[:1],
                       h=lambda i, p, u: np.abs(p[0]))
    ests = []
    for seed in (23, 29):
        batch = simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 64, 8000, seed=seed)
        rho = girsanov_weights(ds, batch)
        running = sum(batch.h_step * ds.h(0, x, None) for x in batch.X[:-1])
        ests.append(cost(rho * (running + ds.g(batch.X[-1])[0]), rho))
    gap = abs(ests[0]["J"] - ests[1]["J"])
    comb = np.hypot(ests[0]["stderr"], ests[1]["stderr"])
    assert gap <= 3 * comb
