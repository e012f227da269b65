import dataclasses

import numpy as np
import pytest

from kolmolab.dsl import const_expr, parse_coeff_expr
from kolmolab.evolve import _Stepper
from kolmolab.grids import Grid, Solution
from helpers import constant, sample
from kolmolab.operators import OperatorSpec, example_family
from kolmolab.semilinear import (Nonlinearity, _graded_ladder, mild_solve,
                                 mollify_nonlinearity, nonlinearity_from_exprs,
                                 sqrtQ_at)


def test_linear_case_matches_the_stepper_on_the_graded_ladder():
    # the autonomous ou reads the same A at every time, so the backward
    # solve is the plain forward march of the graded ladder
    spec = example_family("ou", {"d": 1})
    T, dt = 0.4, 2e-2
    grid = Grid(1, 6.0, 121, "neumann")
    g = sample(grid, lambda p: np.cos(p[0]))
    sol = mild_solve(spec, None, grid, g, 0.0, T, dt)
    ref = _Stepper(spec, grid).final(g, _graded_ladder(T, dt))
    assert np.max(np.abs(sol.values[0] - ref)) <= 1e-12


def test_zero_nonlinearity_equals_linear():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 121, "neumann")
    g = sample(grid, lambda p: np.sin(p[0]))
    nl = Nonlinearity(1, 1, lambda x, z: np.zeros((1, x.shape[1])))
    a = mild_solve(spec, None, grid, g, 0.0, 0.3, 2e-2)
    b = mild_solve(spec, nl, grid, g, 0.0, 0.3, 2e-2)
    for va, vb in zip(a.values, b.values):
        assert np.max(np.abs(va - vb)) <= 1e-12
    assert b.picard_history[-1] <= 1e-12


def test_constant_source_oracle():
    # heat flow with constant source c: spatially constant data stays
    # constant under neumann walls, so u(t) = g - (T - t) c exactly
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 5.0, 81, "neumann")
    g = constant(grid, [2.0])
    c = 0.7
    nl = nonlinearity_from_exprs(["0.7"], 1, 1)
    T = 0.5
    sol = mild_solve(spec, nl, grid, g, 0.0, T, dt=2.5e-2)
    for t, v in zip(sol.times, sol.values):
        expect = 2.0 - (T - t) * c
        assert np.max(np.abs(v - expect)) <= 1e-10


def test_terminal_condition_exact():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 81, "neumann")
    g = sample(grid, lambda p: np.tanh(p[0]))
    nl = nonlinearity_from_exprs(["z11/4"], 1, 1)
    sol = mild_solve(spec, nl, grid, g, 0.0, 0.3, 2e-2)
    assert sol.times[-1] == 0.3
    assert np.array_equal(sol.values[-1], g)


def test_picard_contraction_tanh_gradient_coupling():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 121, "neumann")
    g = sample(grid, lambda p: np.sin(p[0]))
    # psi(x, z) = tanh(z11) / 2, written with exp only
    nl = nonlinearity_from_exprs(
        ["((exp(2*z11)-1)/(exp(2*z11)+1))/2"], 1, 1)
    sol = mild_solve(spec, nl, grid, g, 0.0, 0.5, 2e-2, picard_tol=1e-10)
    h = sol.picard_history
    assert len(h) >= 2
    assert sol.converged and not np.isnan(h[-1])
    assert h[-1] <= 1e-10
    assert h[1] <= 0.5 * h[0]  # geometric contraction


def test_mollify_zero_stays_zero():
    nl = Nonlinearity(1, 1, lambda x, z: np.zeros((1, x.shape[1])))
    mol = mollify_nonlinearity(nl, 4)
    x = np.linspace(-3, 3, 11).reshape(1, -1)
    z = np.linspace(-2, 2, 11).reshape(1, 1, -1)
    assert np.max(np.abs(mol(x, z))) == 0.0


def test_mollify_linear_exact_inside_cutoff():
    # symmetric stencil averages a linear map exactly; the cutoff is 1
    # on |z| <= n, so the mollification is the identity there
    nl = nonlinearity_from_exprs(["z11"], 1, 1)
    mol = mollify_nonlinearity(nl, 10)
    x = np.zeros((1, 7))
    z = np.linspace(-8, 8, 7).reshape(1, 1, -1)
    assert np.max(np.abs(mol(x, z) - z[0])) <= 1e-12


def test_mollify_vanishes_beyond_double_cutoff():
    nl = nonlinearity_from_exprs(["z11"], 1, 1)
    mol = mollify_nonlinearity(nl, 5)
    z = np.array([[[10.5, -30.0, 100.0]]])
    x = np.zeros((1, 3))
    assert np.max(np.abs(mol(x, z))) == 0.0


def test_mollify_proximity_bounded_nonlinearity():
    # bounded Lipschitz psi: the averaged stand-in stays within the
    # stencil width of the original inside the cutoff radius
    def tanh_fn(x, z):
        return np.tanh(z[0, 0])[None, :]

    nl = Nonlinearity(1, 1, tanh_fn)
    rng = np.random.default_rng(3)
    z = rng.uniform(-5, 5, (1, 1, 256))
    x = np.zeros((1, 256))
    for n, tol in ((10, 0.11), (40, 0.026)):
        mol = mollify_nonlinearity(nl, n)
        err = np.max(np.abs(mol(x, z) - nl(x, z)))
        assert err <= tol


def test_kt_norm_constant_and_homogeneity():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 5.0, 81, "neumann")
    g = constant(grid, [3.0])
    sol = mild_solve(spec, None, grid, g, 0.0, 0.4, 2e-2)
    assert sol.kt_norm == pytest.approx(3.0, abs=1e-10)
    # linear problem: doubling the data doubles the graded norm
    g1 = sample(grid, lambda p: np.sin(p[0]))
    g2 = 2 * g1
    s1 = mild_solve(spec, None, grid, g1, 0.0, 0.4, 2e-2)
    s2 = mild_solve(spec, None, grid, g2, 0.0, 0.4, 2e-2)
    assert s2.kt_norm == pytest.approx(2 * s1.kt_norm, rel=1e-10)


def test_sqrtQ_consistency():
    spec = example_family("ex71ii", {"d": 2, "m": 2})
    pts = np.array([[0.3, -1.0, 2.0], [0.1, 0.5, -1.5]])
    R = sqrtQ_at(spec, 0.2, pts)
    Q = spec.Q_at(0.2, pts)
    RR = np.einsum("abN,bcN->acN", R, R)
    assert np.max(np.abs(RR - Q)) <= 1e-12


def test_sqrtQ_over_leading_axes_equals_one_call_per_time():
    spec = example_family("ex71ii", {"d": 2, "m": 2, "q": "1+t"})
    pts = np.array([[0.3, -1.0, 2.0], [0.1, 0.5, -1.5]])
    ts = np.array([0.2, 0.7])
    stacked = sqrtQ_at(spec, ts[:, None], pts[:, None, :])
    assert stacked.shape == (2, 2, 2, 3)
    for k, t in enumerate(ts):
        assert np.array_equal(stacked[k], sqrtQ_at(spec, t, pts))


def test_time_dependent_solve_on_a_window_matches_closed_form():
    # Q = (1 + t)/2, g = exp(-x^2/2): u(s, x) is the Gaussian of variance
    # 1 + 2A with A the integral of Q over [s, T]
    zero = const_expr(0.0, 1)
    spec = OperatorSpec(1, 1, ((parse_coeff_expr("0.5*(1+t)", 1),),),
                        (zero,), (((zero,),),), ((zero,),), (0.0, 1.0))
    grid = Grid(1, 8.0, 161, "neumann")
    g = sample(grid, lambda p: np.exp(-p[0] ** 2 / 2))
    s, T = 0.5, 1.0
    sol = mild_solve(spec, None, grid, g, s, T, 1e-2)
    assert sol.times[0] == s and sol.times[-1] == T
    A = 0.5 * ((T - s) + (T ** 2 - s ** 2) / 2)
    x = grid.points()[0]
    exact = np.exp(-x ** 2 / (2 * (1 + 2 * A))) / np.sqrt(1 + 2 * A)
    mask = grid.probe
    err = np.abs(sol.eval(s, grid.points())[0] - exact)[mask]
    # backward Euler at dt = 1e-2 gives 1.9e-3; the solve on [0, T - s]
    # would be off by 5.6e-2
    assert np.max(err) <= 5e-3


def test_mild_solve_returns_a_solution():
    # a MildSolution is a grids.Solution plus sqrtQ and the Picard record
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 61, "neumann")
    g = sample(grid, lambda p: np.cos(p[0]))
    sol = mild_solve(spec, None, grid, g, 0.0, 0.5, 5e-2)
    assert isinstance(sol, Solution)
    assert sol.values.shape == (len(sol.times), 1, grid.n_nodes)
    assert (sol.m, sol.grid.bc, sol.times[-1]) == (1, "neumann", 0.5)
    assert np.array_equal(sol.values[-1], g)
    own = {f.name for f in dataclasses.fields(sol)} - \
        {f.name for f in dataclasses.fields(Solution)}
    assert own == {"sqrtQ", "kt_norm", "picard_history", "converged",
                   "rungs"}
    assert sol.rungs == []


def test_graded_ladder_clusters_near_terminal_time():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 61, "neumann")
    g = sample(grid, lambda p: np.cos(p[0]))
    sol = mild_solve(spec, None, grid, g, 0.0, 0.5, 5e-2)
    steps = np.diff(sol.times)
    # the last steps (near t = T) shrink quadratically
    assert steps[-1] < steps[0] / 10


def test_mollifier_calls_psi_once_and_sums_like_the_stencil_loop():
    d, m, n = 2, 2, 3
    nl = nonlinearity_from_exprs(
        ["(exp(2*(z11 - z22)) - 1) / (exp(2*(z11 - z22)) + 1) * x1"
         " + z12^2 / (1 + z21^2)",
         "exp(-x2^2) * (z11 + z21) - z12 * z22"], d, m)
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, (d, 257))
    z = rng.uniform(-8.0, 8.0, (d, m, 257))

    def stencil_loop(x, z):
        # the mollifier as one psi call per stencil point
        zn = np.sqrt(np.sum(z ** 2, axis=(0, 1)))
        s = np.clip(zn / n - 1.0, 0.0, 1.0)
        cut = 1.0 - s * s * (3.0 - 2.0 * s)
        acc = nl(x, z).copy()
        count = 1
        for i in range(d):
            for k in range(m):
                for sgn in (+1.0, -1.0):
                    dz = np.zeros_like(z)
                    dz[i, k] = sgn * (1.0 / n)
                    acc += nl(x, z + dz)
                    count += 1
        return cut * acc / count

    want = stencil_loop(x, z)
    calls = []
    inner = nl.fn
    nl.fn = lambda x, z: calls.append(x.shape) or inner(x, z)
    got = mollify_nonlinearity(nl, n)(x, z)
    assert calls == [(d, (1 + 2 * d * m) * 257)]
    assert np.array_equal(got, want)


def test_mild_solve_calls_psi_once_per_picard_sweep():
    # every level's source is known from the previous iterate, so one
    # psi call on the stacked levels serves the whole sweep
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 61, "neumann")
    g = sample(grid, lambda p: np.sin(p[0]))
    calls = []

    def psi(x, z):
        calls.append(x.shape)
        return 0.5 * np.tanh(z[0])

    sol = mild_solve(spec, Nonlinearity(1, 1, psi), grid, g, 0.0, 0.5, 5e-2)
    assert sol.converged and len(sol.picard_history) > 1
    assert len(calls) == len(sol.picard_history)
    assert all(shape == (1, (len(sol.times) - 1) * grid.n_nodes)
               for shape in calls)
