import numpy as np
import pytest
import scipy.linalg

from kolmolab.evolve import EvolveError, _Stepper, _time_ladder, evolve
from kolmolab.grids import Grid, GridFunction
from kolmolab.operators import example_family, matrix_of_consts, OperatorSpec
from kolmolab.dsl import const_expr


def heat_oracle(x, tau):
    # G(tau) exp(-x^2/2) for Q = 1/2 (unit diffusion coefficient in the
    # probabilist normalization): variance grows by tau
    return (1 + tau) ** -0.5 * np.exp(-x ** 2 / (2 * (1 + tau)))


def test_heat_matches_gaussian_oracle():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321)
    f = GridFunction.from_callable(grid, 1, lambda p: np.exp(-p[0] ** 2 / 2))
    u = evolve(spec, f, 0.0, 0.5, dt=2e-3, bc="dirichlet")
    mask = grid.interior_mask(2.0)
    err = np.max(np.abs(u.values[0, mask] - heat_oracle(grid.points()[0, mask],
                                                        0.5)))
    assert err <= 1e-3


def test_constant_preserved_neumann():
    spec = example_family("ex71i", {"d": 1, "m": 2, "r": 0.0, "p": 1.0,
                                    "Chat": np.zeros((2, 2))})
    grid = Grid(1, 4.0, 161)
    f = GridFunction.constant(grid, [1.0, 1.0], bc="neumann")
    u = evolve(spec, f, 0.0, 0.3, dt=5e-3)
    assert np.max(np.abs(u.values - 1.0)) <= 1e-8


def test_matrix_exponential_oracle():
    C = np.array([[0.0, 1.0], [-0.5, 0.2]])
    spec = example_family("const_coupling", {"d": 1, "C": C})
    grid = Grid(1, 4.0, 81)
    v = np.array([1.0, 2.0])
    f = GridFunction.constant(grid, v, bc="neumann")
    tau = 0.4
    u = evolve(spec, f, 0.0, tau, dt=1e-4)
    expect = scipy.linalg.expm(tau * C) @ v
    mask = grid.interior_mask(2.0)
    err = np.max(np.abs(u.values[:, mask] - expect[:, None]))
    assert err <= 1e-3  # first order in dt; dt=1e-4 gives ~4e-5 here


def test_ou_first_moment():
    # OU with Q=1/2, b=-x: u(t,x) = E[f(e^{-t}x + sqrt((1-e^{-2t})/2) Z)]
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 8.0, 321)
    f = GridFunction.from_callable(grid, 1, lambda p: p[0])
    tau = 0.5
    u = evolve(spec, f, 0.0, tau, dt=2e-3, bc="dirichlet")
    mask = grid.interior_mask(2.0)
    expect = np.exp(-tau) * grid.points()[0, mask]
    assert np.max(np.abs(u.values[0, mask] - expect)) <= 1e-3


def test_ou_gaussian_variance():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 8.0, 321)
    f = GridFunction.from_callable(grid, 1, lambda p: p[0] ** 2)
    tau = 0.4
    u = evolve(spec, f, 0.0, tau, dt=1e-3, bc="dirichlet")
    x = grid.points()[0]
    mask = grid.interior_mask(1.5)
    var = (1 - np.exp(-2 * tau)) / 2
    expect = np.exp(-2 * tau) * x[mask] ** 2 + var
    assert np.max(np.abs(u.values[0, mask] - expect)) <= 2e-3


def test_positivity_scalar():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 161)
    rng = np.random.default_rng(5)
    f = GridFunction.from_callable(
        grid, 1, lambda p: np.maximum(np.sin(3 * p[0]), 0.0))
    u = evolve(spec, f, 0.0, 0.2, dt=5e-3, bc="dirichlet")
    assert np.min(u.values) >= -1e-9


def test_2d_heat_against_1d_product():
    spec = example_family("heat", {"d": 2})
    grid = Grid(2, 6.0, 121)
    f = GridFunction.from_callable(
        grid, 1, lambda p: np.exp(-(p[0] ** 2 + p[1] ** 2) / 2))
    u = evolve(spec, f, 0.0, 0.3, dt=5e-3, bc="dirichlet")
    pts = grid.points()
    mask = grid.interior_mask(1.5)
    expect = heat_oracle(pts[0], 0.3) * heat_oracle(pts[1], 0.3)
    assert np.max(np.abs(u.values[0, mask] - expect[mask])) <= 2e-3


def test_cross_diffusion_term():
    # Q with off-diagonal: compare against rotated-coordinates closed form
    # for f = exp(-x1^2/2 - x2^2/2) and Q = [[1, .5], [.5, 1]]/2:
    # u solves u_t = sum Q_ij D_ij u; with Gaussian initial data the
    # solution stays Gaussian with covariance S(t) = S0 + 2Qt.
    d = 2
    Q = np.array([[0.5, 0.25], [0.25, 0.5]])
    spec = OperatorSpec(
        d, 1, matrix_of_consts(Q, d),
        (const_expr(0.0, d), const_expr(0.0, d)),
        tuple(matrix_of_consts(np.zeros((1, 1)), d) for _ in range(d)),
        matrix_of_consts(np.zeros((1, 1)), d))
    grid = Grid(2, 7.0, 141)
    f = GridFunction.from_callable(
        grid, 1, lambda p: np.exp(-(p[0] ** 2 + p[1] ** 2) / 2))
    tau = 0.4
    u = evolve(spec, f, 0.0, tau, dt=5e-3, bc="dirichlet")
    S = np.eye(2) + 2 * tau * Q
    Sinv = np.linalg.inv(S)
    pts = grid.points()
    quad = (Sinv[0, 0] * pts[0] ** 2 + 2 * Sinv[0, 1] * pts[0] * pts[1]
            + Sinv[1, 1] * pts[1] ** 2)
    expect = np.exp(-quad / 2) / np.sqrt(np.linalg.det(S))
    mask = grid.interior_mask(1.5)
    assert np.max(np.abs(u.values[0, mask] - expect[mask])) <= 3e-3


def _composition_gap(spec, f, s, r, t, dt, probe_L):
    """Sup of G(t,r)G(r,s)f - G(t,s)f on the probe box (evolution law)."""
    two = evolve(spec, evolve(spec, f, s, r, dt), r, t, dt)
    one = evolve(spec, f, s, t, dt)
    mask = f.grid.interior_mask(probe_L)
    return float(np.max(np.abs(two.values[:, mask] - one.values[:, mask])))


def test_compose_identity_and_consistency():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 161)
    f = GridFunction.from_callable(grid, 1, lambda p: np.exp(-p[0] ** 2 / 2))
    disc = _composition_gap(spec, f, 0.0, 0.25, 0.5, 2e-3, probe_L=2.0)
    assert disc <= 5e-4


def test_compose_refinement():
    spec = example_family("ex71i", {"d": 1, "m": 2, "r": 1.0, "p": 3.0})
    grid = Grid(1, 4.0, 161)
    f = GridFunction.from_callable(
        grid, 2, lambda p: np.stack([np.exp(-p[0] ** 2), np.cos(p[0])]))
    d1 = _composition_gap(spec, f, 0.0, 0.1, 0.2, 4e-3, probe_L=1.0)
    d2 = _composition_gap(spec, f, 0.0, 0.1, 0.2, 2e-3, probe_L=1.0)
    # aligned ladders compose exactly; both defects sit at machine level
    assert d2 <= max(d1, 1e-12)


def test_blowup_guard():
    # backward Euler with a positive potential of enormous size still
    # solves, but forcing dt*potential ~ 1 makes the solve singular or
    # huge; check the guard trips rather than returning garbage
    spec = example_family("const_coupling", {"d": 1, "C": [[1e9, 0], [0, 1e9]]})
    grid = Grid(1, 2.0, 21)
    f = GridFunction.constant(grid, [1.0, 1.0], bc="neumann")
    with pytest.raises(EvolveError):
        # dt*C = 1.5 makes each implicit step multiply by -2; the
        # iteration diverges geometrically and must trip the guard
        evolve(spec, f, 0.0, 100 * 1.5e-9, dt=1.5e-9)


def test_evolve_path_and_batch_agree():
    # the path is every level of one march, the batch two columns at once
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 121)
    f = GridFunction.from_callable(grid, 1, lambda p: np.tanh(p[0]))
    times = _time_ladder(0.0, 0.3, 5e-2)
    path = list(_Stepper(spec, grid, "dirichlet").march(f.values, times))
    u = evolve(spec, f, 0.0, 0.3, dt=5e-2)
    assert len(path) == len(times) - 1
    assert np.allclose(path[-1], u.values)
    F = np.stack([f.values, 2 * f.values], axis=2).reshape(1, grid.n_nodes, 2)
    out = _Stepper(spec, grid, "dirichlet").final(F, times)
    assert np.allclose(out[..., 0] * 2, out[..., 1], atol=1e-12)
    assert np.allclose(out[..., 0], u.values, atol=1e-12)


def test_march_source_adds_step_times_source():
    # A annihilates constants under neumann when C = 0, so each step
    # of a constant datum adds exactly step * source[l - 1]
    spec = example_family("const_coupling", {"d": 1, "C": [[0.0]]})
    grid = Grid(1, 2.0, 21)
    times = np.array([0.0, 0.1, 0.3])
    levels = list(_Stepper(spec, grid, "neumann").march(
        np.ones((1, grid.n_nodes)), times,
        source=np.stack([np.full((1, grid.n_nodes), float(l))
                         for l in (1, 2)])))
    assert np.allclose(levels[0], 1.0 + 0.1 * 1.0)
    assert np.allclose(levels[1], 1.1 + 0.2 * 2.0)


def test_upwind_strong_drift_stable():
    # ex71i drift at |x|=4 with r=1 is ~ -68: strongly drift-dominated
    spec = example_family("ex71i", {"d": 1, "m": 1, "r": 1.0, "p": 3.0})
    grid = Grid(1, 4.0, 81)  # h = 0.1, peclet >> 2 near the edge
    f = GridFunction.from_callable(grid, 1, lambda p: np.cos(p[0]))
    u = evolve(spec, f, 0.0, 0.5, dt=1e-2, bc="dirichlet")
    assert np.max(np.abs(u.values)) <= 1.0 + 1e-6  # no oscillation overshoot


def test_dirichlet_boundary_exactly_zero():
    spec = example_family("heat", {"d": 2})
    grid = Grid(2, 3.0, 41)
    f = GridFunction.constant(grid, [1.0])
    u = evolve(spec, f, 0.0, 0.1, dt=1e-2, bc="dirichlet")
    assert np.max(np.abs(u.values[:, grid.boundary_mask()])) == 0.0


def test_time_dependent_stepper_refactors_every_step(monkeypatch):
    # a time-dependent spec needs a fresh LU at every step; two marches
    # through one stepper must give the levels of fresh steppers bitwise
    from kolmolab import evolve as evolve_mod
    from kolmolab.semilinear import _graded_ladder
    spec = example_family("ex71i", {"d": 1, "m": 1, "r": 0.0, "p": 1.0,
                                    "g": "1+t"})
    assert spec.depends_on_t()
    grid = Grid(1, 4.0, 41)
    times = _graded_ladder(0.2, 0.05)
    data = [GridFunction.from_callable(grid, 1, fn).values
            for fn in (lambda p: np.cos(p[0]), lambda p: np.tanh(p[0]))]
    factors = []
    real_splu = evolve_mod.spla.splu

    def counted(M):
        factors.append(M.shape)
        return real_splu(M)

    monkeypatch.setattr(evolve_mod.spla, "splu", counted)
    shared = _Stepper(spec, grid, "neumann")
    for values in data:
        got = list(shared.march(values, times))
        want = list(_Stepper(spec, grid, "neumann").march(values, times))
        assert len(got) == len(times) - 1
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    assert len(factors) == 4 * (len(times) - 1)
