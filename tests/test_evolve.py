import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kolmolab.evolve import (EvolveError, _Stepper, _time_ladder,
                             assemble_operator, evolve)
from kolmolab.grids import Grid, GridFunction, Solution
from kolmolab.operators import (example_family, matrix_of_consts,
                                OperatorSpec, scalar_comparison)
from kolmolab.dsl import const_expr, parse_coeff_expr
from helpers import box_mask, constant


def heat_oracle(x, tau):
    # G(tau) exp(-x^2/2) for Q = 1/2 (unit diffusion coefficient in the
    # probabilist normalization): variance grows by tau
    return (1 + tau) ** -0.5 * np.exp(-x ** 2 / (2 * (1 + tau)))


def test_heat_matches_gaussian_oracle():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321)
    f = GridFunction.from_callable(grid, 1, lambda p: np.exp(-p[0] ** 2 / 2))
    u = evolve(spec, f, 0.0, 0.5, dt=2e-3).values[-1]
    mask = box_mask(grid, 2.0)
    err = np.max(np.abs(u[0, mask] - heat_oracle(grid.points()[0, mask],
                                                 0.5)))
    assert err <= 1e-3


def test_constant_preserved_neumann():
    spec = example_family("ex71i", {"d": 1, "m": 2, "r": 0.0, "p": 1.0,
                                    "Chat": np.zeros((2, 2))})
    grid = Grid(1, 4.0, 161)
    f = constant(grid, [1.0, 1.0], bc="neumann")
    u = evolve(spec, f, 0.0, 0.3, dt=5e-3).values[-1]
    assert np.max(np.abs(u - 1.0)) <= 1e-8


def test_matrix_exponential_oracle():
    C = np.array([[0.0, 1.0], [-0.5, 0.2]])
    spec = example_family("const_coupling", {"d": 1, "C": C})
    grid = Grid(1, 4.0, 81)
    v = np.array([1.0, 2.0])
    f = constant(grid, v, bc="neumann")
    tau = 0.4
    u = evolve(spec, f, 0.0, tau, dt=1e-4).values[-1]
    expect = scipy.linalg.expm(tau * C) @ v
    mask = grid.probe
    err = np.max(np.abs(u[:, mask] - expect[:, None]))
    assert err <= 1e-3  # first order in dt; dt=1e-4 gives ~4e-5 here


def test_ou_first_moment():
    # OU with Q=1/2, b=-x: u(t,x) = E[f(e^{-t}x + sqrt((1-e^{-2t})/2) Z)]
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 8.0, 321)
    f = GridFunction.from_callable(grid, 1, lambda p: p[0])
    tau = 0.5
    u = evolve(spec, f, 0.0, tau, dt=2e-3).values[-1]
    mask = box_mask(grid, 2.0)
    expect = np.exp(-tau) * grid.points()[0, mask]
    assert np.max(np.abs(u[0, mask] - expect)) <= 1e-3


def test_ou_gaussian_variance():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 8.0, 321)
    f = GridFunction.from_callable(grid, 1, lambda p: p[0] ** 2)
    tau = 0.4
    u = evolve(spec, f, 0.0, tau, dt=1e-3).values[-1]
    x = grid.points()[0]
    mask = box_mask(grid, 1.5)
    var = (1 - np.exp(-2 * tau)) / 2
    expect = np.exp(-2 * tau) * x[mask] ** 2 + var
    assert np.max(np.abs(u[0, mask] - expect)) <= 2e-3


def test_positivity_scalar():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 161)
    rng = np.random.default_rng(5)
    f = GridFunction.from_callable(
        grid, 1, lambda p: np.maximum(np.sin(3 * p[0]), 0.0))
    u = evolve(spec, f, 0.0, 0.2, dt=5e-3).values[-1]
    assert np.min(u) >= -1e-9


def test_2d_heat_against_1d_product():
    spec = example_family("heat", {"d": 2})
    grid = Grid(2, 6.0, 121)
    f = GridFunction.from_callable(
        grid, 1, lambda p: np.exp(-(p[0] ** 2 + p[1] ** 2) / 2))
    u = evolve(spec, f, 0.0, 0.3, dt=5e-3).values[-1]
    pts = grid.points()
    mask = box_mask(grid, 1.5)
    expect = heat_oracle(pts[0], 0.3) * heat_oracle(pts[1], 0.3)
    assert np.max(np.abs(u[0, mask] - expect[mask])) <= 2e-3


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
    u = evolve(spec, f, 0.0, tau, dt=5e-3).values[-1]
    S = np.eye(2) + 2 * tau * Q
    Sinv = np.linalg.inv(S)
    pts = grid.points()
    quad = (Sinv[0, 0] * pts[0] ** 2 + 2 * Sinv[0, 1] * pts[0] * pts[1]
            + Sinv[1, 1] * pts[1] ** 2)
    expect = np.exp(-quad / 2) / np.sqrt(np.linalg.det(S))
    mask = box_mask(grid, 1.5)
    assert np.max(np.abs(u[0, mask] - expect[mask])) <= 3e-3


def _composition_gap(spec, f, s, r, t, dt, probe_L):
    """Sup of G(t,r)G(r,s)f - G(t,s)f on the probe box (evolution law)."""
    mid = GridFunction(f.grid, f.m, evolve(spec, f, s, r, dt).values[-1],
                       bc=f.bc)
    two = evolve(spec, mid, r, t, dt).values[-1]
    one = evolve(spec, f, s, t, dt).values[-1]
    mask = box_mask(f.grid, probe_L)
    return float(np.max(np.abs(two[:, mask] - one[:, mask])))


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
    f = constant(grid, [1.0, 1.0], bc="neumann")
    with pytest.raises(EvolveError):
        # dt*C = 1.5 makes each implicit step multiply by -2; the
        # iteration diverges geometrically and must trip the guard
        evolve(spec, f, 0.0, 100 * 1.5e-9, dt=1.5e-9)


def test_evolve_path_and_batch_agree():
    # evolve's levels are f and every level of one march, the batch two
    # columns at once
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 121)
    f = GridFunction.from_callable(grid, 1, lambda p: np.tanh(p[0]))
    times = _time_ladder(0.0, 0.3, 5e-2)
    path = list(_Stepper(spec, grid, "dirichlet").march(f.values, times))
    sol = evolve(spec, f, 0.0, 0.3, dt=5e-2)
    assert np.array_equal(sol.times, times)
    assert len(path) == len(sol.values) - 1 == len(times) - 1
    assert np.array_equal(sol.values[0], f.values)
    assert all(np.array_equal(level, want)
               for level, want in zip(sol.values[1:], path))
    F = np.stack([f.values, 2 * f.values], axis=2).reshape(1, grid.n_nodes, 2)
    out = _Stepper(spec, grid, "dirichlet").final(F, times)
    assert np.allclose(out[..., 0] * 2, out[..., 1], atol=1e-12)
    assert np.allclose(out[..., 0], sol.values[-1], atol=1e-12)


def test_evolve_returns_one_solution_of_every_level():
    # values (levels, m, N) from f on _time_ladder(s, t, dt), under f's bc
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 4.0, 41)
    f = GridFunction.from_callable(
        grid, 2, lambda p: np.stack([np.cos(p[0]), np.tanh(p[0])]),
        bc="neumann")
    sol = evolve(spec, f, 0.1, 0.3, dt=0.03)
    times = _time_ladder(0.1, 0.3, 0.03)
    assert type(sol) is Solution
    assert np.array_equal(sol.times, times)
    assert sol.values.shape == (len(times), 2, grid.n_nodes)
    assert sol.m == 2 and sol.grid == grid and sol.bc == "neumann"
    assert np.array_equal(sol.values[0], f.values)
    assert np.array_equal(sol.u_at(0.3), sol.values[-1])


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
    u = evolve(spec, f, 0.0, 0.5, dt=1e-2).values[-1]
    assert np.max(np.abs(u)) <= 1.0 + 1e-6  # no oscillation overshoot


def test_dirichlet_boundary_exactly_zero():
    spec = example_family("heat", {"d": 2})
    grid = Grid(2, 3.0, 41)
    f = constant(grid, [1.0])
    u = evolve(spec, f, 0.0, 0.1, dt=1e-2).values[-1]
    assert np.max(np.abs(u[:, grid.boundary_mask()])) == 0.0


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


@pytest.mark.parametrize("d", [1, 2])
def test_adjoint_step_is_the_transpose(d):
    # <step(u), v> = <u, step(v, adjoint)>: the mask sits before the
    # solve forward and after the transposed solve
    spec = example_family("ex71ii", {"d": d, "m": 2})
    grid = Grid(d, 3.0, 21 if d == 1 else 9)
    stepper = _Stepper(spec, grid, "dirichlet")
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((2, 2, grid.n_nodes, 3))
    Gu = stepper.step(u, 0.1, 0.05)
    Gtv = stepper.step(v, 0.1, 0.05, adjoint=True)
    assert Gu.shape == Gtv.shape == u.shape
    lhs = np.einsum("mnk,mnk->k", Gu, v)
    rhs = np.einsum("mnk,mnk->k", u, Gtv)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))
    bnd = np.tile(grid.boundary_mask(), 2)
    assert np.all(Gtv.reshape(-1, 3)[bnd] == 0.0)


def test_adjoint_march_is_the_transpose_of_the_march():
    # <G u, v> = <u, G^T v> over a ladder of unequal steps of a
    # time-dependent operator holds only if the adjoint march takes the
    # last step first
    spec = example_family("ex71ii", {"d": 1, "m": 2, "c": "1+t"})
    grid = Grid(1, 3.0, 21)
    times = np.array([0.0, 0.05, 0.15, 0.3])
    stepper = _Stepper(spec, grid, "dirichlet")
    u, v = np.random.default_rng(7).standard_normal((2, 2, grid.n_nodes, 3))
    Gu = stepper.final(u, times)
    Gtv = stepper.final(v, times, adjoint=True)
    lhs = np.einsum("mnk,mnk->k", Gu, v)
    rhs = np.einsum("mnk,mnk->k", u, Gtv)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


@pytest.mark.parametrize("bad", [1e13, np.inf, np.nan])
def test_blowup_guard_on_the_adjoint_step(bad):
    # and on the forward step, which meets the same one-reduction test
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 2.0, 21)
    values = np.ones((1, grid.n_nodes, 2))
    values[0, 10, 1] = bad
    for adjoint in (True, False):
        with pytest.raises(EvolveError):
            _Stepper(spec, grid, "neumann").step(values, 0.1, 0.05,
                                                 adjoint=adjoint)


def _reference_assemble(spec, grid, t, bc):
    """The operator from hand-written triplet lists, one append per
    stencil entry, in the order assemble_operator must keep: coo -> csr
    sums duplicate entries in emission order."""
    d, m, n, h = spec.d, spec.m, grid.n, grid.h
    N = grid.n_nodes
    pts = grid.points()
    ax_idx = np.indices((n,) * d).reshape(d, N)
    strides = [n ** (d - 1 - j) for j in range(d)]
    bnd = grid.boundary_mask()

    Qv = spec.Q_at(t, pts)
    bv = spec.b_at(t, pts)
    Btv = spec.Btilde_at(t, pts)
    Cv = spec.C_at(t, pts)
    Qeig = np.linalg.eigvalsh(np.moveaxis(Qv, 2, 0))[:, 0]
    lam = np.maximum(Qeig, 1e-300)

    all_nodes = np.arange(N)

    def reflect(i):
        return np.where(i < 0, -i, np.where(i > n - 1, 2 * (n - 1) - i, i))

    def shifted(p, j, delta):
        i = ax_idx[j, p] + delta
        return p + (reflect(i) - ax_idx[j, p]) * strides[j]

    s_rows, s_cols, s_vals = [], [], []

    def sadd(r, c, v):
        s_rows.append(r)
        s_cols.append(c)
        s_vals.append(v)

    for j in range(d):
        ij = ax_idx[j]
        qjj = Qv[j, j]
        interior = (ij > 0) & (ij < n - 1)
        p = all_nodes[interior]
        sadd(p, p - strides[j], qjj[p] / h ** 2)
        sadd(p, p, -2 * qjj[p] / h ** 2)
        sadd(p, p + strides[j], qjj[p] / h ** 2)
        if bc == "neumann":
            for face, sgn in ((0, 1), (n - 1, -1)):
                p = all_nodes[ij == face]
                sadd(p, p, -2 * qjj[p] / h ** 2)
                sadd(p, p + sgn * strides[j], 2 * qjj[p] / h ** 2)

    if d == 2:
        q12 = Qv[0, 1]
        nz = np.abs(q12) > 0
        if np.any(nz):
            p = all_nodes[nz]
            for d1 in (+1, -1):
                for d2 in (+1, -1):
                    tgt = shifted(shifted(p, 0, d1), 1, d2)
                    sadd(p, tgt, 2 * q12[p] * d1 * d2 / (4 * h ** 2))

    for j in range(d):
        ij = ax_idx[j]
        bj = bv[j]
        peclet = np.abs(bj) * h / lam
        up = peclet > 2.0
        fwd = up & (bj > 0) & (ij <= n - 3)
        bwd = up & (bj < 0) & (ij >= 2)
        cen = ~(fwd | bwd) & (ij > 0) & (ij < n - 1)
        p = all_nodes[cen]
        sadd(p, p + strides[j], bj[p] / (2 * h))
        sadd(p, p - strides[j], -bj[p] / (2 * h))
        p = all_nodes[fwd]
        sadd(p, p, -3 * bj[p] / (2 * h))
        sadd(p, p + strides[j], 4 * bj[p] / (2 * h))
        sadd(p, p + 2 * strides[j], -bj[p] / (2 * h))
        p = all_nodes[bwd]
        sadd(p, p, 3 * bj[p] / (2 * h))
        sadd(p, p - strides[j], -4 * bj[p] / (2 * h))
        sadd(p, p - 2 * strides[j], bj[p] / (2 * h))

    s_rows = np.concatenate(s_rows)
    s_cols = np.concatenate(s_cols)
    s_vals = np.concatenate(s_vals)

    c_rows, c_cols, c_vals = [], [], []
    for j in range(d):
        ij = ax_idx[j]
        interior = (ij > 0) & (ij < n - 1)
        p = all_nodes[interior]
        for k in range(m):
            for l in range(m):
                coeff = Btv[j, k, l]
                if not np.any(coeff):
                    continue
                c_rows.append(k * N + p)
                c_cols.append(l * N + p + strides[j])
                c_vals.append(coeff[p] / (2 * h))
                c_rows.append(k * N + p)
                c_cols.append(l * N + p - strides[j])
                c_vals.append(-coeff[p] / (2 * h))
    for k in range(m):
        for l in range(m):
            coeff = Cv[k, l]
            if not np.any(coeff):
                continue
            c_rows.append(k * N + all_nodes)
            c_cols.append(l * N + all_nodes)
            c_vals.append(coeff)

    rows = np.concatenate([s_rows + k * N for k in range(m)] + c_rows)
    cols = np.concatenate([s_cols + k * N for k in range(m)] + c_cols)
    vals = np.concatenate([s_vals] * m + c_vals)
    if bc == "dirichlet":
        keep = ~bnd[rows % N]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return sp.coo_matrix((vals, (rows, cols)), shape=(m * N, m * N)).tocsr()


def _cross_spec():
    """d = 2, m = 2 with Q12 = 0.2 x2 (zero on the row x2 = 0), drift
    strong enough to upwind both ways, and partly zero Btilde and C."""
    e = lambda text: parse_coeff_expr(text, 2)
    q12 = e("0.2*x2")
    return OperatorSpec(
        2, 2, ((e("1"), q12), (q12, e("1+0.1*x1"))),
        (e("-3*x1"), e("5*x2")),
        tuple(matrix_of_consts(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)
              for _ in range(2)),
        matrix_of_consts(np.array([[1.0, 0.0], [0.5, 0.0]]), 2))


def _assembly_cases():
    """Each preset with its scalar comparison, the time-dependent ex71ii,
    at d = 1, 2; then the Q12 spec."""
    for d in (1, 2):
        grid = Grid(d, 4.0, 9 if d == 1 else 5)
        for name in ("heat", "ou", "const_coupling", "ex71i", "ex71ii",
                     "ex72"):
            spec = example_family(name, {"d": d})
            for variant in (spec, scalar_comparison(spec)):
                yield variant, grid
        yield example_family("ex71ii", {"d": d, "q": "1+0.5*t",
                                        "c": "1+t"}), grid
    yield _cross_spec(), Grid(2, 2.0, 5)


def test_assembly_byte_equal_to_the_triplet_reference():
    # byte-equal CSR arrays: same entries, summed in the same order
    n_cases = 0
    for spec, grid in _assembly_cases():
        for bc in ("dirichlet", "neumann"):
            for t in (0.0, 0.3):
                got = assemble_operator(spec, grid, t, bc)
                want = _reference_assemble(spec, grid, t, bc)
                for attr in ("indptr", "indices", "data"):
                    a, b = getattr(got, attr), getattr(want, attr)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                        (spec.name, grid.d, bc, t, attr)
                n_cases += 1
    assert n_cases == 4 * (2 * (6 * 2 + 1) + 1)


def _lu_case(name):
    ex71ii = example_family("ex71ii", {"d": 2, "m": 2})
    return {"ex71ii": ex71ii, "scalar": scalar_comparison(ex71ii),
            "ex72": example_family("ex72", {"d": 2})}[name]


def _solve_against(spec, grid, bc, dt=0.005):
    """The stepper's LU of M = I - dt*A, M itself, one step's
    right-hand side P b and the step's output M^{-1} P b."""
    stepper = _Stepper(spec, grid, bc)
    b = np.random.default_rng(3).standard_normal((spec.m, grid.n_nodes, 2))
    out = stepper.step(b, 0.1, dt).reshape(stepper.mask.size, -1)
    M = (sp.identity(stepper._A.shape[0], format="csr")
         - dt * stepper._A).tocsc()
    Pb = np.where(stepper.mask[:, None], 0.0, b.reshape(out.shape))
    return stepper.factor(0.1, dt), M, Pb, out


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("name, fill", [("ex71ii", 0.65), ("scalar", 0.65),
                                        ("ex72", 1.0)])
def test_d2_lu_ordering_cuts_fill_and_keeps_the_residual(name, fill, bc):
    # the d = 2 ordering fills at most `fill` times COLAMD's LU; plain
    # MMD_AT_PLUS_A, without diagonal pivots, fills about 2x COLAMD's
    # on ex72 here
    lu, M, Pb, out = _solve_against(_lu_case(name), Grid(2, 3.0, 41), bc)
    assert lu.nnz <= fill * spla.splu(M).nnz
    residual = np.linalg.norm(M @ out - Pb) / np.linalg.norm(Pb)
    assert residual <= 1e-12


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_d1_lu_keeps_colamd(bc):
    # d = 1 factorises as spla.splu(M) does, so every solve is unchanged
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    _, M, Pb, out = _solve_against(spec, Grid(1, 6.0, 201), bc)
    assert out.tobytes() == spla.splu(M).solve(Pb).tobytes()
