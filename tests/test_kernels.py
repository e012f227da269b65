import numpy as np
import pytest
from scipy.special import erf

from kolmolab import kernels
from kolmolab.grids import Grid, GridFunction, interp_multilinear
from kolmolab.evolve import _Stepper, _time_ladder, evolve
from kolmolab.kernels import (compactness_probe, kernel_row,
                              tightness_mass, _cell_weights)
from kolmolab.operators import example_family, scalar_comparison


def gauss_cell_mass(lo, hi, mean, var):
    s = np.sqrt(2 * var)
    return 0.5 * (erf((hi - mean) / s) - erf((lo - mean) / s))


def test_cell_weights_partition_of_unity():
    # interior nodes: full dual cell inside the box, weights sum to 1
    g = Grid(1, 4.0, 41)
    W = _cell_weights(g, 8)
    assert np.allclose(W.sum(axis=0)[1:-1], 1.0)
    g2 = Grid(2, 2.0, 11)
    W2 = _cell_weights(g2, 4)
    interior = ~g2.boundary_mask()
    assert np.allclose(W2.sum(axis=0)[interior], 1.0)


def test_heat_kernel_matches_gaussian_cells():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321)
    tau = 0.5
    x0 = 0.3
    row = kernel_row(spec, grid, tau, 0.0, [x0], n_cells=16, dt=2e-3)
    edges = np.linspace(-8, 8, 17)
    expect = gauss_cell_mass(edges[:-1], edges[1:], x0, tau)
    assert np.max(np.abs(row.mass[0, 0, 0] - expect)) <= 1e-3


def test_total_mass_stochastic_kernel():
    # m=1, C=0: G(t,s) 1 = 1 so the row has total mass ~ 1 (neumann run
    # keeps every bit of mass inside the box)
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 241)
    row = kernel_row(spec, grid, 0.5, 0.0, [0.2], n_cells=12, dt=5e-3,
                     bc="neumann")
    assert np.sum(row.mass[0, 0, 0]) == pytest.approx(1.0, abs=1e-8)


def test_reconstruction_linearity():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 5.0, 201)
    tau, nc = 0.3, 10
    row = kernel_row(spec, grid, tau, 0.0, [0.1], nc, dt=5e-3, bc="neumann")
    rng = np.random.default_rng(7)
    f_cells = rng.uniform(-1, 1, (2, nc))
    # apply the kernel row to the piecewise-constant cell values
    got = np.einsum("ijc,jc->i", row.mass[0], f_cells)
    # evolve the matching mollified piecewise-constant data directly
    W = _cell_weights(grid, nc)
    f_vals = f_cells @ W
    f = GridFunction(grid, 2, f_vals, bc="neumann")
    u = evolve(spec, f, 0.0, tau, dt=5e-3)[1][-1]
    expect = interp_multilinear(grid, u.values, np.array([[0.1]]))[:, 0]
    assert np.max(np.abs(got - expect)) <= 1e-6 * np.max(np.abs(f_cells))


def test_shrinking_cell_mass_vanishes():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 6.0, 241)
    masses = []
    for nc in (8, 32):
        row = kernel_row(spec, grid, 0.4, 0.0, [0.0], nc, dt=5e-3)
        c = np.argmin(np.abs(row.centers[0] - 1.0))
        masses.append(abs(row.mass[0, 0, 0, c]))
    assert masses[1] < masses[0] / 2  # 4x smaller cells, ~4x less mass


def test_tightness_heat_tail_bound():
    from scipy.special import erfc
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321)
    tau = 0.25
    row = kernel_row(spec, grid, tau, 0.0, [0.0], 32, dt=5e-3, bc="neumann")
    R = 3.0
    out = tightness_mass(row, R)[0, 0, 0]
    tail = erfc(R / np.sqrt(2 * tau))  # two-sided gaussian tail
    assert out <= tail + 1e-3
    assert tightness_mass(row, 0.0)[0, 0, 0] == pytest.approx(
        np.sum(np.abs(row.mass[0, 0, 0])))


def test_compactness_ex71ii_pass_and_scalar_agrees():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 6.0, 241)
    xs = [[-1.0], [0.0], [1.0]]
    Rs = [1.0, 2.0, 3.0]
    vec = compactness_probe(spec, grid, 0.5, 0.0, xs, Rs, n_cells=24,
                            dt=5e-3, bc="neumann")
    sca = compactness_probe(scalar_comparison(spec), grid, 0.5, 0.0, xs, Rs,
                            n_cells=24, dt=5e-3, bc="neumann")
    assert vec["verdict"]
    assert sca["verdict"] == vec["verdict"]


def test_compactness_heat_fails_for_spreading_points():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321)
    # translation invariance: a base point far out keeps its mass far out
    xs = [[0.0], [3.5]]
    probe = compactness_probe(spec, grid, 0.5, 0.0, xs, [1.0, 2.0, 3.0],
                              n_cells=32, dt=5e-3, bc="neumann")
    assert not probe["verdict"]


def test_outward_drift_fails():
    # flip the ou drift sign: mass is pushed outward
    from kolmolab.dsl import parse_coeff_expr
    from kolmolab.operators import OperatorSpec, matrix_of_consts
    spec = OperatorSpec(
        1, 1, matrix_of_consts([[0.5]], 1),
        (parse_coeff_expr("x1*(1+normsq(x))", 1),),
        (matrix_of_consts([[0.0]], 1),), matrix_of_consts([[0.0]], 1))
    grid = Grid(1, 6.0, 241)
    probe = compactness_probe(spec, grid, 1.0, 0.0, [[0.5]], [1.0, 2.0, 3.0],
                              n_cells=24, dt=5e-3, bc="neumann")
    assert not probe["verdict"]


def test_signed_masses_for_coupled_potential():
    spec = example_family("const_coupling",
                          {"d": 1, "C": [[0.0, 1.0], [1.0, 0.0]]})
    grid = Grid(1, 6.0, 161)
    row = kernel_row(spec, grid, 0.5, 0.0, [0.0], 12, dt=5e-3, bc="neumann")
    # off-diagonal rows are genuinely nonzero here; diagonal stays positive
    assert np.max(np.abs(row.mass[0, 0, 1])) > 1e-3
    assert np.min(row.mass[0, 0, 0]) > -1e-9


@pytest.mark.parametrize("d, scalar", [(1, False), (1, True), (2, False)],
                         ids=["ex71ii d1", "scalar d1", "ex71ii d2"])
def test_row_over_points_equals_one_point_rows(d, scalar):
    # one march serves every base point; each point's masses and tail
    # masses equal those of a one-point row bitwise
    spec = example_family("ex71ii", {"d": d, "m": 2})
    spec = scalar_comparison(spec) if scalar else spec
    grid = Grid(d, 6.0, 121 if d == 1 else 31)
    nc = 24 if d == 1 else 6
    xs = [[-1.0] * d, [0.0] * d, [1.0] + [-0.5] * (d - 1)]
    row = kernel_row(spec, grid, 0.25, 0.0, xs, nc, dt=1.25e-2,
                     bc="neumann")
    assert row.mass.shape == (3, spec.m, spec.m, nc ** d)
    for p, x in enumerate(xs):
        one = kernel_row(spec, grid, 0.25, 0.0, [x], nc, dt=1.25e-2,
                         bc="neumann")
        assert np.array_equal(row.mass[p], one.mass[0])
        for R in (1.0, 2.0, 3.0):
            assert np.array_equal(tightness_mass(row, R)[p],
                                  tightness_mass(one, R)[0])


def test_compactness_probe_marches_once_for_all_points(monkeypatch):
    made = []

    class CountingStepper(kernels._Stepper):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(kernels, "_Stepper", CountingStepper)
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    probe = compactness_probe(spec, Grid(1, 6.0, 121), 0.25, 0.0,
                              [[-1.0], [0.0], [1.0]], [1.0, 2.0, 3.0],
                              n_cells=12, dt=1.25e-2, bc="neumann")
    assert len(probe["table"]) == 3
    assert len(made) == 1


# The adjoint march against the forward one it replaced: the (m, N,
# m*cells) indicator batch marched forward once, read at each base point.

def _forward_masses(spec, grid, t, s, xs, n_cells, dt, bc):
    m, N = spec.m, grid.n_nodes
    x = np.asarray(xs, dtype=float).reshape(-1, spec.d).T
    W = _cell_weights(grid, n_cells)
    nc = W.shape[0]
    F = np.kron(np.eye(m), W.T).reshape(m, N, m * nc)
    out = _Stepper(spec, grid, bc).final(F, _time_ladder(s, t, dt))
    vals = interp_multilinear(grid, np.moveaxis(out, 1, 2).reshape(-1, N), x)
    return np.moveaxis(vals.reshape(m, m, nc, -1), 3, 0)


_EX71II_T = {"q": "1+0.5*t", "c": "1+t"}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("kind", ["vector", "scalar", "time_dependent"])
def test_adjoint_masses_match_forward_march(d, bc, kind):
    params = {"d": d, "m": 2, **(_EX71II_T if kind == "time_dependent"
                                 else {})}
    spec = example_family("ex71ii", params)
    spec = scalar_comparison(spec) if kind == "scalar" else spec
    assert spec.depends_on_t() == (kind == "time_dependent")
    s, t = (0.1, 0.5) if kind == "time_dependent" else (0.0, 0.25)
    grid = Grid(d, 6.0, 121 if d == 1 else 25)
    nc = 12 if d == 1 else 4
    xs = [[-1.0] * d, [0.5] * d, [1.2] + [-0.7] * (d - 1)]
    row = kernel_row(spec, grid, t, s, xs, nc, dt=2.5e-2, bc=bc)
    want = _forward_masses(spec, grid, t, s, xs, nc, 2.5e-2, bc)
    assert row.mass.shape == want.shape == (3, spec.m, spec.m, nc ** d)
    scale = np.max(np.abs(want))
    assert scale > 0.1
    assert np.max(np.abs(row.mass - want)) <= 1e-12 * scale


@pytest.mark.parametrize("time_dependent", [False, True])
@pytest.mark.parametrize("n_cells", [4, 24])
def test_adjoint_march_carries_m_columns_per_point(monkeypatch, n_cells,
                                                   time_dependent):
    # every step carries m*points columns, whatever the number of cells;
    # one step per ladder step, in descending t, and the usual LU count
    from kolmolab import evolve as evolve_mod
    steps, factors = [], []
    real_step, real_splu = kernels._Stepper.step, evolve_mod.spla.splu

    def recorded(self, values, t_new, dt, adjoint=False):
        steps.append((values.shape[-1], t_new, adjoint))
        return real_step(self, values, t_new, dt, adjoint=adjoint)

    def counted(M):
        factors.append(M.shape)
        return real_splu(M)

    monkeypatch.setattr(kernels._Stepper, "step", recorded)
    monkeypatch.setattr(evolve_mod.spla, "splu", counted)
    spec = example_family("ex71ii", {"d": 1, "m": 2, **(
        _EX71II_T if time_dependent else {})})
    xs = [[-1.0], [0.0], [1.0]]
    kernel_row(spec, Grid(1, 6.0, 61), 0.5, 0.1, xs, n_cells, dt=0.05,
               bc="neumann")
    times = _time_ladder(0.1, 0.5, 0.05)
    assert [c for c, _, _ in steps] == [2 * len(xs)] * (len(times) - 1)
    assert [t for _, t, _ in steps] == list(times[:0:-1])
    assert all(adjoint for _, _, adjoint in steps)
    assert len(factors) == (len(times) - 1 if time_dependent else 1)
