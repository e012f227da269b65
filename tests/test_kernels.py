import numpy as np
import pytest
from scipy.special import erf

from kolmolab.grids import Grid, GridFunction, interp_multilinear
from kolmolab.evolve import evolve
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
    assert np.max(np.abs(row.mass[0, 0] - expect)) <= 1e-3


def test_total_mass_stochastic_kernel():
    # m=1, C=0: G(t,s) 1 = 1 so the row has total mass ~ 1 (neumann run
    # keeps every bit of mass inside the box)
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 241)
    row = kernel_row(spec, grid, 0.5, 0.0, [0.2], n_cells=12, dt=5e-3,
                     bc="neumann")
    assert np.sum(row.mass[0, 0]) == pytest.approx(1.0, abs=1e-8)


def test_reconstruction_linearity():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 5.0, 201)
    tau, nc = 0.3, 10
    row = kernel_row(spec, grid, tau, 0.0, [0.1], nc, dt=5e-3, bc="neumann")
    rng = np.random.default_rng(7)
    f_cells = rng.uniform(-1, 1, (2, nc))
    # apply the kernel row to the piecewise-constant cell values
    got = np.einsum("ijc,jc->i", row.mass, f_cells)
    # evolve the matching mollified piecewise-constant data directly
    W = _cell_weights(grid, nc)
    f_vals = f_cells @ W
    f = GridFunction(grid, 2, f_vals, bc="neumann")
    u = evolve(spec, f, 0.0, tau, dt=5e-3)
    expect = interp_multilinear(grid, u.values, np.array([[0.1]]))[:, 0]
    assert np.max(np.abs(got - expect)) <= 1e-6 * np.max(np.abs(f_cells))


def test_shrinking_cell_mass_vanishes():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 6.0, 241)
    masses = []
    for nc in (8, 32):
        row = kernel_row(spec, grid, 0.4, 0.0, [0.0], nc, dt=5e-3)
        c = np.argmin(np.abs(row.centers[0] - 1.0))
        masses.append(abs(row.mass[0, 0, c]))
    assert masses[1] < masses[0] / 2  # 4x smaller cells, ~4x less mass


def test_tightness_heat_tail_bound():
    from scipy.special import erfc
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321)
    tau = 0.25
    row = kernel_row(spec, grid, tau, 0.0, [0.0], 32, dt=5e-3, bc="neumann")
    R = 3.0
    out = tightness_mass(row, R)[0, 0]
    tail = erfc(R / np.sqrt(2 * tau))  # two-sided gaussian tail
    assert out <= tail + 1e-3
    assert tightness_mass(row, 0.0)[0, 0] == pytest.approx(
        np.sum(np.abs(row.mass[0, 0])))


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
    assert np.max(np.abs(row.mass[0, 1])) > 1e-3
    assert np.min(row.mass[0, 0]) > -1e-9
