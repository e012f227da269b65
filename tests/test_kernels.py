import numpy as np
import pytest
from scipy.special import erf

from kolmolab.grids import Grid, interp_multilinear
from kolmolab.evolve import _Stepper, _time_ladder, evolve
from kolmolab.kernels import compactness_probe, kernel_row, _cell_table
from kolmolab.operators import example_family, scalar_comparison


def gauss_cell_mass(lo, hi, mean, var):
    s = np.sqrt(2 * var)
    return 0.5 * (erf((hi - mean) / s) - erf((lo - mean) / s))


def test_cell_weights_partition_of_unity():
    # interior nodes: full dual cell inside the box, weights sum to 1
    g = Grid(1, 4.0, 41, "dirichlet")
    W, radii = _cell_table(g, 8)
    assert np.allclose(W.sum(axis=0)[1:-1], 1.0)
    assert np.array_equal(radii, [3.5, 2.5, 1.5, 0.5, 0.5, 1.5, 2.5, 3.5])
    g2 = Grid(2, 2.0, 11, "dirichlet")
    W2, radii2 = _cell_table(g2, 4)
    interior = ~g2.dirichlet
    assert np.allclose(W2.sum(axis=0)[interior], 1.0)
    # the centres in the weights' C-order, axis 1 major
    c1, c2 = np.meshgrid(*[[-1.5, -0.5, 0.5, 1.5]] * 2, indexing="ij")
    assert np.allclose(radii2, np.hypot(c1, c2).ravel())


def test_heat_kernel_matches_gaussian_cells():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321, "dirichlet")
    tau = 0.5
    x0 = 0.3
    mass, _ = kernel_row(_Stepper(spec, grid), _time_ladder(0.0, tau, 2e-3),
                         [x0], 16)
    edges = np.linspace(-8, 8, 17)
    expect = gauss_cell_mass(edges[:-1], edges[1:], x0, tau)
    assert np.max(np.abs(mass[0, 0, 0] - expect)) <= 1e-3


def test_total_mass_stochastic_kernel():
    # m=1, C=0: G(t,s) 1 = 1 so the row has total mass ~ 1 (neumann run
    # keeps every bit of mass inside the box)
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 241, "neumann")
    mass, _ = kernel_row(_Stepper(spec, grid), _time_ladder(0.0, 0.5, 5e-3),
                         [0.2], 12)
    assert np.sum(mass[0, 0, 0]) == pytest.approx(1.0, abs=1e-8)


def test_reconstruction_linearity():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 5.0, 201, "neumann")
    tau, nc = 0.3, 10
    mass, _ = kernel_row(_Stepper(spec, grid), _time_ladder(0.0, tau, 5e-3),
                         [0.1], nc)
    rng = np.random.default_rng(7)
    f_cells = rng.uniform(-1, 1, (2, nc))
    # apply the kernel row to the piecewise-constant cell values
    got = np.einsum("ijc,jc->i", mass[0], f_cells)
    # evolve the matching mollified piecewise-constant data directly
    W, _ = _cell_table(grid, nc)
    f_vals = f_cells @ W
    u = evolve(spec, grid, f_vals, 0.0, tau, dt=5e-3).values[-1]
    expect = interp_multilinear(grid, u, np.array([[0.1]]))[:, 0]
    assert np.max(np.abs(got - expect)) <= 1e-6 * np.max(np.abs(f_cells))


def test_shrinking_cell_mass_vanishes():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 6.0, 241, "dirichlet")
    masses = []
    for nc in (8, 32):
        mass, radii = kernel_row(_Stepper(spec, grid),
                                 _time_ladder(0.0, 0.4, 5e-3), [0.0], nc)
        c = np.argmin(np.abs(radii - 1.0))
        masses.append(abs(mass[0, 0, 0, c]))
    assert masses[1] < masses[0] / 2  # 4x smaller cells, ~4x less mass


def test_tightness_heat_tail_bound():
    from scipy.special import erfc
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321, "neumann")
    tau = 0.25
    mass, radii = kernel_row(_Stepper(spec, grid),
                             _time_ladder(0.0, tau, 5e-3), [0.0], 32)
    R = 3.0
    out = np.sum(np.abs(mass[0, 0, 0, radii > R]))
    tail = erfc(R / np.sqrt(2 * tau))  # two-sided gaussian tail
    assert out <= tail + 1e-3
    assert np.sum(np.abs(mass[0, 0, 0, radii > 0.0])) == pytest.approx(
        np.sum(np.abs(mass[0, 0, 0])))


def test_compactness_ex71ii_pass_and_scalar_agrees():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 6.0, 241, "neumann")
    xs = [[-1.0], [0.0], [1.0]]
    Rs = [1.0, 2.0, 3.0]
    vec = compactness_probe(_Stepper(spec, grid),
                            _time_ladder(0.0, 0.5, 5e-3), xs, Rs, n_cells=24)
    sca = compactness_probe(_Stepper(scalar_comparison(spec), grid),
                            _time_ladder(0.0, 0.5, 5e-3), xs, Rs, n_cells=24)
    assert vec["verdict"]
    assert sca["verdict"] == vec["verdict"]


def test_compactness_heat_fails_for_spreading_points():
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 8.0, 321, "neumann")
    # translation invariance: a base point far out keeps its mass far out
    xs = [[0.0], [3.5]]
    probe = compactness_probe(_Stepper(spec, grid),
                              _time_ladder(0.0, 0.5, 5e-3), xs,
                              [1.0, 2.0, 3.0], n_cells=32)
    assert not probe["verdict"]


def test_outward_drift_fails():
    # flip the ou drift sign: mass is pushed outward
    from kolmolab.dsl import parse_coeff_expr
    from kolmolab.operators import OperatorSpec, matrix_of_consts
    spec = OperatorSpec(
        1, 1, matrix_of_consts([[0.5]], 1),
        (parse_coeff_expr("x1*(1+normsq(x))", 1),),
        (matrix_of_consts([[0.0]], 1),), matrix_of_consts([[0.0]], 1))
    grid = Grid(1, 6.0, 241, "neumann")
    probe = compactness_probe(_Stepper(spec, grid),
                              _time_ladder(0.0, 1.0, 5e-3), [[0.5]],
                              [1.0, 2.0, 3.0], n_cells=24)
    assert not probe["verdict"]


def test_signed_masses_for_coupled_potential():
    spec = example_family("const_coupling",
                          {"d": 1, "C": [[0.0, 1.0], [1.0, 0.0]]})
    grid = Grid(1, 6.0, 161, "neumann")
    mass, _ = kernel_row(_Stepper(spec, grid), _time_ladder(0.0, 0.5, 5e-3),
                         [0.0], 12)
    # off-diagonal rows are genuinely nonzero here; diagonal stays positive
    assert np.max(np.abs(mass[0, 0, 1])) > 1e-3
    assert np.min(mass[0, 0, 0]) > -1e-9


@pytest.mark.parametrize("d, scalar", [(1, False), (1, True), (2, False)],
                         ids=["ex71ii d1", "scalar d1", "ex71ii d2"])
def test_row_over_points_equals_one_point_rows(d, scalar):
    # one march serves every base point; each point's masses and tail
    # masses equal those of a one-point row bitwise
    spec = example_family("ex71ii", {"d": d, "m": 2})
    spec = scalar_comparison(spec) if scalar else spec
    grid = Grid(d, 6.0, 121 if d == 1 else 31, "neumann")
    nc = 24 if d == 1 else 6
    xs = [[-1.0] * d, [0.0] * d, [1.0] + [-0.5] * (d - 1)]
    mass, radii = kernel_row(_Stepper(spec, grid),
                             _time_ladder(0.0, 0.25, 1.25e-2), xs, nc)
    assert mass.shape == (3, spec.m, spec.m, nc ** d)
    for p, x in enumerate(xs):
        one, _ = kernel_row(_Stepper(spec, grid),
                            _time_ladder(0.0, 0.25, 1.25e-2), [x], nc)
        assert np.array_equal(mass[p], one[0])
        for R in (1.0, 2.0, 3.0):
            out = radii > R
            assert np.array_equal(np.sum(np.abs(mass[p][:, :, out]), axis=2),
                                  np.sum(np.abs(one[0][:, :, out]), axis=2))


def test_compactness_probe_marches_once_for_all_points(monkeypatch):
    # one march of the stepper it is handed serves every base point
    marched = []
    real_march = _Stepper.march

    def counted(self, *args, **kwargs):
        marched.append(self)
        return real_march(self, *args, **kwargs)

    monkeypatch.setattr(_Stepper, "march", counted)
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    stepper = _Stepper(spec, Grid(1, 6.0, 121, "neumann"))
    probe = compactness_probe(stepper, _time_ladder(0.0, 0.25, 1.25e-2),
                              [[-1.0], [0.0], [1.0]], [1.0, 2.0, 3.0],
                              n_cells=12)
    assert len(probe["table"]) == 3
    assert marched == [stepper]


def test_compactness_probe_reads_the_neumann_row():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    stepper = _Stepper(spec, Grid(1, 6.0, 61, "dirichlet"))
    with pytest.raises(ValueError, match="Neumann"):
        compactness_probe(stepper, _time_ladder(0.0, 0.25, 1.25e-2),
                          [[0.0]], [1.0], n_cells=12)


# The adjoint march against the forward one it replaced: the (m, N,
# m*cells) indicator batch marched forward once, read at each base point.

def _forward_masses(spec, grid, t, s, xs, n_cells, dt):
    m, N = spec.m, grid.n_nodes
    x = np.asarray(xs, dtype=float).reshape(-1, spec.d).T
    W, _ = _cell_table(grid, n_cells)
    nc = W.shape[0]
    F = np.kron(np.eye(m), W.T).reshape(m, N, m * nc)
    out = _Stepper(spec, grid).final(F, _time_ladder(s, t, dt))
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
    grid = Grid(d, 6.0, 121 if d == 1 else 25, bc)
    nc = 12 if d == 1 else 4
    xs = [[-1.0] * d, [0.5] * d, [1.2] + [-0.7] * (d - 1)]
    mass, _ = kernel_row(_Stepper(spec, grid), _time_ladder(s, t, 2.5e-2),
                         xs, nc)
    want = _forward_masses(spec, grid, t, s, xs, nc, 2.5e-2)
    assert mass.shape == want.shape == (3, spec.m, spec.m, nc ** d)
    scale = np.max(np.abs(want))
    assert scale > 0.1
    assert np.max(np.abs(mass - want)) <= 1e-12 * scale


@pytest.mark.parametrize("time_dependent", [False, True])
@pytest.mark.parametrize("n_cells", [4, 24])
def test_adjoint_march_carries_m_columns_per_point(monkeypatch, n_cells,
                                                   time_dependent):
    # every step carries m*points columns, whatever the number of cells;
    # one step per ladder step, in descending t, and the usual LU count
    from kolmolab import evolve as evolve_mod
    steps, factors = [], []
    real_step, real_splu = _Stepper.step, evolve_mod.spla.splu

    def recorded(self, values, t_new, dt, adjoint=False):
        steps.append((values.shape[-1], t_new, adjoint))
        return real_step(self, values, t_new, dt, adjoint=adjoint)

    def counted(M):
        factors.append(M.shape)
        return real_splu(M)

    monkeypatch.setattr(_Stepper, "step", recorded)
    monkeypatch.setattr(evolve_mod.spla, "splu", counted)
    spec = example_family("ex71ii", {"d": 1, "m": 2, **(
        _EX71II_T if time_dependent else {})})
    xs = [[-1.0], [0.0], [1.0]]
    times = _time_ladder(0.1, 0.5, 0.05)
    kernel_row(_Stepper(spec, Grid(1, 6.0, 61, "neumann")), times, xs,
               n_cells)
    assert [c for c, _, _ in steps] == [2 * len(xs)] * (len(times) - 1)
    assert [t for _, t, _ in steps] == list(times[:0:-1])
    assert all(adjoint for _, _, adjoint in steps)
    assert len(factors) == (len(times) - 1 if time_dependent else 1)
