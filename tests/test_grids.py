import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolmolab.grids import Grid, gradient, interp_multilinear
from helpers import constant, sample


def test_grid_nodes_exact():
    g = Grid(1, 4.0, 9, "dirichlet")
    assert g.h == pytest.approx(1.0)
    assert np.allclose(g.axis(), np.arange(-4, 5))
    assert 0.0 in g.axis()


def test_grid_rejects_even_n():
    with pytest.raises(ValueError):
        Grid(1, 1.0, 8, "dirichlet")


def test_grid_rejects_an_unknown_bc():
    with pytest.raises(ValueError, match="periodic"):
        Grid(1, 6.0, 41, "periodic")


@pytest.mark.parametrize("d", [1, 2])
def test_dirichlet_mask_is_the_boundary_under_dirichlet_only(d):
    neumann, dirichlet = (Grid(d, 2.0, 9, bc)
                          for bc in ("neumann", "dirichlet"))
    assert not np.any(neumann.dirichlet)
    # the boundary nodes: a coordinate at -L or L
    edge = np.any(np.abs(dirichlet.points()) == dirichlet.L, axis=0)
    assert np.array_equal(dirichlet.dirichlet, edge)
    assert np.sum(edge) == 9 ** d - 7 ** d


def test_gradient_linear_exact():
    g = Grid(2, 3.0, 11, "dirichlet")
    u = sample(g, lambda p: p[0])
    grad = gradient(g, u)
    assert np.allclose(grad[0, 0], 1.0, atol=1e-12)
    assert np.allclose(grad[0, 1], 0.0, atol=1e-12)


def test_gradient_sin_second_order():
    g = Grid(1, 2.0, 81, "dirichlet")
    u = sample(g, lambda p: np.sin(p[0]))
    grad = gradient(g, u)[0, 0]
    err = np.max(np.abs(grad - np.cos(g.axis())))
    assert err <= g.h ** 2


def test_gradient_constant_zero():
    g = Grid(2, 1.0, 7, "dirichlet")
    u = constant(g, [2.0, -1.0])
    assert np.max(np.abs(gradient(g, u))) == 0.0


def test_interp_at_nodes_and_midpoints():
    g = Grid(2, 2.0, 9, "dirichlet")
    u = sample(g, lambda p: 1 + p[0] + 2 * p[1])
    pts = np.array([[0.25, -1.3], [0.75, 0.1]])
    out = interp_multilinear(g, u, pts)
    # multilinear is exact on affine functions
    assert np.allclose(out[0], 1 + pts[0] + 2 * pts[1])


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([5, 9, 21, 41]), L=st.floats(0.5, 10))
def test_node_reproducibility(n, L):
    g = Grid(1, L, n, "dirichlet")
    ax = g.axis()
    rebuilt = -g.L + np.arange(n) * g.h
    assert np.max(np.abs(ax - rebuilt)) <= 1e-12 * max(1.0, L)
