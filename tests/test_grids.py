import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolmolab.grids import Grid, GridFunction, gradient, interp_multilinear
from helpers import constant


def test_grid_nodes_exact():
    g = Grid(1, 4.0, 9)
    assert g.h == pytest.approx(1.0)
    assert np.allclose(g.axis(), np.arange(-4, 5))
    assert 0.0 in g.axis()


def test_grid_rejects_even_n():
    with pytest.raises(ValueError):
        Grid(1, 1.0, 8)


def test_gradient_linear_exact():
    g = Grid(2, 3.0, 11)
    u = GridFunction.from_callable(g, 1, lambda p: p[0])
    grad = gradient(g, u.values)
    assert np.allclose(grad[0, 0], 1.0, atol=1e-12)
    assert np.allclose(grad[0, 1], 0.0, atol=1e-12)


def test_gradient_sin_second_order():
    g = Grid(1, 2.0, 81)
    u = GridFunction.from_callable(g, 1, lambda p: np.sin(p[0]))
    grad = gradient(g, u.values)[0, 0]
    err = np.max(np.abs(grad - np.cos(g.axis())))
    assert err <= g.h ** 2


def test_gradient_constant_zero():
    g = Grid(2, 1.0, 7)
    u = constant(g, [2.0, -1.0])
    assert np.max(np.abs(gradient(g, u.values))) == 0.0


def test_interp_at_nodes_and_midpoints():
    g = Grid(2, 2.0, 9)
    u = GridFunction.from_callable(g, 1, lambda p: 1 + p[0] + 2 * p[1])
    pts = np.array([[0.25, -1.3], [0.75, 0.1]])
    out = interp_multilinear(g, u.values, pts)
    # multilinear is exact on affine functions
    assert np.allclose(out[0], 1 + pts[0] + 2 * pts[1])


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([5, 9, 21, 41]), L=st.floats(0.5, 10))
def test_node_reproducibility(n, L):
    g = Grid(1, L, n)
    ax = g.axis()
    rebuilt = -g.L + np.arange(n) * g.h
    assert np.max(np.abs(ax - rebuilt)) <= 1e-12 * max(1.0, L)
