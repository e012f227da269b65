"""Test-side builders of grid data, node masks and the squared solve
that pointwise_check reads."""

import numpy as np

from kolmolab.estimates import squared_solve
from kolmolab.evolve import _Stepper
from kolmolab.operators import scalar_comparison


def sample(grid, fn):
    """The datum (m, N) of fn at the nodes of grid; fn maps points (d, N)
    to values (m, N), or to (N,) when m = 1."""
    return np.atleast_2d(np.asarray(fn(grid.points()), dtype=float))


def constant(grid, vec):
    """The datum equal to the vector vec at every node."""
    vec = np.asarray(vec, dtype=float)
    return np.repeat(vec[:, None], grid.n_nodes, axis=1)


def box_mask(grid, radius):
    """Mask of the nodes with max-norm coordinate <= radius."""
    return np.max(np.abs(grid.points()), axis=0) <= radius + 1e-12


def squared(spec, sol):
    """squared_solve of sol on a stepper of spec's scalar comparison."""
    return squared_solve(_Stepper(scalar_comparison(spec), sol.grid), sol)
