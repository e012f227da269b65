"""Test-side builders of grid functions and node masks."""

import numpy as np

from kolmolab.grids import GridFunction


def constant(grid, vec, bc="dirichlet"):
    """The grid function equal to the vector vec at every node."""
    vec = np.asarray(vec, dtype=float)
    return GridFunction(grid, len(vec),
                        np.repeat(vec[:, None], grid.n_nodes, axis=1), bc=bc)


def box_mask(grid, radius):
    """Mask of the nodes with max-norm coordinate <= radius."""
    return np.max(np.abs(grid.points()), axis=0) <= radius + 1e-12
