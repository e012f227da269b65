"""Test-side builders of grid functions."""

import numpy as np

from kolmolab.grids import GridFunction


def constant(grid, vec, bc="dirichlet"):
    """The grid function equal to the vector vec at every node."""
    vec = np.asarray(vec, dtype=float)
    return GridFunction(grid, len(vec),
                        np.repeat(vec[:, None], grid.n_nodes, axis=1), bc=bc)
