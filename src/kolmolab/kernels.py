"""Signed cell-mass approximation of the kernel rows of the vector
evolution operator, with tightness and compactness probes.

The operator admits finite signed Borel measures p_ij with

    (G(t,s) f)_i(x) = sum_j int f_j(y) p_ij(t,s,x,dy);

each cell mass is obtained by evolving the (mollified) indicator of the
cell times a basis vector and reading the result at x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import _Stepper, _time_ladder
from .grids import interp_multilinear

__all__ = ["KernelRow", "kernel_row", "tightness_mass", "compactness_probe"]


@dataclass
class KernelRow:
    centers: np.ndarray  # (d, n_cells^d)
    mass: np.ndarray  # (m, m, n_cells^d)


def _cell_weights(grid, n_cells):
    """Dual-cell volume fractions: weights (n_cells^d, N) with each
    column summing to 1 for nodes whose dual cell lies inside the box."""
    n, h, L = grid.n, grid.h, grid.L
    edges = np.linspace(-L, L, n_cells + 1)
    ax = grid.axis()
    lo = np.maximum(ax[None, :] - h / 2, edges[:-1, None])
    hi = np.minimum(ax[None, :] + h / 2, edges[1:, None])
    w1 = np.clip(hi - lo, 0.0, None) / h  # (n_cells, n)
    if grid.d == 1:
        return w1
    # tensor product over the two axes, cells in C-order (axis1 major)
    w = np.einsum("ap,bq->abpq", w1, w1)
    return w.reshape(n_cells * n_cells, n * n)


def cell_centers(d, L, n_cells):
    edges = np.linspace(-L, L, n_cells + 1)
    c = 0.5 * (edges[:-1] + edges[1:])
    if d == 1:
        return c.reshape(1, -1)
    C1, C2 = np.meshgrid(c, c, indexing="ij")
    return np.stack([C1.ravel(), C2.ravel()])


def kernel_row(spec, grid, t, s, x, n_cells, dt, bc="dirichlet"):
    """Approximate all m x m kernel-row measures at base point x."""
    if n_cells > 64:
        raise ValueError("n_cells capped at 64 per axis")
    m = spec.m
    N = grid.n_nodes
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.max(np.abs(x)) >= grid.L / 2:
        raise ValueError("base point must sit in the interior probe box")
    W = _cell_weights(grid, n_cells)  # (nc, N)
    nc = W.shape[0]
    # initial data batch: for (j, c) the field (chi_c e_j)
    F = np.zeros((m, N, m * nc))
    for j in range(m):
        F[j, :, j * nc:(j + 1) * nc] = W.T
    out = _Stepper(spec, grid, bc).final(
        F, _time_ladder(s, t, dt))  # (m, N, m*nc)
    # evaluate at x by multilinear interpolation per RHS
    vals = np.empty((m, m * nc))
    for i in range(m):
        vals[i] = interp_multilinear(grid, out[i].T,
                                     x.reshape(spec.d, 1))[:, 0]
    mass = np.empty((m, m, nc))
    for j in range(m):
        mass[:, j, :] = vals[:, j * nc:(j + 1) * nc]
    return KernelRow(centers=cell_centers(spec.d, grid.L, n_cells),
                     mass=mass)


def tightness_mass(row: KernelRow, R):
    """Total-variation mass outside the ball of radius R, per (i, j)."""
    outside = np.sqrt(np.sum(row.centers ** 2, axis=0)) > R
    return np.sum(np.abs(row.mass[:, :, outside]), axis=2)


def compactness_probe(spec, grid, t, s, x_list, R_list, n_cells, dt,
                      bc="dirichlet"):
    """PASS iff the outside mass decays monotonically in R and falls
    below 0.05 at the largest R, for every probed base point."""
    R_list = sorted(R_list)
    table = []
    verdict = True
    for x in x_list:
        row = kernel_row(spec, grid, t, s, x, n_cells, dt, bc=bc)
        outs = [float(np.max(tightness_mass(row, R))) for R in R_list]
        mono = all(outs[k + 1] <= outs[k] + 1e-12 for k in range(len(outs) - 1))
        ok = mono and outs[-1] < 0.05
        verdict = verdict and ok
        table.append({"x": list(np.atleast_1d(x)), "outside": outs,
                      "monotone": mono, "pass": ok})
    return {"verdict": verdict, "R_list": list(R_list), "table": table}
