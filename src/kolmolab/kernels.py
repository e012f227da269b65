"""Signed cell-mass approximation of the kernel rows of the vector
evolution operator, with tightness and compactness probes.

The operator admits finite signed Borel measures p_ij with

    (G(t,s) f)_i(x) = sum_j int f_j(y) p_ij(t,s,x,dy);

the cell mass of p_ij(t,s,x,.) on a cell c is w_x^T G (e_j chi_c), with
w_x the multilinear interpolation row of base point x and chi_c the
(mollified) cell indicator.  By duality it is read off the adjoint march
y = G^T (e_i w_x) as y_j . chi_c: m columns per base point are marched
back from t to s, whatever the number of cells (Giles and Pierce, Flow
Turb. Combust. 65, 2000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import _Stepper, _time_ladder
from .grids import interp_corners

__all__ = ["KernelRow", "kernel_row", "tightness_mass", "compactness_probe"]


@dataclass
class KernelRow:
    centers: np.ndarray  # (d, n_cells^d)
    mass: np.ndarray  # (points, m, m, n_cells^d)


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


def kernel_row(spec, grid, t, s, x_list, n_cells, dt, bc="dirichlet"):
    """Approximate all m x m kernel-row measures at each base point of
    x_list from one adjoint march of the (m, N, points*m) batch
    e_i w_x: mass[x, i, j, c] = (G^T (e_i w_x))_j . chi_c."""
    if n_cells > 64:
        raise ValueError("n_cells capped at 64 per axis")
    m, N = spec.m, grid.n_nodes
    x = np.asarray(x_list, dtype=float).reshape(-1, spec.d).T  # (d, P)
    if np.max(np.abs(x)) >= grid.L / 2:
        raise ValueError("base point must sit in the interior probe box")
    P = x.shape[1]
    idx, fac = interp_corners(grid, x)
    w = np.zeros((N, P))  # interpolation rows of the base points
    for corner, factors in zip(idx, fac):
        w[corner, np.arange(P)] = np.prod(factors, axis=0)
    # column (p, i) holds w_p in component i
    Y = np.einsum("ik,np->inpk", np.eye(m), w).reshape(m, N, P * m)
    stepper = _Stepper(spec, grid, bc)
    times = _time_ladder(s, t, dt)
    for l in range(len(times) - 1, 0, -1):
        Y = stepper.step(Y, times[l], times[l] - times[l - 1], adjoint=True)
    mass = np.einsum("jnpi,cn->pijc", Y.reshape(m, N, P, m),
                     _cell_weights(grid, n_cells))
    return KernelRow(centers=cell_centers(spec.d, grid.L, n_cells),
                     mass=mass)


def tightness_mass(row: KernelRow, R):
    """Total-variation mass outside the ball of radius R, one (m, m) block
    per base point, each summed alone (a sum over several may round apart)."""
    outside = np.sqrt(np.sum(row.centers ** 2, axis=0)) > R
    return np.array([np.sum(np.abs(mass[:, :, outside]), axis=2)
                     for mass in row.mass])


def compactness_probe(spec, grid, t, s, x_list, R_list, n_cells, dt,
                      bc="dirichlet"):
    """PASS iff the outside mass decays monotonically in R and falls
    below 0.05 at the largest R, for every probed base point."""
    R_list = sorted(R_list)
    row = kernel_row(spec, grid, t, s, x_list, n_cells, dt, bc=bc)
    # outside mass per (base point, R): the max over the (m, m) block
    outside = np.array([np.max(tightness_mass(row, R), axis=(1, 2))
                        for R in R_list]).T
    table = []
    for x, outs in zip(x_list, outside.tolist()):
        mono = all(outs[k + 1] <= outs[k] + 1e-12 for k in range(len(outs) - 1))
        ok = mono and outs[-1] < 0.05
        table.append({"x": [float(v) for v in np.atleast_1d(x)],
                      "outside": outs, "monotone": mono, "pass": ok})
    return {"verdict": all(e["pass"] for e in table),
            "R_list": list(R_list), "table": table}
