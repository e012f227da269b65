"""Uniform tensor grids on boxes [-L, L]^d and vector-valued grid
functions, with second-order gradients and multilinear interpolation.

Flat storage convention: values have shape (m, n^d) with C-order
flattening of the axes, axis 1 fastest.  For d=2 the flat index of node
(i1, i2) is i1*n + i2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "GridFunction", "gradient", "weighted_gradient_sup"]


@dataclass(frozen=True)
class Grid:
    d: int
    L: float
    n: int  # points per axis, odd so that 0 is a node

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("need n >= 5 points per axis")
        if self.n % 2 == 0:
            raise ValueError("n must be odd so that the origin is a node")
        if self.d not in (1, 2):
            raise ValueError("desk scale supports d in {1, 2}")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def h(self):
        return 2.0 * self.L / (self.n - 1)

    @property
    def n_nodes(self):
        return self.n ** self.d

    def axis(self):
        return -self.L + self.h * np.arange(self.n)

    def points(self):
        """All node coordinates, shape (d, n^d), matching flat order."""
        ax = self.axis()
        if self.d == 1:
            return ax.reshape(1, -1)
        X1, X2 = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([X1.ravel(), X2.ravel()])

    def interior_mask(self, probe_L):
        """Boolean mask of nodes with max-norm coordinate <= probe_L."""
        pts = self.points()
        return np.max(np.abs(pts), axis=0) <= probe_L + 1e-12

    def boundary_mask(self):
        pts = self.points()
        return np.max(np.abs(pts), axis=0) >= self.L - 0.5 * self.h


@dataclass
class GridFunction:
    grid: Grid
    m: int
    values: np.ndarray  # (m, n^d)
    bc: str = "dirichlet"  # or "neumann"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.m, self.grid.n_nodes):
            raise ValueError(
                f"values shape {self.values.shape} != "
                f"({self.m}, {self.grid.n_nodes})")
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown bc {self.bc!r}")

    @classmethod
    def from_callable(cls, grid, m, fn, bc="dirichlet"):
        """fn maps points (d, N) to values (m, N) (or (N,) when m=1)."""
        vals = np.asarray(fn(grid.points()), dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(1, -1)
        return cls(grid, m, vals, bc=bc)

    @classmethod
    def constant(cls, grid, vec, bc="dirichlet"):
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        vals = np.repeat(vec.reshape(-1, 1), grid.n_nodes, axis=1)
        return cls(grid, len(vec), vals, bc=bc)

    def sup_norm(self, probe_L=None):
        if probe_L is None:
            return float(np.max(np.abs(self.values)))
        mask = self.grid.interior_mask(probe_L)
        return float(np.max(np.abs(self.values[:, mask])))


def _one_dim_gradient(vals, h):
    """Second-order differences along the last axis of vals."""
    g = np.empty_like(vals)
    g[..., 1:-1] = (vals[..., 2:] - vals[..., :-2]) / (2 * h)
    g[..., 0] = (-3 * vals[..., 0] + 4 * vals[..., 1] - vals[..., 2]) / (2 * h)
    g[..., -1] = (3 * vals[..., -1] - 4 * vals[..., -2] + vals[..., -3]) / (2 * h)
    return g


def gradient(grid, values):
    """Spatial gradient of values (..., n^d), shape (..., d, n^d);
    second-order central in the interior, one-sided second-order on the
    faces.  Leading axes (components, ladder levels) are carried along."""
    n, h = grid.n, grid.h
    if grid.d == 1:
        return _one_dim_gradient(values, h)[..., None, :]
    lead = values.shape[:-1]
    vals = values.reshape(*lead, n, n)
    g1 = _one_dim_gradient(np.swapaxes(vals, -1, -2), h)
    g1 = np.swapaxes(g1, -1, -2)  # derivative along axis 1 (x1)
    g2 = _one_dim_gradient(vals, h)  # along axis 2 (x2)
    return np.stack([g1.reshape(*lead, -1), g2.reshape(*lead, -1)], axis=-2)


def weighted_gradient_sup(weight, grad, mask):
    """sup over the masked nodes of the Frobenius norm of W (J_x u)^T,
    for weight fields W (..., d, d, N) and gradients (..., m, d, N); one
    sup per leading index."""
    # (W (J_x u)^T)_{a m} = sum_d W_{a d} D_d u_m
    wg = np.einsum("...adN,...mdN->...amN", weight, grad)
    return np.max(np.sqrt(np.sum(wg[..., mask] ** 2, axis=(-3, -2))),
                  axis=-1)


def interp_corners(grid, x):
    """Cell corners of points x (d, K), clamped to the box: a list of
    2^d flat node indices (K,) and a list of 2^d per-axis weight factors
    [(K,)] * d, corners ordered with the first axis fastest.  A corner's
    interpolation weight is the product of its d factors."""
    n, h, L = grid.n, grid.h, grid.L
    x = np.clip(x, -L, L)
    s = (x + L) / h
    i0 = np.clip(np.floor(s).astype(int), 0, n - 2)
    w = s - i0
    lower = i0[0]  # flat index of the lower corner, by Horner's rule
    for a in range(1, grid.d):
        lower = lower * n + i0[a]
    sides = (1 - w, w)  # weights of the lower and of the upper nodes
    strides = [n ** (grid.d - 1 - a) for a in range(grid.d)]
    idx, fac = [], []
    for corner in range(2 ** grid.d):
        up = [(corner >> a) & 1 for a in range(grid.d)]
        offset = sum(u * stride for u, stride in zip(up, strides))
        idx.append(lower + offset if offset else lower)
        fac.append([sides[u][a] for a, u in enumerate(up)])
    return idx, fac


def interp_multilinear(grid, values, x):
    """Multilinear interpolation of values (m, n^d) at points x (d, K).

    Points are clamped to the box.  Returns (m, K).
    """
    idx, fac = interp_corners(grid, x)
    v = values.reshape(-1, grid.n_nodes)
    # each term multiplied axis by axis, summed corner by corner
    terms = [functools.reduce(np.multiply, factors, v[:, corner])
             for corner, factors in zip(idx, fac)]
    return functools.reduce(np.add, terms)
