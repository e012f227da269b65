"""Uniform tensor grids on boxes [-L, L]^d with their boundary
condition, and solved time ladders, with second-order gradients and
multilinear interpolation.

Flat storage convention: a datum is an array of shape (m, n^d) with
C-order flattening of the axes, axis 1 fastest.  For d=2 the flat index
of node (i1, i2) is i1*n + i2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "Solution", "gradient", "weighted_gradient_sup"]


@dataclass(frozen=True)
class Grid:
    d: int
    L: float
    n: int  # points per axis, odd so that 0 is a node
    bc: str  # boundary condition of the box: "dirichlet" or "neumann"

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("need n >= 5 points per axis")
        if self.n % 2 == 0:
            raise ValueError("n must be odd so that the origin is a node")
        if self.d not in (1, 2):
            raise ValueError("desk scale supports d in {1, 2}")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown bc {self.bc!r}")

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
        axes = np.meshgrid(*[self.axis()] * self.d, indexing="ij")
        return np.stack([X.ravel() for X in axes])

    @property
    def probe_L(self):
        """Half-width of the probe box, where every sup norm is taken."""
        return self.L / 2

    @functools.cached_property
    def probe(self):
        """Boolean mask of the nodes in the probe box."""
        return np.max(np.abs(self.points()), axis=0) <= self.probe_L + 1e-12

    @functools.cached_property
    def dirichlet(self):
        """Boolean mask of the nodes held at zero: the boundary nodes
        under "dirichlet", no node under "neumann"."""
        edge = np.max(np.abs(self.points()), axis=0) >= self.L - 0.5 * self.h
        return edge & (self.bc == "dirichlet")


@dataclass
class Solution:
    """A solved time ladder: values[l] (m, N) at ascending times[l]."""

    grid: Grid
    times: np.ndarray  # (levels,)
    values: np.ndarray  # (levels, m, N)

    @property
    def m(self):
        return self.values.shape[1]

    def u_at(self, t):
        """(m, N) values linearly interpolated in time."""
        ts = self.times
        idx = np.searchsorted(ts, t)
        if not 0 < idx < len(ts):  # off the ladder: its nearest end
            return self.values[min(idx, len(ts) - 1)]
        w = (t - ts[idx - 1]) / (ts[idx] - ts[idx - 1])
        return (1 - w) * self.values[idx - 1] + w * self.values[idx]

    def eval(self, t, x_pts):
        return interp_multilinear(self.grid, self.u_at(t), x_pts)

    def grad_eval(self, t, x_pts):
        """(m, d, K) spatial gradient along paths."""
        g = gradient(self.grid, self.u_at(t))  # (m, d, N)
        out = interp_multilinear(
            self.grid, g.reshape(self.m * self.grid.d, -1), x_pts)
        return out.reshape(self.m, self.grid.d, -1)


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
    lead, h = values.shape[:-1], grid.h
    vals = values.reshape(*lead, *(grid.n,) * grid.d)
    # each axis of the (..., n, ..., n) view moved last, then back
    grads = [np.moveaxis(_one_dim_gradient(np.moveaxis(vals, j, -1), h),
                         -1, j) for j in range(-grid.d, 0)]
    return np.stack([g.reshape(*lead, -1) for g in grads], axis=-2)


def weighted_gradient_sup(grid, weights, values, elapsed):
    """max over a stack of ladder levels l of sqrt(elapsed[l]) times the
    sup, over the probe box, of the Frobenius norm of W_l (J_x u_l)^T,
    for weight fields W (L, d, d, N), values u (L, m, N) and elapsed
    times (L,); a level with elapsed time 0 adds 0."""
    mask = grid.probe
    # (W (J_x u)^T)_{a m} = sum_d W_{a d} D_d u_m
    wg = np.einsum("...adN,...mdN->...amN", weights, gradient(grid, values))
    sups = np.max(np.sqrt(np.sum(wg[..., mask] ** 2, axis=(-3, -2))),
                  axis=-1)
    return float(np.max(np.sqrt(elapsed) * sups, initial=0.0))


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
