"""Backward semilinear problem solved by a mollified Picard scheme.

The terminal-value problem D_t u + A u = Psi(u), u(T, .) = g with
Psi(u)(t,x) = psi(x, sqrtQ(t,x) (J_x u(t,x))^T) is flipped to a forward
problem for v(tau) = u(T - tau) and iterated: each Picard sweep is one
implicit ladder pass with the nonlinear source frozen at the previous
iterate.  The natural norm is

    ||u|| = sup|u| + sup_t sqrt(T-t) sup|sqrtQ (J_x u)^T|,

and the time ladder is square-root graded near tau = 0 where the
gradient factor is singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsl import parse_state_expr
from .evolve import _Stepper
from .grids import (GridFunction, gradient, interp_multilinear,
                    weighted_gradient_sup)

__all__ = ["Nonlinearity", "nonlinearity_from_exprs", "mollify_nonlinearity",
           "mild_solve", "kt_norm", "MildSolution", "sqrtQ_at"]


@dataclass
class Nonlinearity:
    """psi: (x in R^d, z in R^{d x m}) -> R^m with linear growth in z."""

    d: int
    m: int
    fn: object  # callable (x_pts (d,N), z (d,m,N)) -> (m,N)

    def __call__(self, x, z):
        return np.asarray(self.fn(x, z), dtype=float)


def nonlinearity_from_exprs(texts, d, m):
    """Build a Nonlinearity from expression strings over x_i and z_ik
    (z11 .. z<d><m>, spatial index first)."""
    exprs = tuple(parse_state_expr(t, d, m) for t in texts)
    if len(exprs) != m:
        raise ValueError("need one expression per component")

    def fn(x, z):
        zd = {f"z{i + 1}{k + 1}": z[i, k] for i in range(d)
              for k in range(m)}
        N = x.shape[1]
        return np.stack([np.broadcast_to(e.eval_state(0.0, x, zd), (N,))
                         for e in exprs])

    return Nonlinearity(d, m, fn)


def _theta(r):
    """Radial cutoff: 1 on [0,1], 0 on [2,inf), smoothstep between."""
    s = np.clip(r - 1.0, 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def mollify_nonlinearity(nl: Nonlinearity, n: int):
    """Cutoff at |z| ~ n plus a fixed-stencil local average of width 1/n
    in z (the workable stand-in for a z-convolution)."""
    if n < 1:
        raise ValueError("n >= 1")
    d, m = nl.d, nl.m
    width = 1.0 / n

    def fn(x, z):
        zn = np.sqrt(np.sum(z ** 2, axis=(0, 1)))
        cut = _theta(zn / n)
        shifted = [z]
        for i in range(d):
            for k in range(m):
                for sgn in (+1.0, -1.0):
                    dz = np.zeros_like(z)
                    dz[i, k] = sgn * width
                    shifted.append(z + dz)
        # one psi call on all stencil points, stacked along the sample
        # axis; summing the slices one by one in stencil order rounds
        # like one call per point
        N = z.shape[-1]
        vals = nl(np.tile(x, len(shifted)), np.concatenate(shifted, -1))
        acc = vals[:, :N].copy()
        for j in range(1, len(shifted)):
            acc += vals[:, j * N:(j + 1) * N]
        return cut * acc / len(shifted)

    return Nonlinearity(d, m, fn)


def sqrtQ_at(spec, t, pts):
    """Symmetric square root of Q(t, x) at the points, (d, d, N)."""
    Qv = np.moveaxis(spec.Q_at(t, pts), 2, 0)  # (N, d, d)
    if spec.d == 1:
        return np.sqrt(Qv).reshape(1, 1, -1)
    w, V = np.linalg.eigh(Qv)
    root = (V * np.sqrt(w)[:, None, :]) @ np.swapaxes(V, 1, 2)
    return np.moveaxis(root, 0, 2)


@dataclass
class MildSolution:
    times: np.ndarray  # forward times ascending, last = T
    values: list  # (m, N) arrays aligned with times
    grid: object
    m: int
    T: float
    spec: object
    kt_norm: float = None
    picard_history: list = field(default_factory=list)
    converged: bool = True  # False when Picard ran out of iterations
    # sqrtQ_at(spec, t, grid points) aligned with times, when known
    _sqrtQ: list = field(default=None, repr=False)

    def u_at(self, t):
        """(m, N) values linearly interpolated in time."""
        ts = self.times
        idx = np.searchsorted(ts, t)
        if idx <= 0:
            return self.values[0]
        if idx >= len(ts):
            return self.values[-1]
        w = (t - ts[idx - 1]) / (ts[idx] - ts[idx - 1])
        return (1 - w) * self.values[idx - 1] + w * self.values[idx]

    def eval(self, t, x_pts):
        return interp_multilinear(self.grid, self.u_at(t), x_pts)

    def grad_eval(self, t, x_pts):
        """(m, d, K) spatial gradient along paths."""
        u = GridFunction(self.grid, self.m, self.u_at(t))
        g = gradient(u)  # (m, d, N)
        out = interp_multilinear(
            self.grid, g.reshape(self.m * self.grid.d, -1), x_pts)
        return out.reshape(self.m, self.grid.d, -1)


def _graded_ladder(T, dt, graded_steps=8):
    """tau ladder on [0, T]: square-root graded on the first dt, then
    uniform.  tau = 0 corresponds to t = T where the gradient weight is
    singular."""
    n_uniform = max(1, int(np.ceil(T / dt - 1e-12)))
    uniform = np.linspace(0.0, T, n_uniform + 1)
    first = uniform[1]
    graded = first * (np.arange(graded_steps + 1) / graded_steps) ** 2
    return np.unique(np.concatenate([graded, uniform]))


def kt_norm(sol: MildSolution):
    """sup|u| plus the sqrt(T-t)-weighted sqrtQ-gradient sup over the
    interior probe box |x| <= L/2, excluding the terminal time."""
    grid = sol.grid
    mask = grid.interior_mask(grid.L / 2)
    sup_u = max(float(np.max(np.abs(v[:, mask]))) for v in sol.values)
    sup_g = 0.0
    roots = sol._sqrtQ or [sqrtQ_at(sol.spec, t, grid.points())
                           for t in sol.times]
    for t, v, R in zip(sol.times, sol.values, roots):
        if t >= sol.T - 1e-14:
            continue
        val = np.sqrt(sol.T - t) * weighted_gradient_sup(
            R, gradient(GridFunction(grid, v.shape[0], v)), mask)
        sup_g = max(sup_g, val)
    return sup_u + sup_g


def mild_solve(spec, nl, g: GridFunction, T, dt, picard_tol=1e-8,
               max_iter=40, graded_steps=8):
    """Picard iteration for the backward semilinear problem, with the
    Picard deltas measured on the interior probe box |x| <= L/2.

    nl may be None (linear case).  Returns a MildSolution on the forward
    time ladder with the terminal data at t = T exactly."""
    grid = g.grid
    mask = grid.interior_mask(grid.L / 2)
    pts = grid.points()
    rev = spec.time_reversed(T)
    stepper = _Stepper(rev, grid, g.bc)
    taus = _graded_ladder(T, dt, graded_steps)
    L = len(taus)
    roots = [sqrtQ_at(spec, T - tau, pts) for tau in taus]

    def sweep(source=None):
        return [g.values.copy(), *stepper.march(g.values, taus, source)]

    def forcing(levels):
        """Source -Psi(u) of the forward problem at ladder level l, with
        u the previous iterate."""
        def source(l):
            u = GridFunction(grid, spec.m, levels[l], bc=g.bc)
            grad = gradient(u)  # (m, d, N)
            z = np.einsum("idN,mdN->imN", roots[l], grad)  # (d, m, N)
            return -nl(pts, z)
        return source

    current = sweep()  # linear start
    history = []
    converged = True
    if nl is not None:
        for _ in range(max_iter):
            nxt = sweep(forcing(current))
            delta_u = max(np.max(np.abs(a[:, mask] - b[:, mask]))
                          for a, b in zip(nxt, current))
            delta_g = 0.0
            for l in range(L):
                if taus[l] <= 1e-14:
                    continue
                diff = GridFunction(grid, spec.m, nxt[l] - current[l])
                sup = weighted_gradient_sup(roots[l], gradient(diff), mask)
                delta_g = max(delta_g, np.sqrt(taus[l]) * sup)
            delta = float(delta_u + delta_g)
            history.append(delta)
            current = nxt
            if delta <= picard_tol:
                break
        else:
            converged = False
    times_fwd = (T - taus)[::-1]
    values_fwd = current[::-1]
    sol = MildSolution(times=times_fwd, values=values_fwd, grid=grid,
                       m=spec.m, T=T, spec=spec,
                       picard_history=history, converged=converged,
                       _sqrtQ=roots[::-1])
    sol.kt_norm = kt_norm(sol)
    return sol
