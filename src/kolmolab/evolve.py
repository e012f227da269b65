"""Finite-difference evolution operators on boxes [-L, L]^d.

Backward Euler in time with coefficients frozen at the new time level,
centered second-order differences in space, and second-order upwinding
of the diagonal drift where the cell Peclet number |b_j| h / lambda_Q
exceeds 2.  Dirichlet boundary rows are identity rows with zero data;
Neumann is realized by ghost-node reflection in the stencils.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import GridFunction

__all__ = ["evolve", "assemble_operator", "EvolveError"]

BLOWUP_GUARD = 1e12


class EvolveError(RuntimeError):
    pass


def _axis_indices(grid):
    """Per-axis index arrays of every flat node, shape (d, N)."""
    n = grid.n
    if grid.d == 1:
        return np.arange(n).reshape(1, -1)
    i1 = np.repeat(np.arange(n), n)
    i2 = np.tile(np.arange(n), n)
    return np.stack([i1, i2])


def _strides(grid):
    return [grid.n ** (grid.d - 1 - j) for j in range(grid.d)]


def assemble_operator(spec, grid, t, bc):
    """Sparse matrix realizing the full operator on flat (m*N) vectors.

    Component-block layout: row k*N + p is the equation for component k
    at node p.  Dirichlet boundary rows are zeroed (the stepper installs
    identity rows in I - dt*A).
    """
    d, m, n, h = spec.d, spec.m, grid.n, grid.h
    N = grid.n_nodes
    pts = grid.points()
    ax_idx = _axis_indices(grid)
    strides = _strides(grid)
    bnd = grid.boundary_mask()

    Qv = spec.Q_at(t, pts)  # (d, d, N)
    bv = spec.b_at(t, pts)  # (d, N)
    Btv = spec.Btilde_at(t, pts)  # (d, m, m, N)
    Cv = spec.C_at(t, pts)  # (m, m, N)
    Qeig = np.linalg.eigvalsh(np.moveaxis(Qv, 2, 0))[:, 0]
    lam = np.maximum(Qeig, 1e-300)

    all_nodes = np.arange(N)

    def reflect(i):
        # mirror an out-of-range axis index back into [0, n-1]
        return np.where(i < 0, -i, np.where(i > n - 1, 2 * (n - 1) - i, i))

    def shifted(p, j, delta):
        """Flat indices of nodes shifted by delta cells along axis j,
        with reflection at the faces."""
        i = ax_idx[j, p] + delta
        return p + (reflect(i) - ax_idx[j, p]) * strides[j]

    # ---- scalar part: sum_j Q_jj D2_jj + cross + sum_j b_j D1_j
    s_rows, s_cols, s_vals = [], [], []

    def sadd(r, c, v):
        s_rows.append(r)
        s_cols.append(c)
        s_vals.append(v)

    for j in range(d):
        ij = ax_idx[j]
        qjj = Qv[j, j]
        interior = (ij > 0) & (ij < n - 1)
        p = all_nodes[interior]
        sadd(p, p - strides[j], qjj[p] / h ** 2)
        sadd(p, p, -2 * qjj[p] / h ** 2)
        sadd(p, p + strides[j], qjj[p] / h ** 2)
        if bc == "neumann":
            for face, sgn in ((0, 1), (n - 1, -1)):
                p = all_nodes[ij == face]
                sadd(p, p, -2 * qjj[p] / h ** 2)
                sadd(p, p + sgn * strides[j], 2 * qjj[p] / h ** 2)

    if d == 2:
        q12 = Qv[0, 1]
        nz = np.abs(q12) > 0
        if np.any(nz):
            p = all_nodes[nz]
            for d1 in (+1, -1):
                for d2 in (+1, -1):
                    tgt = shifted(shifted(p, 0, d1), 1, d2)
                    # 2 Q12 D2_12 with the 4-point cross stencil
                    sadd(p, tgt, 2 * q12[p] * d1 * d2 / (4 * h ** 2))

    for j in range(d):
        ij = ax_idx[j]
        bj = bv[j]
        peclet = np.abs(bj) * h / lam
        up = peclet > 2.0
        fwd = up & (bj > 0) & (ij <= n - 3)
        bwd = up & (bj < 0) & (ij >= 2)
        cen = ~(fwd | bwd) & (ij > 0) & (ij < n - 1)
        p = all_nodes[cen]
        sadd(p, p + strides[j], bj[p] / (2 * h))
        sadd(p, p - strides[j], -bj[p] / (2 * h))
        p = all_nodes[fwd]
        sadd(p, p, -3 * bj[p] / (2 * h))
        sadd(p, p + strides[j], 4 * bj[p] / (2 * h))
        sadd(p, p + 2 * strides[j], -bj[p] / (2 * h))
        p = all_nodes[bwd]
        sadd(p, p, 3 * bj[p] / (2 * h))
        sadd(p, p - strides[j], -4 * bj[p] / (2 * h))
        sadd(p, p - 2 * strides[j], bj[p] / (2 * h))
        # faces: reflection makes the odd derivative vanish (neumann);
        # dirichlet rows are replaced later, nothing to add

    s_rows = np.concatenate(s_rows) if s_rows else np.empty(0, int)
    s_cols = np.concatenate(s_cols) if s_cols else np.empty(0, int)
    s_vals = np.concatenate(s_vals) if s_vals else np.empty(0)

    # ---- coupling: first-order Btilde terms (centered) and potential C
    c_rows, c_cols, c_vals = [], [], []
    for j in range(d):
        ij = ax_idx[j]
        interior = (ij > 0) & (ij < n - 1)
        p = all_nodes[interior]
        for k in range(m):
            for l in range(m):
                coeff = Btv[j, k, l]
                if not np.any(coeff):
                    continue
                c_rows.append(k * N + p)
                c_cols.append(l * N + p + strides[j])
                c_vals.append(coeff[p] / (2 * h))
                c_rows.append(k * N + p)
                c_cols.append(l * N + p - strides[j])
                c_vals.append(-coeff[p] / (2 * h))
    for k in range(m):
        for l in range(m):
            coeff = Cv[k, l]
            if not np.any(coeff):
                continue
            c_rows.append(k * N + all_nodes)
            c_cols.append(l * N + all_nodes)
            c_vals.append(coeff)

    # replicate the scalar part on each diagonal block
    rows = [s_rows + k * N for k in range(m)] + c_rows
    cols = [s_cols + k * N for k in range(m)] + c_cols
    vals = [s_vals] * m + c_vals
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)

    if bc == "dirichlet":
        keep = ~bnd[rows % N]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]

    A = sp.coo_matrix((vals, (rows, cols)), shape=(m * N, m * N))
    return A.tocsr()


class _Stepper:
    """Shared backward-Euler stepping engine with LU reuse.

    A time-independent spec is assembled once and keeps one LU per step
    size, so a ladder that alternates step sizes factorises each size
    once.  A time-dependent spec keys its LU by (t, dt) and holds at
    most one, as every step of its ladder needs a fresh one."""

    def __init__(self, spec, grid, bc):
        self.spec = spec
        self.grid = grid
        self.bc = bc
        self.time_dep = spec.depends_on_t()
        self._lus = {}  # (t or None, dt) -> LU of I - dt*A
        self._A = None  # the operator at the time of the last factor
        self.bnd = grid.boundary_mask()

    def factor(self, t_new, dt):
        key = (round(t_new, 12), round(dt, 12)) if self.time_dep \
            else (None, round(dt, 12))
        if key in self._lus:
            return self._lus[key]
        if self.time_dep:
            self._lus.clear()
        if self.time_dep or self._A is None:
            self._A = assemble_operator(self.spec, self.grid, t_new, self.bc)
        M = (sp.identity(self._A.shape[0], format="csr")
             - dt * self._A).tocsc()
        self._lus[key] = spla.splu(M)
        return self._lus[key]

    def step(self, values, t_new, dt):
        """values: (m, N, ...) -> one backward-Euler step."""
        m = self.spec.m
        N = self.grid.n_nodes
        lu = self.factor(t_new, dt)
        shape = values.shape
        rhs = values.reshape(m * N, -1).copy()
        if self.bc == "dirichlet":
            mask = np.tile(self.bnd, m)
            rhs[mask] = 0.0
        out = lu.solve(rhs)
        if not np.all(np.isfinite(out)) or np.max(np.abs(out)) > BLOWUP_GUARD:
            raise EvolveError(f"blow-up detected at t={t_new}")
        return out.reshape(shape)

    def march(self, values, times, source=None):
        """Step values (m, N, ...) along the ladder times, yielding each
        new level.  source, when given, holds one array per step:
        step * source[l - 1] is added to the right-hand side of the step
        onto times[l]."""
        for l in range(1, len(times)):
            step = times[l] - times[l - 1]
            rhs = values if source is None else values + step * source[l - 1]
            values = self.step(rhs, times[l], step)
            yield values

    def final(self, values, times, source=None):
        """Last level of march(values, times, source); earlier levels
        are dropped as soon as the next one exists."""
        return deque(self.march(values, times, source), maxlen=1).pop()


def _time_ladder(s, t, dt):
    if not t > s:
        raise ValueError("need t > s")
    n_steps = max(1, int(np.ceil((t - s) / dt - 1e-12)))
    return np.linspace(s, t, n_steps + 1)


def evolve(spec, f: GridFunction, s, t, dt, bc=None):
    """Evolve initial data f from time s to t; returns u(t, .)."""
    bc = bc or f.bc
    vals = _Stepper(spec, f.grid, bc).final(f.values, _time_ladder(s, t, dt))
    return GridFunction(f.grid, spec.m, vals, bc=bc)
