"""Finite-difference evolution operators on boxes [-L, L]^d.

Backward Euler in time with coefficients frozen at the new time level,
centered second-order differences in space, and second-order upwinding
of the diagonal drift where the cell Peclet number |b_j| h / lambda_Q
exceeds 2.  Every stencil is a table of (offset, integer weight) pairs
(D2, D2_FACE, CROSS, D1, D1_UP below); the scalar part Tr(Q D^2) +
<b, grad> is built once from them and copied onto each diagonal block,
and D1 also serves the Btilde coupling.  Dirichlet boundary rows are
identity rows with zero data; Neumann is realized by ghost-node
reflection in the stencils.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import Solution

__all__ = ["evolve", "assemble_operator", "EvolveError"]

BLOWUP_GUARD = 1e12


class EvolveError(RuntimeError):
    pass


# Scalar stencils as (offset in cells, integer weight); an entry is
# weight * coeff / scale.  A table mirrored (offsets negated) serves the
# other face, or, on the negated coefficient, the other upwind direction.
# The order of the entries is the order in which coo -> csr sums them.
D2 = ((-1, 1), (0, -2), (1, 1))  # Q_jj D_jj at interior nodes, on h^2
D2_FACE = ((0, -2), (1, 2))  # the same at a Neumann face, ghost folded in
CROSS = (((1, 1), 2), ((1, -1), -2), ((-1, 1), -2),
         ((-1, -1), 2))  # 2 Q_ab D_ab over axes a < b, on 4 h^2
D1 = ((1, 1), (-1, -1))  # b_j D_j centered, on 2h
D1_UP = ((0, -3), (1, 4), (2, -1))  # one-sided second order, on 2h


def assemble_operator(spec, grid, t):
    """Sparse matrix realizing the full operator on flat (m*N) vectors.

    Component-block layout: row k*N + p is the equation for component k
    at node p.  The scalar stencils of Tr(Q D^2) + <b, grad> fill each
    diagonal block; Btilde (centered) and C fill block (k, l).  The rows
    of grid.dirichlet are left empty (the stepper installs identity rows
    in I - dt*A).
    """
    d, m, n, h = spec.d, spec.m, grid.n, grid.h
    N = grid.n_nodes
    pts = grid.points()
    ax_idx = np.indices((n,) * d).reshape(d, N)  # axis indices of nodes
    strides = [n ** (d - 1 - j) for j in range(d)]
    live = ~grid.dirichlet

    Qv = spec.Q_at(t, pts)  # (d, d, N)
    bv = spec.b_at(t, pts)  # (d, N)
    Btv = spec.Btilde_at(t, pts)  # (d, m, m, N)
    Cv = spec.C_at(t, pts)  # (m, m, N)
    Qeig = np.linalg.eigvalsh(np.moveaxis(Qv, 2, 0))[:, 0]
    lam = np.maximum(Qeig, 1e-300)

    def entries(where, stencil, coeff, scale, axes, mirror=1, k=0, l=0):
        """(row, col, value) arrays of block (k, l), one triple per
        stencil entry at every live node of where; a column past a face
        is reflected back into the box."""
        p = np.flatnonzero(where & live)
        row, c, at = k * N + p, coeff[p], [ax_idx[j, p] for j in axes]
        for offset, weight in stencil:
            col = l * N + p
            for i, j, delta in zip(at, axes, np.atleast_1d(offset)):
                moved = n - 1 - np.abs(n - 1 - np.abs(i + mirror * delta))
                col = col + (moved - i) * strides[j]  # mirrored at faces
            yield row, col, weight * c / scale

    scalar = []
    for j in range(d):
        ij, qjj = ax_idx[j], Qv[j, j]
        scalar += entries((ij > 0) & (ij < n - 1), D2, qjj, h ** 2, [j])
        if grid.bc == "neumann":
            scalar += entries(ij == 0, D2_FACE, qjj, h ** 2, [j])
            scalar += entries(ij == n - 1, D2_FACE, qjj, h ** 2, [j], -1)
    for a, b in combinations(range(d), 2):
        qab = Qv[a, b]
        scalar += entries(np.abs(qab) > 0, CROSS, qab, 4 * h ** 2, [a, b])
    # drift; at a Neumann face reflection makes the odd derivative vanish
    for j in range(d):
        ij, bj = ax_idx[j], bv[j]
        up = np.abs(bj) * h / lam > 2.0  # cell Peclet number
        fwd = up & (bj > 0) & (ij <= n - 3)
        bwd = up & (bj < 0) & (ij >= 2)
        cen = ~(fwd | bwd) & (ij > 0) & (ij < n - 1)
        scalar += entries(cen, D1, bj, 2 * h, [j])
        scalar += entries(fwd, D1_UP, bj, 2 * h, [j])
        scalar += entries(bwd, D1_UP, -bj, 2 * h, [j], -1)

    # the scalar part on each diagonal block, then the coupling
    rows, cols, vals = map(np.concatenate, zip(*scalar))
    triplets = [(rows + k * N, cols + k * N, vals) for k in range(m)]
    for j in range(d):
        interior = (ax_idx[j] > 0) & (ax_idx[j] < n - 1)
        for k, l in np.ndindex(m, m):
            if np.any(Btv[j, k, l]):
                triplets += entries(interior, D1, Btv[j, k, l], 2 * h, [j],
                                    k=k, l=l)
    for k, l in np.ndindex(m, m):
        if np.any(Cv[k, l]):
            triplets += entries(True, [(0, 1)], Cv[k, l], 1, [0], k=k, l=l)
    rows, cols, vals = map(np.concatenate, zip(*triplets))
    A = sp.coo_matrix((vals, (rows, cols)), shape=(m * N, m * N))
    return A.tocsr()


# SuperLU options per dimension d.  At d = 2 a minimum-degree ordering
# of A^T + A with diagonal pivots (SymmetricMode, threshold 0.01) fills
# the LU of M = I - dt*A less than COLAMD does (about half on ex71ii);
# without the diagonal pivots, row swaps undo that order and the fill
# grows to about 4x COLAMD's on ex72.  d = 1 keeps COLAMD: its LU is
# tens of KB, so there is no fill to save, and another pivot order
# moves the late, cancelling Picard deltas of the semilinear stage by
# 1e-10.
LU_OPTIONS = {
    1: {},
    2: {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.01,
        "options": {"SymmetricMode": True}},
}


class _Stepper:
    """Shared backward-Euler stepping engine with LU reuse.

    With T given, the ladder times are tau = T - t of a backward problem
    and each step assembles A at the physical time T - tau.  A
    time-independent spec is assembled once and keeps one LU per step
    size until drop(), so a ladder that alternates step sizes
    factorises each size once.  A time-dependent spec keys its LU by
    (physical t, dt) and holds at most one, as every step of its ladder
    needs a fresh one."""

    def __init__(self, spec, grid, T=None):
        self.spec = spec
        self.grid = grid
        self.T = T
        self.time_dep = spec.depends_on_t()
        self._lus = {}  # (physical t or None, dt) -> LU of I - dt*A
        self._A = None  # the operator at the time of the last factor
        # Dirichlet rows of the flat (m*N) unknowns; none for neumann
        self.mask = np.tile(grid.dirichlet, spec.m)

    def factor(self, t_new, dt):
        t = t_new if self.T is None else self.T - t_new
        key = (round(t, 12), round(dt, 12)) if self.time_dep \
            else (None, round(dt, 12))
        if key in self._lus:
            return self._lus[key]
        if self.time_dep:
            self._lus.clear()
        if self.time_dep or self._A is None:
            self._A = assemble_operator(self.spec, self.grid, t)
        M = (sp.identity(self._A.shape[0], format="csr")
             - dt * self._A).tocsc()
        self._lus[key] = spla.splu(M, **LU_OPTIONS[self.spec.d])
        return self._lus[key]

    def drop(self):
        """Free every LU; the assembled operator is kept for the next
        step size."""
        self._lus.clear()

    def step(self, values, t_new, dt, adjoint=False):
        """values: (m, N, ...) -> one backward-Euler step
        out = M^{-1} P values, where M = I - dt*A and P zeroes the
        Dirichlet boundary rows (none for neumann); with adjoint, its
        transpose out = P M^{-T} values."""
        lu = self.factor(t_new, dt)
        shape = values.shape
        rhs = values.reshape(self.mask.size, -1)
        if adjoint:
            out = lu.solve(rhs, trans="T")
            out[self.mask] = 0.0
        else:
            out = lu.solve(np.where(self.mask[:, None], 0.0, rhs))
        if not np.max(np.abs(out)) <= BLOWUP_GUARD:  # NaN fails it too
            raise EvolveError(f"blow-up detected at t={t_new}")
        return out.reshape(shape)

    def march(self, values, times, source=None, adjoint=False):
        """Step values (m, N, ...) along the ladder times, yielding each
        new level.  source, when given, holds one array per step:
        step * source[l - 1] is added to the right-hand side of the step
        onto times[l].  With adjoint the ladder is walked down from
        times[-1], each step transposed."""
        want = (self.spec.m, self.grid.n_nodes)
        if values.shape[:2] != want:
            raise ValueError(f"values of shape {values.shape} do not start "
                             f"with the operator's (m, N) = {want}")
        steps = range(1, len(times))
        if adjoint and not self.time_dep:
            # each LU from the ladder's first forward step of its size,
            # so that it does not depend on the march's direction
            for l in steps:
                self.factor(times[l], times[l] - times[l - 1])
        for l in reversed(steps) if adjoint else steps:
            step = times[l] - times[l - 1]
            rhs = values if source is None else values + step * source[l - 1]
            values = self.step(rhs, times[l], step, adjoint)
            yield values

    def final(self, values, times, source=None, adjoint=False):
        """Last level of march(values, times, source, adjoint); earlier
        levels are dropped as soon as the next one exists."""
        return deque(self.march(values, times, source, adjoint),
                     maxlen=1).pop()

    def solve(self, values, times):
        """The Solution whose level l is values marched to times[l]."""
        return Solution(self.grid, times,
                        np.stack([values, *self.march(values, times)]))


def _time_ladder(s, t, dt):
    if not t > s:
        raise ValueError("need t > s")
    n_steps = max(1, int(np.ceil((t - s) / dt - 1e-12)))
    return np.linspace(s, t, n_steps + 1)


def evolve(spec, grid, f, s, t, dt):
    """Evolve initial data f (m, N) on grid from time s to t on
    _time_ladder(s, t, dt); returns the Solution whose level l is
    u(times[l], .), from f to u(t, .)."""
    return _Stepper(spec, grid).solve(f, _time_ladder(s, t, dt))
