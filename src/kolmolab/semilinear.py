"""Backward semilinear problem solved by a mollified Picard scheme.

The terminal-value problem D_t u + A u = Psi(u), u(T, .) = g with
Psi(u)(t,x) = psi(x, sqrtQ(t,x) (J_x u(t,x))^T) is marched in
tau = T - t from g, each step with A at the physical time T - tau, and
iterated: each Picard sweep is one implicit ladder pass with the
nonlinear source frozen at the previous iterate.  The natural norm is

    ||u|| = sup|u| + sup_t sqrt(T-t) sup|sqrtQ (J_x u)^T|,

and the time ladder is square-root graded near tau = 0 where the
gradient factor is singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsl import parse_state_expr
from .evolve import _Stepper, _time_ladder
from .grids import Solution, gradient, weighted_gradient_sup

__all__ = ["Nonlinearity", "nonlinearity_from_exprs", "mollify_nonlinearity",
           "mild_solve", "kt_norm", "MildSolution", "sqrtQ_at"]


@dataclass
class Nonlinearity:
    """psi: (x in R^d, z in R^{d x m}) -> R^m with linear growth in z."""

    d: int
    m: int
    fn: object  # callable (x_pts (d,N), z (d,m,N)) -> (m,N)
    reads: np.ndarray = None  # (d, m) bool, the z_ik fn names; None: all

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

    names = set().union(*(e.free_variables() for e in exprs))
    reads = np.array([[f"z{i + 1}{k + 1}" in names for k in range(m)]
                      for i in range(d)])
    return Nonlinearity(d, m, fn, reads)


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
    reads = np.ones((d, m), bool) if nl.reads is None else nl.reads
    stencil = [(i, k, sgn) for i in range(d) for k in range(m)
               for sgn in (+1.0, -1.0)]

    def fn(x, z):
        zn = np.sqrt(np.sum(z ** 2, axis=(0, 1)))
        cut = _theta(zn / n)
        # psi is evaluated at the centre and at the shifts of the entries
        # it reads; a shift of an unread entry gives psi at z plus +0.0,
        # which is the centre's value unless z holds a -0.0
        shifted = [z]
        if np.signbit(z[z == 0]).any():
            shifted.append(z + 0.0)
        plain = len(shifted) - 1
        slots = []  # the index in shifted of each stencil point
        for i, k, sgn in stencil:
            if reads[i, k]:
                dz = np.zeros_like(z)
                dz[i, k] = sgn * width
                shifted.append(z + dz)
            slots.append(len(shifted) - 1 if reads[i, k] else plain)
        # one psi call on those points, stacked along the sample axis;
        # summing the slices one by one in stencil order rounds like one
        # call per stencil point
        N = z.shape[-1]
        vals = nl(np.tile(x, len(shifted)), np.concatenate(shifted, -1))
        acc = vals[:, :N].copy()
        for j in slots:
            acc += vals[:, j * N:(j + 1) * N]
        return cut * acc / (1 + len(slots))

    return Nonlinearity(d, m, fn)


def sqrtQ_at(spec, t, pts):
    """Symmetric square root of Q(t, x), (..., d, d, N) for t and each
    coordinate row of pts broadcasting to (..., N)."""
    Qv = np.moveaxis(spec.Q_at(t, pts), (0, 1), (-2, -1))  # (..., N, d, d)
    # eigh gives this root bit for bit, but at 20,000 paths it takes
    # 0.55 ms a call to sqrt's 0.02 ms, and such a run makes ~130 calls
    if spec.d == 1:
        return np.moveaxis(np.sqrt(Qv), -3, -1)
    w, V = np.linalg.eigh(Qv)
    root = (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)
    # contiguous, because einsum on the strided view is ~18x slower
    return np.ascontiguousarray(np.moveaxis(root, -3, -1))


@dataclass
class MildSolution(Solution):
    """mild_solve's Solution, with its norm's sqrtQ and Picard record."""

    sqrtQ: np.ndarray  # (levels, d, d, N): sqrtQ_at(spec, t, points)
    kt_norm: float = None
    picard_history: list = field(default_factory=list)
    converged: bool = True  # False when Picard ran out of iterations
    # the MildSolutions of mild_solve's coarser, in order
    rungs: list = field(default_factory=list)


GRADED_STEPS = 8  # steps of the graded part of the ladder
# samples per psi call of mild_solve's forcing (whole levels, at least
# one): past a cache-sized block, psi's temporaries cost more than the
# calls they save
_BLOCK = 8192


def _graded_ladder(T, dt):
    """tau ladder on [0, T]: square-root graded on the first dt, then
    uniform.  tau = 0 corresponds to t = T where the gradient weight is
    singular."""
    uniform = _time_ladder(0.0, T, dt)
    graded = uniform[1] * (np.arange(GRADED_STEPS + 1) / GRADED_STEPS) ** 2
    return np.unique(np.concatenate([graded, uniform]))


def kt_norm(sol: MildSolution):
    """sup|u| plus the sqrt(T-t)-weighted sqrtQ-gradient sup over the
    probe box Grid.probe."""
    return float(np.max(np.abs(sol.values[..., sol.grid.probe]))) + \
        weighted_gradient_sup(sol.grid, sol.sqrtQ, sol.values,
                              sol.times[-1] - sol.times)


def mild_solve(spec, nl, grid, g, s, T, dt, picard_tol=1e-8, max_iter=40,
               coarser=()):
    """Picard iteration for the backward semilinear problem on [s, T]
    with terminal data g (m, N) on grid, with the Picard deltas measured
    on the probe box Grid.probe.

    nl may be None (linear case).  Returns a MildSolution on the forward
    time ladder over [s, T] with the terminal data at t = T exactly.

    Each nonlinearity in coarser (the coarser rungs of a mollify ladder)
    is solved in the same loop: the rungs share the linear start, and
    each sweep is one march with a right-hand-side column per rung that
    has not yet converged.  A rung keeps its own deltas and stopping
    test, and its MildSolution comes back in the result's rungs."""
    mask = grid.probe
    pts = grid.points()
    stepper = _Stepper(spec, grid, T)
    taus = _graded_ladder(T - s, dt)
    times = T - taus  # the physical time of each level, descending
    roots = sqrtQ_at(spec, times[:, None], pts[:, None, :])

    def forcing(nl, levels):
        """Source -Psi(u) of every step of the forward problem, with u
        the previous iterate at the step's new level: one psi call per
        block of levels stacked along the sample axis."""
        z = np.einsum("lidN,lmdN->limN", roots[1:],
                      gradient(grid, levels[1:]))  # (L-1, d, m, N)
        steps, d, m, N = z.shape
        per = max(1, _BLOCK // N)  # levels per block
        source = np.empty((steps, m, N))
        for a in range(0, steps, per):
            zb = np.moveaxis(z[a:a + per], 0, 2).reshape(d, m, -1)
            psi = nl(np.tile(pts, zb.shape[-1] // N), zb)
            source[a:a + per] = -np.moveaxis(psi.reshape(m, -1, N), 1, 0)
        return source

    nls = [*coarser, nl]
    linear = np.stack([g, *stepper.march(g, taus)])
    current = [linear] * len(nls)
    histories = [[] for _ in nls]
    active = [r for r, f in enumerate(nls) if f is not None]
    for _ in range(max_iter):
        if not active:
            break
        # one column per active rung; each column solves as it would
        # alone, so a rung's numbers do not depend on its neighbours
        source = np.stack([forcing(nls[r], current[r]) for r in active], -1)
        nxt = np.empty((len(active), *linear.shape))
        nxt[:, 0] = g
        levels = stepper.march(g[..., None], taus, source)
        for l, level in enumerate(levels, 1):
            nxt[:, l] = np.moveaxis(level, -1, 0)
        for r, u in zip(list(active), nxt):
            diff = u - current[r]
            delta = float(np.max(np.abs(diff[..., mask]))) + \
                weighted_gradient_sup(grid, roots, diff, taus)
            histories[r].append(delta)
            current[r] = u
            if delta <= picard_tol:
                active.remove(r)
    sols = []
    for r, (u, history) in enumerate(zip(current, histories)):
        sol = MildSolution(grid, times[::-1], u[::-1], roots[::-1],
                           picard_history=history,
                           converged=r not in active)
        sol.kt_norm = kt_norm(sol)
        sols.append(sol)
    *rungs, sol = sols
    sol.rungs = rungs
    return sol
