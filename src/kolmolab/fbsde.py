"""Monte-Carlo side of the operator: forward diffusion paths, the
identification Y = u(tau, X_tau), Z = G (J_x u)^T along paths, the
backward-equation residual, exponential-martingale reweighting for
controlled drifts, and weighted cost functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import _time_ladder
from .semilinear import sqrtQ_at

__all__ = ["FbsdeError", "DiffusionSpec", "PathBatch", "YZProcess",
           "simulate_forward", "path_z", "valid_paths",
           "identify_yz", "bsde_residual", "girsanov_weights", "cost"]

_EXPLODE = 1e9
_MAX_ESCAPE_FRAC = 0.05  # valid_paths refuses more escaped paths


class FbsdeError(RuntimeError):
    pass


@dataclass
class DiffusionSpec:
    """Forward diffusion dX = b dtau + G dW tied to an operator spec.

    G = sqrt(2 Q), so that Q = G^2 / 2 holds by construction.
    r = r1(t, x) + r2(x, u) is the controlled drift direction, h the
    running cost per player, g the terminal cost.
    """

    op: object  # OperatorSpec supplying b, Q, Btilde
    g: object  # terminal cost callable pts (d,N) -> (m,N)
    r1: tuple = None  # d CoeffExprs, state-feedback part of r
    r2: object = None  # callable (pts, u (players,N)) -> (d,N)
    controls: tuple = ()  # per-player finite sets of control values
    h: object = None  # running cost callable (i, pts, u) -> player i's (N,)

    @property
    def d(self):
        return self.op.d

    @property
    def n_players(self):
        return len(self.controls)

    def G_at(self, t, pts):
        return np.sqrt(2.0) * sqrtQ_at(self.op, t, pts)

    def r1_at(self, t, pts):
        """(d, N) u-free part r1 of the drift direction r1 + r2(x, u)."""
        out = np.zeros((self.d, pts.shape[1]))
        if self.r1 is not None:
            for i, e in enumerate(self.r1):
                out[i] += e(t, pts)
        return out


@dataclass
class PathBatch:
    """Paths stored time first and samples last, as each step reads
    them: X[l] and dW[l] are (d, N)."""

    N: int
    h_step: float  # the ladder's own step (T - t)/steps
    times: np.ndarray  # (steps + 1,)
    X: np.ndarray  # (steps + 1, d, N)
    dW: np.ndarray  # (steps, d, N)
    exploded: np.ndarray  # indices of the paths that blew up

    @property
    def steps(self):
        return self.dW.shape[0]


@dataclass
class YZProcess:
    Y: np.ndarray  # (steps + 1, m, N)
    Z: np.ndarray  # (steps + 1, m, d, N), Z[l,k,i,n] = (G (J_x u)^T)_{ik}
    valid: np.ndarray  # (N,) bool, paths that stayed inside the box
    n_excluded: int = 0


def _path_normals(seed, N, steps, d):
    """(steps, d, N) standard normals from the one stream
    Philox(key=[seed, 0]); path p, column p, is its p-th block of
    steps * d draws, so a batch of N is the first N paths of any larger
    batch."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    return np.ascontiguousarray(
        np.moveaxis(gen.standard_normal((N, steps, d)), 0, -1))


def simulate_forward(ds: DiffusionSpec, x0, t, T, h_step, N, seed):
    """Euler-Maruyama ensemble of the forward diffusion on
    _time_ladder(t, T, h_step), stepping by its own step (T - t)/steps."""
    d = ds.d
    times = _time_ladder(t, T, h_step)
    steps = len(times) - 1
    h_step = (T - t) / steps
    x0 = np.broadcast_to(np.asarray(x0, dtype=float).reshape(-1), (d,))
    dW = np.sqrt(h_step) * _path_normals(seed, N, steps, d)
    X = np.empty((steps + 1, d, N))
    X[0] = x0[:, None]
    alive = np.ones(N, dtype=bool)
    for l in range(steps):
        bv = ds.op.b_at(times[l], X[l])  # (d, N)
        Gv = ds.G_at(times[l], X[l])  # (d, d, N)
        nxt = X[l] + h_step * bv + np.einsum("abN,bN->aN", Gv, dW[l])
        alive &= ~(np.max(np.abs(nxt), axis=0) > _EXPLODE)
        # freeze exploded paths at their last finite state
        nxt[:, ~alive] = X[l][:, ~alive]
        X[l + 1] = nxt
    return PathBatch(N=N, h_step=float(h_step), times=times, X=X, dW=dW,
                     exploded=np.flatnonzero(~alive))


def path_z(sol, ds: DiffusionSpec, t, pts):
    """(m, d, N) gradient matrix z = G (J_x u)^T of sol at (t, pts)."""
    return np.einsum("idN,mdN->miN", ds.G_at(t, pts), sol.grad_eval(t, pts))


def valid_paths(grid, batch: PathBatch):
    """(N,) mask of the paths that stayed inside the box and did not
    explode, and the number excluded; raises when too many escaped."""
    N = batch.N
    inside = np.max(np.abs(batch.X), axis=(0, 1)) < grid.L
    inside &= np.isin(np.arange(N), batch.exploded, invert=True)
    n_excluded = int(N - np.sum(inside))
    if n_excluded > _MAX_ESCAPE_FRAC * N:
        raise FbsdeError(
            f"{n_excluded}/{N} paths escaped the box [-{grid.L}, {grid.L}]"
            f"^d; enlarge L before identifying Y and Z")
    return inside, n_excluded


def identify_yz(sol, ds: DiffusionSpec, batch: PathBatch):
    """Sample Y = u(tau, X_tau) and Z = G (J_x u)^T along the paths."""
    inside, n_excluded = valid_paths(sol.grid, batch)
    Y = np.empty((batch.steps + 1, sol.m, batch.N))
    Z = np.empty((batch.steps + 1, sol.m, ds.d, batch.N))
    for l, (t, x) in enumerate(zip(batch.times, batch.X)):
        Y[l] = sol.eval(t, x)
        Z[l] = path_z(sol, ds, t, x)
    # terminal condition holds exactly by construction
    Y[-1] = ds.g(batch.X[-1])
    return YZProcess(Y=Y, Z=Z, valid=inside, n_excluded=n_excluded)


def _hamiltonian_drift(ds: DiffusionSpec, nl, t, pts, Z_l):
    """H(t, x, z) for the backward drift: the coupling term
    sum_i Btilde_i (G^{-1} z)_i minus the semilinear source evaluated at
    the sqrt(Q)-scaled gradient z / sqrt(2)."""
    Gv = np.moveaxis(ds.G_at(t, pts), 2, 0)  # (N, d, d)
    Du = np.linalg.solve(Gv, Z_l.T)  # (N, d, m): D_i u_k
    Btv = ds.op.Btilde_at(t, pts)  # (d, m, m, N)
    H = np.einsum("ijkN,Nik->jN", Btv, Du)
    if nl is not None:
        # spatial-first layout z[i, k, N] expected by the source, scaled
        # down to the sqrt(Q)-weighted gradient since Q = G^2 / 2
        H -= nl(pts, Z_l.transpose(1, 0, 2) / np.sqrt(2.0))
    return H  # (m, N)


def bsde_residual(yz: YZProcess, ds: DiffusionSpec, nl, batch: PathBatch):
    """L2 norm of R = Y_t + sum Z dW - g(X_T) - sum H h over valid paths,
    with the per-time partial-residual profile."""
    R = yz.Y[0] - yz.Y[-1]
    profile = np.zeros(batch.steps)
    for l in range(batch.steps):
        H = _hamiltonian_drift(ds, nl, batch.times[l], batch.X[l], yz.Z[l])
        R += np.einsum("miN,iN->mN", yz.Z[l], batch.dW[l])
        R -= batch.h_step * H
        profile[l] = np.sqrt(np.mean(np.sum(R[:, yz.valid] ** 2, axis=0)))
    return float(profile[-1]), profile


def girsanov_weights(ds: DiffusionSpec, batch: PathBatch):
    """(N,) exponential-martingale weights rho = exp(sum <r1, dW>
    - 1/2 sum |r1|^2 h) of the uncontrolled drift direction r1."""
    log_rho = np.zeros(batch.N)
    for l in range(batch.steps):
        r = ds.r1_at(batch.times[l], batch.X[l])  # (d, N)
        log_rho += np.einsum("dN,dN->N", r, batch.dW[l])
        log_rho -= 0.5 * batch.h_step * np.sum(r ** 2, axis=0)
    return np.exp(log_rho)


def cost(payoff, rho):
    """Weighted Monte-Carlo estimate of a player's cost from its per-path
    payoffs rho (running + terminal), with its standard error and an
    effective-sample-size degeneracy flag from the weights rho; weights
    that all underflowed to 0 have no effective sample."""
    N = len(rho)
    est = float(np.mean(payoff))
    stderr = float(np.std(payoff, ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    square = np.sum(rho ** 2)
    ess = float(np.sum(rho) ** 2 / square) if square > 0 else 0.0
    return {"J": est, "stderr": stderr, "ess": ess,
            "degenerate": not ess >= N / 100}
