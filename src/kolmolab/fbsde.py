"""Monte-Carlo side of the operator: forward diffusion paths, the
identification Y = u(tau, X_tau), Z = G (J_x u)^T along paths, the
backward-equation residual, exponential-martingale reweighting for
controlled drifts, and weighted cost functionals.

Path generation uses a counter-based generator keyed per path so the
ensemble is schedule independent: path p always consumes the stream
Philox(key=(seed, p)) no matter how the batch is partitioned.  One
Philox generator serves the whole batch; before each path its state is
reset to counter 0 and key (seed, p), which reproduces a fresh
Philox(key=[seed, p]) bit for bit without building one per path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .semilinear import sqrtQ_at

__all__ = ["FbsdeError", "DiffusionSpec", "PathBatch", "YZProcess",
           "horizon_steps", "simulate_forward", "path_z", "identify_yz",
           "bsde_residual", "girsanov_weights", "payoffs", "cost"]

_EXPLODE = 1e9
_MAX_ESCAPE_FRAC = 0.05  # identify_yz refuses more escaped paths


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
    h: object = None  # running cost callable (pts, u) -> (players,N)

    @property
    def d(self):
        return self.op.d

    @property
    def n_players(self):
        return len(self.controls)

    def G_at(self, t, pts):
        return np.sqrt(2.0) * sqrtQ_at(self.op, t, pts)

    def r_at(self, t, pts, u=None):
        """(d, N) controlled drift direction."""
        N = pts.shape[1]
        out = np.zeros((self.d, N))
        if self.r1 is not None:
            for i, e in enumerate(self.r1):
                out[i] += e(t, pts)
        if self.r2 is not None and u is not None:
            out += np.asarray(self.r2(pts, u), dtype=float)
        return out


@dataclass
class PathBatch:
    N: int
    h_step: float
    times: np.ndarray  # (steps + 1,)
    X: np.ndarray  # (N, steps + 1, d)
    dW: np.ndarray  # (N, steps, d)
    rho: np.ndarray = None  # (N,)
    controls: np.ndarray = None  # (N, steps, players)
    exploded: np.ndarray = field(default_factory=lambda: np.zeros(0, int))

    @property
    def steps(self):
        return self.dW.shape[1]

    @property
    def d(self):
        return self.X.shape[2]


@dataclass
class YZProcess:
    Y: np.ndarray  # (N, steps + 1, m)
    Z: np.ndarray  # (N, steps + 1, m, d), Z[n,l,k,i] = (G (J_x u)^T)_{ik}
    valid: np.ndarray  # (N,) bool, paths that stayed inside the box
    n_excluded: int = 0


def _path_normals(seed, N, steps, d):
    """(N, steps, d) standard normals; path p is drawn from the stream
    Philox(key=[seed, p]) by re-keying one generator."""
    bits = np.random.Philox(key=[seed, 0])
    gen = np.random.Generator(bits)
    fresh = bits.state  # counter 0, empty buffer
    key = fresh["state"]["key"]  # keeps Philox's own conversion of seed
    out = np.empty((N, steps, d))
    for p in range(N):
        key[1] = p
        bits.state = fresh
        out[p] = gen.standard_normal((steps, d))
    return out


def horizon_steps(horizon, h_step):
    """Number of h_step steps covering the horizon; raises unless h_step
    divides it."""
    steps = int(round(horizon / h_step))
    tol = 1e-10 * max(1.0, horizon)
    if steps < 1 or abs(steps * h_step - horizon) > tol:
        raise FbsdeError("h_step must divide the horizon T - t")
    return steps


def simulate_forward(ds: DiffusionSpec, x0, t, T, h_step, N, seed):
    """Euler-Maruyama ensemble of the forward diffusion."""
    d = ds.d
    steps = horizon_steps(T - t, h_step)
    x0 = np.broadcast_to(np.asarray(x0, dtype=float).reshape(-1), (d,))
    times = t + h_step * np.arange(steps + 1)
    dW = np.sqrt(h_step) * _path_normals(seed, N, steps, d)
    X = np.empty((N, steps + 1, d))
    X[:, 0, :] = x0
    alive = np.ones(N, dtype=bool)
    for l in range(steps):
        pts = X[:, l, :].T  # (d, N)
        bv = ds.op.b_at(times[l], pts)  # (d, N)
        Gv = ds.G_at(times[l], pts)  # (d, d, N)
        noise = np.einsum("abN,Nb->Na", Gv, dW[:, l, :])
        nxt = X[:, l, :] + h_step * bv.T + noise
        blown = np.max(np.abs(nxt), axis=1) > _EXPLODE
        alive &= ~blown
        # freeze exploded paths at their last finite state
        nxt[~alive] = X[~alive, l, :]
        X[:, l + 1, :] = nxt
    return PathBatch(N=N, h_step=float(h_step), times=times, X=X, dW=dW,
                     rho=np.ones(N), exploded=np.flatnonzero(~alive))


def path_z(sol, ds: DiffusionSpec, t, pts):
    """(m, d, N) gradient matrix z = G (J_x u)^T of sol at (t, pts)."""
    return np.einsum("idN,mdN->miN", ds.G_at(t, pts), sol.grad_eval(t, pts))


def identify_yz(sol, ds: DiffusionSpec, batch: PathBatch):
    """Sample Y = u(tau, X_tau) and Z = G (J_x u)^T along the paths."""
    grid = sol.grid
    N, steps = batch.N, batch.steps
    m = sol.m
    inside = np.max(np.abs(batch.X), axis=(1, 2)) < grid.L
    inside &= np.isin(np.arange(N), batch.exploded, invert=True)
    n_excluded = int(N - np.sum(inside))
    if n_excluded > _MAX_ESCAPE_FRAC * N:
        raise FbsdeError(
            f"{n_excluded}/{N} paths escaped the box [-{grid.L}, {grid.L}]"
            f"^d; enlarge L before identifying Y and Z")
    Y = np.zeros((N, steps + 1, m))
    Z = np.zeros((N, steps + 1, m, ds.d))
    for l in range(steps + 1):
        tl = batch.times[l]
        pts = batch.X[:, l, :].T  # (d, N)
        Y[:, l, :] = sol.eval(tl, pts).T
        Z[:, l, :, :] = np.moveaxis(path_z(sol, ds, tl, pts), 2, 0)
    # terminal condition holds exactly by construction
    Y[:, -1, :] = ds.g(batch.X[:, -1, :].T).T
    return YZProcess(Y=Y, Z=Z, valid=inside, n_excluded=n_excluded)


def _hamiltonian_drift(ds: DiffusionSpec, nl, t, pts, Z_l):
    """H(t, x, z) for the backward drift: the coupling term
    sum_i Btilde_i (G^{-1} z)_i minus the semilinear source evaluated at
    the sqrt(Q)-scaled gradient z / sqrt(2)."""
    Gv = np.moveaxis(ds.G_at(t, pts), 2, 0)  # (N, d, d)
    Du = np.linalg.solve(Gv, np.moveaxis(Z_l, 1, 2))  # (N, d, m): D_i u_k
    Btv = ds.op.Btilde_at(t, pts)  # (d, m, m, N)
    H = np.einsum("ijkN,Nik->Nj", Btv, Du)
    if nl is not None:
        # spatial-first layout z[i, k, N] expected by the source, scaled
        # down to the sqrt(Q)-weighted gradient since Q = G^2 / 2
        z_semi = Z_l.transpose(2, 1, 0) / np.sqrt(2.0)
        H -= nl(pts, z_semi).T
    return H  # (N, m)


def bsde_residual(yz: YZProcess, ds: DiffusionSpec, nl, batch: PathBatch):
    """L2 norm of R = Y_t + sum Z dW - g(X_T) - sum H h over valid paths,
    with the per-time partial-residual profile."""
    steps = batch.steps
    R = yz.Y[:, 0, :] - yz.Y[:, -1, :]
    profile = np.zeros(steps)
    for l in range(steps):
        pts = batch.X[:, l, :].T
        H = _hamiltonian_drift(ds, nl, batch.times[l], pts, yz.Z[:, l])
        R += np.einsum("Nmi,Ni->Nm", yz.Z[:, l], batch.dW[:, l, :])
        R -= batch.h_step * H
        profile[l] = float(np.sqrt(np.mean(
            np.sum(R[yz.valid] ** 2, axis=1))))
    resid = float(np.sqrt(np.mean(np.sum(R[yz.valid] ** 2, axis=1))))
    return resid, profile


def girsanov_weights(ds: DiffusionSpec, batch: PathBatch, controls):
    """Attach exponential-martingale weights for the controlled drift.

    controls is the (N, steps, players) array of control values, or None
    for the uncontrolled base measure.  rho = exp(sum <r, dW>
    - 1/2 sum |r|^2 h)."""
    log_rho = np.zeros(batch.N)
    for l in range(batch.steps):
        u = None if controls is None else controls[:, l, :].T
        r = ds.r_at(batch.times[l], batch.X[:, l, :].T, u)  # (d, N)
        log_rho += np.einsum("dN,Nd->N", r, batch.dW[:, l, :])
        log_rho -= 0.5 * batch.h_step * np.sum(r ** 2, axis=0)
    return replace(batch, rho=np.exp(log_rho), controls=controls)


def payoffs(ds: DiffusionSpec, batch: PathBatch):
    """Per-path weighted payoffs rho (running + terminal), one row per
    player (per row of h; per row of g without h)."""
    running = 0
    terminal = np.asarray(ds.g(batch.X[:, -1, :].T))
    if ds.h is not None:
        for l in range(batch.steps):
            u = None if batch.controls is None else batch.controls[:, l, :].T
            running = running + batch.h_step * np.asarray(
                ds.h(batch.X[:, l, :].T, u))
        terminal = terminal[:len(running)]
    return batch.rho * (running + terminal)


def cost(batch: PathBatch, payoff):
    """Weighted Monte-Carlo estimate of a player's cost from its per-path
    payoffs(ds, batch)[i], with its standard error and an
    effective-sample-size degeneracy flag."""
    N = batch.N
    est = float(np.mean(payoff))
    stderr = float(np.std(payoff, ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    ess = float(np.sum(batch.rho) ** 2 / np.sum(batch.rho ** 2))
    return {"J": est, "stderr": stderr, "ess": ess,
            "degenerate": bool(ess < N / 100)}
