"""Finite-control stochastic game layer: pointwise best-response
selection for the per-player Hamiltonians and the Nash-deviation test.

Player i's Hamiltonian coordinate at a sample (x, z) is

    Htilde_i(u) = <z^i, r(t, x, u)> + h_i(x, u)

with z^i the i-th row of the gradient matrix z.  The selector iterates
pure best responses over the finite control products; ties break
lexicographically (first minimizer wins) so the table is deterministic.
"""

from __future__ import annotations

import numpy as np

from .fbsde import cost, girsanov_weights, path_z, payoffs

__all__ = ["GameError", "minimax_select", "nash_check"]

_MAX_SWEEPS = 64  # best-response sweeps before a sample counts as cycling


class GameError(RuntimeError):
    pass


def _htilde(ds, t, x, z, u_vals, i):
    """Player i's Hamiltonian at every sample; u_vals is (players, K)."""
    r = ds.r_at(t, x, u_vals)  # (d, K)
    out = np.einsum("dK,dK->K", z[i], r)
    if ds.h is not None:
        out = out + np.asarray(ds.h(x, u_vals))[i]
    return out


def minimax_select(ds, t, x, z):
    """Pure-strategy best-response fixed point at each sample.

    x is (d, K), z is (players, d, K).  Returns (players, K) control
    values.  Samples that cycle without reaching a fixed point raise an
    explicit error rather than picking silently."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    players = ds.n_players
    if players == 0:
        raise GameError("no control sets declared")
    K = x.shape[1]
    sets = [np.asarray(V, dtype=float) for V in ds.controls]
    idx = np.zeros((players, K), dtype=int)  # lexicographic start
    settled = np.zeros(K, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        changed = np.zeros(K, dtype=bool)
        for i in range(players):
            vals = np.stack([sets[j][idx[j]] for j in range(players)])
            best = np.full(K, np.inf)
            pick = np.zeros(K, dtype=int)
            for a, v in enumerate(sets[i]):
                vals[i] = v
                ham = _htilde(ds, t, x, z, vals, i)
                # strict improvement only: first minimizer wins ties
                better = ham < best - 1e-14
                pick[better] = a
                best[better] = ham[better]
            changed |= pick != idx[i]
            idx[i] = pick
        settled = ~changed
        if np.all(settled):
            break
    if not np.all(settled):
        bad = np.flatnonzero(~settled)
        raise GameError(
            f"best-response cycle at {len(bad)} of {K} samples "
            f"(first indices {bad[:5].tolist()}); no pure fixed point")
    return np.stack([sets[j][idx[j]] for j in range(players)])


def nash_check(ds, sol, base):
    """Deviation test for the best-response strategy profile on the
    uncontrolled path batch base.

    The equilibrium controls are picked once per step by minimax_select
    at z = G (J_x u)^T of sol along the paths (z = 0 when sol is None).
    For every player and every constant deviation to one of its own
    control values the cost difference
    dJ = J_i(deviation) - J_i(equilibrium) is estimated on paired paths;
    the profile passes when dJ >= -3 stderr throughout."""
    players = ds.n_players
    if sol is not None and sol.m < players:
        raise GameError("solution has fewer components than players")
    eq = np.empty((base.N, base.steps, players))
    for l in range(base.steps):
        t, pts = base.times[l], base.X[:, l, :].T
        z = np.zeros((players, ds.d, base.N)) if sol is None \
            else path_z(sol, ds, t, pts)[:players]
        eq[:, l, :] = minimax_select(ds, t, pts, z).T
    batch_eq = girsanov_weights(ds, base, eq)
    pay_eq = payoffs(ds, batch_eq)
    J_eq = [cost(batch_eq, pay_eq[i]) for i in range(players)]
    rows = []
    for i in range(players):
        for v in ds.controls[i]:
            dev = eq.copy()
            dev[:, :, i] = v
            batch_dev = girsanov_weights(ds, base, dev)
            gap = cost(batch_dev, payoffs(ds, batch_dev)[i] - pay_eq[i])
            rows.append({"player": i, "deviation": float(v), "dJ": gap["J"],
                         "stderr": gap["stderr"],
                         "pass": gap["J"] >= -3 * gap["stderr"]})
    return {"verdict": all(r["pass"] for r in rows), "rows": rows,
            "J_equilibrium": J_eq}
