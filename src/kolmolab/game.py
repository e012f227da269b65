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

from .fbsde import cost, path_z

__all__ = ["GameError", "minimax_select", "nash_check"]

_MAX_SWEEPS = 64  # best-response sweeps before a sample counts as cycling


class GameError(RuntimeError):
    pass


def minimax_select(ds, t, x, z):
    """Pure-strategy best-response fixed point at each sample.

    x is (d, K), z is (players, d, K).  Returns the (players, K) control
    values u and, from i's last answer (against the others' equilibrium
    picks; a player is answered again only after another's pick moved),
    per player i (pick, r, h): u[i]'s index in i's control set V, and the
    drifts r (len(V), d, K) and own running costs h (len(V), K) at i's
    values (h is None without a running cost).  Samples that cycle
    without a fixed point raise an explicit error."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    players = ds.n_players
    if players == 0:
        raise GameError("no control sets declared")
    K = x.shape[1]
    sets = [np.asarray(V, dtype=float) for V in ds.controls]
    r1 = ds.r1_at(t, x)  # the u-free part, once per selection
    idx = np.zeros((players, K), dtype=int)  # lexicographic start
    # per player: every pick (its own and the others') at its last answer
    seen, sweep = [None] * players, [None] * players
    for _ in range(_MAX_SWEEPS):
        changed = np.zeros(K, dtype=bool)
        for i in range(players):
            # i's answer reads x, z[i] and the others' picks only, and
            # idx[i] moves only when i answers: unmoved others, same answer
            if seen[i] is not None and np.array_equal(seen[i], idx):
                continue
            vals = np.stack([sets[j][idx[j]] for j in range(players)])
            best = np.full(K, np.inf)
            pick = np.zeros(K, dtype=int)
            r = np.empty((len(sets[i]), ds.d, K))
            h = None if ds.h is None else np.empty((len(sets[i]), K))
            for a, v in enumerate(sets[i]):
                vals[i] = v
                if ds.r2 is None:
                    r[a] = r1
                else:
                    np.add(r1, ds.r2(x, vals), out=r[a])
                ham = np.einsum("dK,dK->K", z[i], r[a])
                if h is not None:
                    h[a] = ds.h(i, x, vals)
                    ham = ham + h[a]
                # strict improvement only: first minimizer wins ties
                better = ham < best - 1e-14
                pick[better] = a
                best[better] = ham[better]
            changed |= pick != idx[i]
            idx[i] = pick
            seen[i], sweep[i] = idx.copy(), (pick, r, h)
        if not np.any(changed):
            return np.stack([sets[j][idx[j]] for j in range(players)]), sweep
    bad = np.flatnonzero(changed)
    raise GameError(
        f"best-response cycle at {len(bad)} of {K} samples "
        f"(first indices {bad[:5].tolist()}); no pure fixed point")


def nash_check(ds, sol, base):
    """Deviation test for the best-response strategy profile on the
    uncontrolled path batch base.

    The equilibrium controls are picked once per step by minimax_select
    at z = G (J_x u)^T of sol along the paths (z = 0 when sol is None).
    Its settling sweep gives r and h at the equilibrium and at every
    constant deviation of one player to one of its own values, so one
    pass accumulates log rho and the running cost of them all.  Each
    dJ = J_i(deviation) - J_i(equilibrium) is estimated on paired paths;
    a row passes when dJ >= -3 stderr and its weights are not
    degenerate.  PASS when every row passes, INCONCLUSIVE when only
    degenerate rows fail, else FAIL."""
    players = ds.n_players
    if sol is not None and sol.m < players:
        raise GameError("solution has fewer components than players")
    # per player: row 0 the equilibrium, row 1 + a the deviation to V[a]
    log_rho = [np.zeros((1 + len(V), base.N)) for V in ds.controls]
    running = [np.zeros_like(rows) for rows in log_rho]
    samples = np.arange(base.N)
    for l in range(base.steps):
        t, pts, dW = base.times[l], base.X[l], base.dW[l]
        z = np.zeros((players, ds.d, base.N)) if sol is None \
            else path_z(sol, ds, t, pts)[:players]
        _, sweep = minimax_select(ds, t, pts, z)
        for i, (pick, r, h) in enumerate(sweep):
            at = pick * base.N + samples  # (pick, sample) in a (len(V), N)
            drift = np.einsum("adN,dN->aN", r, dW)
            log_rho[i][1:] += drift
            log_rho[i][0] += np.take(drift, at)
            square = 0.5 * base.h_step * np.sum(r ** 2, axis=1)
            log_rho[i][1:] -= square
            log_rho[i][0] -= np.take(square, at)
            if h is not None:
                paid = base.h_step * h
                running[i][1:] += paid
                running[i][0] += np.take(paid, at)
    terminal = np.asarray(ds.g(base.X[-1]))
    rows, J_eq, failed = [], [], []
    for i, V in enumerate(ds.controls):
        # exp of each (N,) row on its own, as girsanov_weights takes it
        rho = np.stack([np.exp(row) for row in log_rho[i]])
        pay = rho * (running[i] + terminal[i])
        J_eq.append(cost(pay[0], rho[0]))
        for a, v in enumerate(V):
            gap = cost(pay[1 + a] - pay[0], rho[1 + a])
            ok = gap["J"] >= -3 * gap["stderr"] and not gap["degenerate"]
            if not ok:
                failed.append(gap["degenerate"])
            rows.append({"player": i, "deviation": float(v), "dJ": gap["J"],
                         "stderr": gap["stderr"], "pass": ok})
    verdict = "PASS" if not failed else \
        "INCONCLUSIVE" if all(failed) else "FAIL"
    return {"verdict": verdict, "rows": rows, "J_equilibrium": J_eq}
