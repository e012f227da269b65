import json
import os

import numpy as np
import pytest

from kolmolab.dsl import parse_coeff_expr
from kolmolab.fbsde import DiffusionSpec, cost, path_z, simulate_forward
from kolmolab.game import GameError, minimax_select, nash_check
from kolmolab.grids import Grid
from kolmolab.operators import example_family
from kolmolab.runner import _setup
from kolmolab.semilinear import mild_solve
from helpers import sample

GOLDEN_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                             "ex71ii_full.run")


def const_g(c):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return lambda pts: np.broadcast_to(c[:, None],
                                       (len(c), pts.shape[1])).copy()


def test_single_player_matches_brute_force():
    spec = example_family("heat", {"d": 1})
    V = (-1.0, -0.25, 0.0, 0.5, 1.0)
    ds = DiffusionSpec(
        op=spec, g=const_g([0.0]), controls=(V,),
        r2=lambda p, u: u[:1] * np.ones((1, p.shape[1])),
        h=lambda i, p, u: (u[i] - p[0]) ** 2)
    rng = np.random.default_rng(0)
    K = 50
    x = rng.uniform(-2, 2, (1, K))
    z = rng.uniform(-3, 3, (1, 1, K))
    got, _ = minimax_select(ds, 0.0, x, z)
    # exhaustive oracle: min over V of z*v + (v - x)^2 per sample
    hams = np.stack([z[0, 0] * v + (v - x[0]) ** 2 for v in V])
    expect = np.asarray(V)[np.argmin(hams, axis=0)]
    assert np.array_equal(got[0], expect)


def test_degenerate_game_lexicographic_tiebreak():
    spec = example_family("heat", {"d": 1})
    ds = DiffusionSpec(
        op=spec, g=const_g([0.0, 0.0]),
        controls=((0.3, 0.7), (5.0, 1.0)),
        h=lambda i, p, u: np.ones(p.shape[1]))  # control-independent
    x = np.zeros((1, 4))
    z = np.zeros((2, 1, 4))
    got, _ = minimax_select(ds, 0.0, x, z)
    # every profile is a fixed point; the starting lexicographic one wins
    assert np.all(got[0] == 0.3)
    assert np.all(got[1] == 5.0)


def test_separable_two_player_independent_argmins():
    spec = example_family("heat", {"d": 2})
    V1, V2 = (-1.0, 0.0, 1.0), (-2.0, 0.5, 2.0)

    def r2(p, u):
        out = np.zeros((2, p.shape[1]))
        out[0] = u[0]
        out[1] = u[1]
        return out

    def h(i, p, u):
        return (u[i] - (0.9, -1.8)[i]) ** 2 * np.ones(p.shape[1])

    ds = DiffusionSpec(op=spec, g=const_g([0.0, 0.0]),
                       controls=(V1, V2), r2=r2, h=h)
    rng = np.random.default_rng(1)
    K = 32
    x = rng.uniform(-1, 1, (2, K))
    z = rng.uniform(-1, 1, (2, 2, K))
    got, _ = minimax_select(ds, 0.0, x, z)
    for i, V in enumerate((V1, V2)):
        hams = np.stack([z[i, i] * v + h(i, x, np.full((2, K), v))
                         for v in V])
        expect = np.asarray(V)[np.argmin(hams, axis=0)]
        assert np.array_equal(got[i], expect)


def test_best_response_cycle_detected():
    spec = example_family("heat", {"d": 1})

    def h(i, p, u):
        same = (u[0] == u[1]).astype(float)
        return 1.0 - same if i else same  # matching-pennies payoffs

    ds = DiffusionSpec(op=spec, g=const_g([0.0, 0.0]),
                       controls=((0.0, 1.0), (0.0, 1.0)), h=h)
    x = np.zeros((1, 3))
    z = np.zeros((2, 1, 3))
    with pytest.raises(GameError, match="cycle"):
        minimax_select(ds, 0.0, x, z)


def test_nash_degenerate_zero_deltas():
    spec = example_family("heat", {"d": 1})
    ds = DiffusionSpec(op=spec, g=const_g([1.0]),
                       controls=((0.0, 1.0),),
                       h=lambda i, p, u: np.ones(p.shape[1]))
    report = nash_check(
        ds, None, simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 16, 512, 4))
    assert report["verdict"] == "PASS"
    for row in report["rows"]:
        assert abs(row["dJ"]) <= 3 * row["stderr"] + 1e-12


def test_nash_single_player_beats_constant_controls():
    spec = example_family("heat", {"d": 1})
    V = (-0.5, 0.0, 0.5)
    ds = DiffusionSpec(
        op=spec, g=const_g([2.0]), controls=(V,),
        r2=lambda p, u: 0.2 * u[:1] * np.ones((1, p.shape[1])),
        h=lambda i, p, u: u[i] ** 2 * np.ones(p.shape[1]))
    report = nash_check(
        ds, None, simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 16, 2000, 6))
    assert report["verdict"] == "PASS"
    # cross-check against exhaustive constant controls: u = 0 has the
    # smallest running cost and must match the equilibrium cost
    base = simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 16, 2000, 6)
    Js = []
    for v in V:
        u = np.full((1, 2000), v)
        log_rho, running = np.zeros(2000), 0
        for x, dW in zip(base.X, base.dW):
            r = ds.r2(x, u)
            log_rho += np.einsum("dN,dN->N", r, dW)
            log_rho -= 0.5 * base.h_step * np.sum(r ** 2, axis=0)
            running = running + base.h_step * ds.h(0, x, u)
        rho = np.exp(log_rho)
        Js.append(cost(rho * (running + ds.g(base.X[-1])[0]), rho)["J"])
    assert np.argmin(Js) == V.index(0.0)
    assert report["J_equilibrium"][0]["J"] == pytest.approx(Js[1], abs=1e-12)


def test_nash_separable_strict_deviations():
    spec = example_family("heat", {"d": 2})

    def h(i, p, u):
        return (u[i] - (1.0, -1.0)[i]) ** 2 * np.ones(p.shape[1])

    ds = DiffusionSpec(op=spec, g=const_g([0.0, 0.0]),
                       controls=((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)), h=h)
    report = nash_check(
        ds, None, simulate_forward(ds, [0.0, 0.0], 0.0, 0.4, 0.4 / 8, 256, 8))
    assert report["verdict"] == "PASS"
    for row in report["rows"]:
        best = 1.0 if row["player"] == 0 else -1.0
        if row["deviation"] != best:
            assert row["dJ"] > 0  # strictly suboptimal deviation costs


def test_nash_selects_equilibrium_once_per_step(monkeypatch):
    # r2 and h are read only inside a step's selection: the deviations
    # reuse its settling sweep
    calls, read, outside = [], [], []
    inside = [False]

    def counted(*args, **kwargs):
        calls.append(1)
        inside[0] = True
        try:
            return minimax_select(*args, **kwargs)
        finally:
            inside[0] = False

    def watched(fn):
        def wrapped(*args):
            (read if inside[0] else outside).append(1)
            return fn(*args)
        return wrapped

    monkeypatch.setattr("kolmolab.game.minimax_select", counted)
    spec = example_family("heat", {"d": 2})
    ds = DiffusionSpec(
        op=spec, g=const_g([0.0, 0.0]),
        controls=((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)),
        r2=watched(lambda p, u: 0.5 * u),
        h=watched(lambda i, p, u: u[i] ** 2 * np.ones(p.shape[1])))
    base = simulate_forward(ds, [0.0, 0.0], 0.0, 0.4, 0.4 / 8, 64, 3)
    report = nash_check(ds, None, base)
    assert len(report["rows"]) == 6
    assert len(calls) == base.steps
    assert read and not outside


def test_equilibrium_strategy_uses_gradient(monkeypatch):
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 6.0, 121, "neumann")
    sol = mild_solve(spec, None, grid, sample(grid, lambda p: p[0]), 0.0, 0.5,
                     dt=1e-2)
    # H~ = z * u with z = G du/dx ~ 1 > 0: minimizer is the most
    # negative control
    ds = DiffusionSpec(op=spec, g=lambda p: p[:1],
                       controls=((-1.0, 0.0, 1.0),),
                       r2=lambda p, u: u[:1] * np.ones((1, p.shape[1])))
    picks = []

    def spy(*args):
        out = minimax_select(*args)
        picks.append(out[0])
        return out

    monkeypatch.setattr("kolmolab.game.minimax_select", spy)
    base = simulate_forward(ds, 0.0, 0.0, 0.5, 0.5 / 8, 8, 5)
    nash_check(ds, sol, base)
    assert len(picks) == base.steps
    assert all(np.all(u == -1.0) for u in picks)


def test_callables_receive_contiguous_samples():
    # paths and controls are stored time first and samples last, so the
    # points and controls of every step reach r2, h and g without a copy
    seen = []

    def spy(fn):
        def wrapped(*args):
            seen.append(all(a.flags.c_contiguous for a in args
                            if isinstance(a, np.ndarray)))
            return fn(*args)
        return wrapped

    spec = example_family("heat", {"d": 2})
    ds = DiffusionSpec(
        op=spec, g=spy(lambda p: np.zeros((2, p.shape[1]))),
        controls=((-1.0, 0.0, 1.0), (-1.0, 1.0)),
        r2=spy(lambda p, u: 0.5 * u),
        h=spy(lambda i, p, u: u[i] ** 2 + p[i] ** 2))
    base = simulate_forward(ds, [0.1, -0.2], 0.0, 0.25, 0.25 / 4, 32, 1)
    report = nash_check(ds, None, base)
    assert len(report["rows"]) == 5
    assert len(seen) > 0 and all(seen)


def _per_deviation_nash(ds, sol, base):
    """The nash check as a (steps, players, N) equilibrium array, one copy
    of it per deviation, and r and h recomputed on every copy."""
    def r_at(t, pts, u):
        out = np.zeros((ds.d, pts.shape[1]))
        if ds.r1 is not None:
            for i, e in enumerate(ds.r1):
                out[i] += e(t, pts)
        if ds.r2 is not None:
            out += np.asarray(ds.r2(pts, u), dtype=float)
        return out

    def weights(controls):
        log_rho = np.zeros(base.N)
        for l in range(base.steps):
            r = r_at(base.times[l], base.X[l], controls[l])
            log_rho += np.einsum("dN,dN->N", r, base.dW[l])
            log_rho -= 0.5 * base.h_step * np.sum(r ** 2, axis=0)
        return np.exp(log_rho)

    def payoffs(controls, rho):
        running = 0
        terminal = np.asarray(ds.g(base.X[-1]))
        if ds.h is not None:
            for l in range(base.steps):
                running = running + base.h_step * np.stack(
                    [ds.h(i, base.X[l], controls[l])
                     for i in range(ds.n_players)])
            terminal = terminal[:len(running)]
        return rho * (running + terminal)

    players = ds.n_players
    eq = np.empty((base.steps, players, base.N))
    for l in range(base.steps):
        t, pts = base.times[l], base.X[l]
        z = np.zeros((players, ds.d, base.N)) if sol is None \
            else path_z(sol, ds, t, pts)[:players]
        eq[l] = minimax_select(ds, t, pts, z)[0]
    rho_eq = weights(eq)
    pay_eq = payoffs(eq, rho_eq)
    J_eq = [cost(pay_eq[i], rho_eq) for i in range(players)]
    rows = []
    for i in range(players):
        for v in ds.controls[i]:
            dev = eq.copy()
            dev[:, i] = v
            rho = weights(dev)
            gap = cost(payoffs(dev, rho)[i] - pay_eq[i], rho)
            rows.append({"player": i, "deviation": float(v), "dJ": gap["J"],
                         "stderr": gap["stderr"],
                         "pass": gap["J"] >= -3 * gap["stderr"]})
    return rows, J_eq


def _coupled_game(d, h=True):
    """ex71ii (two components) with r1, an x-dependent r2 and an
    x-dependent running cost in which each player's best value rises
    with the other's, so that the best responses settle only after
    picks changed in more than one sweep."""
    spec = example_family("ex71ii", {"d": d, "m": 2})

    def r2(p, u):
        out = np.zeros((d, p.shape[1]))
        out[0] = 0.6 * u[0] * (1 + 0.2 * np.sin(p[0])) + 0.2 * u[1]
        out[-1] += 0.4 * u[1] * np.cos(p[-1])
        return out

    def cost_rows(i, p, u):
        if i == 0:
            return (u[0] - 0.5 * u[1] - 0.3 * p[0]) ** 2
        return (u[1] - 0.4 * u[0] + 0.2 * p[-1]) ** 2 + 0.1 * u[1]

    return DiffusionSpec(
        op=spec, g=lambda p: np.stack([np.cos(p[0]), np.exp(-p[-1] ** 2)]),
        r1=tuple(parse_coeff_expr(f"0.3-0.2*x{k + 1}", d) for k in range(d)),
        r2=r2, h=cost_rows if h else None,
        controls=((-0.5, 0.0, 0.5), (-0.5, 0.25, 0.5, 1.0)))


def _solution(spec, n):
    grid = Grid(spec.d, 6.0, n, "neumann")
    g = sample(grid, lambda p: np.stack([np.tanh(p[0]), np.sin(p[-1])]))
    return mild_solve(spec, None, grid, g, 0.0, 0.25, dt=0.05)


@pytest.mark.parametrize("with_sol", [False, True], ids=["z0", "sol"])
@pytest.mark.parametrize("d,N,h", [(1, 301, True), (2, 203, True),
                                   (1, 157, False)])
def test_nash_check_equals_the_per_deviation_reference(d, N, h, with_sol):
    ds = _coupled_game(d, h)
    sol = _solution(ds.op, 41 if d == 1 else 21) if with_sol else None
    base = simulate_forward(ds, [0.2] * d, 0.0, 0.25, 1 / 32, N, 9)
    report = nash_check(ds, sol, base)
    rows, J_eq = _per_deviation_nash(ds, sol, base)
    assert report["rows"] == rows
    assert report["J_equilibrium"] == J_eq
    assert report["verdict"] == ("PASS" if all(r["pass"] for r in rows)
                                 else "FAIL")


def _logged(ds):
    """ds with h wrapped to log a copy of every control profile (players,
    K) it is called with."""
    calls, h = [], ds.h
    ds.h = lambda i, p, u: calls.append(np.array(u)) or h(i, p, u)
    return calls


def _answers(calls, controls):
    """Split a log of h's control profiles into best responses: an answer
    of player i sets row i to each value of i's set in turn while the
    other rows stay.  Returns (i, the other rows) per answer."""
    out, k = [], 0
    while k < len(calls):
        found = [i for i, V in enumerate(controls)
                 if k + len(V) <= len(calls)
                 and all(np.all(calls[k + a][i] == v) and np.array_equal(
                     np.delete(calls[k + a], i, 0), np.delete(calls[k], i, 0))
                         for a, v in enumerate(V))]
        assert len(found) == 1, f"call {k} starts no single answer"
        out.append((found[0], np.delete(calls[k], found[0], 0)))
        k += len(controls[found[0]])
    return out


def _assert_tables_are_fresh(ds, t, x, u, sweep):
    """Each player's (pick, r, h) equals an answer made from scratch
    against the others' values in u: u[i]'s index, and r and h at each
    of i's values."""
    for i, ((pick, r, h), V) in enumerate(zip(sweep, ds.controls)):
        assert pick.tolist() == [list(V).index(v) for v in u[i].tolist()]
        for a, v in enumerate(V):
            vals = u.copy()
            vals[i] = v
            assert np.array_equal(r[a], ds.r1_at(t, x) + np.asarray(
                ds.r2(x, vals), dtype=float))
            assert np.array_equal(h[a], ds.h(i, x, vals))


def test_nash_check_settles_in_more_than_one_sweep():
    # the reference cases above read tables answered against the settled
    # picks, which player 0 reaches only after the others' picks moved
    ds = _coupled_game(1)
    calls = _logged(ds)
    x = np.linspace(-3, 3, 64)[None]
    z = np.zeros((2, 1, 64))
    u, sweep = minimax_select(ds, 0.0, x, z)
    against = [others for i, others in _answers(calls, ds.controls)
               if i == 0]
    assert not np.array_equal(against[0], against[-1])
    _assert_tables_are_fresh(ds, 0.0, x, u, sweep)


def _mc_d1_game(tmp_path):
    """The runner's game of mc_d1: ex71ii at d = 1, r1 = 0.4, r2 = 0.3 u[0],
    player i's running cost u[i] ** 2, and two players of the values
    -0.5, 0, 0.5."""
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    assert cfg["game"] == {"controls": [[-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5]],
                           "running_weight": 1.0, "r_gain": 0.3,
                           "r_const": 0.4}
    return _setup(GOLDEN_CONFIG, tmp_path / "o").ds


def _brute_force_select(ds, t, x, z):
    """The controls of minimax_select, one sample at a time: best
    responses in turn from the first values until no pick moves."""
    players, K = ds.n_players, x.shape[1]
    u = np.empty((players, K))
    for k in range(K):
        xk, zk = x[:, k:k + 1], z[:, :, k:k + 1]
        picks = [0] * players
        moved = True
        while moved:
            moved = False
            for i, V in enumerate(ds.controls):
                best, pick = np.inf, 0
                for a, v in enumerate(V):
                    vals = np.array([[ds.controls[j][picks[j]]]
                                     for j in range(players)])
                    vals[i] = v
                    r = ds.r1_at(t, xk) + np.asarray(ds.r2(xk, vals))
                    ham = float(np.einsum("dK,dK->K", zk[i], r)[0]
                                + ds.h(i, xk, vals)[0])
                    if ham < best - 1e-14:
                        best, pick = ham, a
                moved |= pick != picks[i]
                picks[i] = pick
        u[:, k] = [ds.controls[j][picks[j]] for j in range(players)]
    return u


def test_mc_d1_selection_answers_nine_times(tmp_path):
    ds = _mc_d1_game(tmp_path)
    calls = _logged(ds)
    rng = np.random.default_rng(3)
    K = 200
    x = rng.uniform(-4, 4, (1, K))
    z = rng.uniform(-2, 2, (2, 1, K))
    u, sweep = minimax_select(ds, 0.25, x, z)
    # player 0 twice (the second time after player 1 moved), player 1 once
    assert [i for i, _ in _answers(calls, ds.controls)] == [0, 1, 0]
    assert len(calls) == 9
    assert np.array_equal(u, _brute_force_select(ds, 0.25, x, z))
    assert len(set(u[0].tolist())) == 3  # every value of player 0 is picked
    _assert_tables_are_fresh(ds, 0.25, x, u, sweep)


def test_one_player_is_answered_once():
    spec = example_family("heat", {"d": 1})
    V = (-1.0, 0.0, 0.5, 1.0)
    ds = DiffusionSpec(op=spec, g=const_g([0.0]), controls=(V,),
                       r2=lambda p, u: u[:1] * np.ones((1, p.shape[1])),
                       h=lambda i, p, u: (u[i] - p[0]) ** 2)
    calls = _logged(ds)
    x = np.linspace(-2, 2, 9)[None]
    z = np.full((1, 1, 9), 0.3)
    u, sweep = minimax_select(ds, 0.0, x, z)
    assert len(calls) == len(V)
    _assert_tables_are_fresh(ds, 0.0, x, u, sweep)


def test_a_pick_that_moves_at_one_sample_forces_a_new_answer():
    # player 1 leaves its first value at the last sample only, and player
    # 0 follows it there: its answer against the first picks is stale
    spec = example_family("heat", {"d": 1})
    V = (-0.5, 0.0, 0.5)

    def h(i, p, u):
        target = np.where(p[0] > 0.9, 0.5, -0.5)
        return (u[1] - target) ** 2 if i else (u[0] - u[1]) ** 2

    ds = DiffusionSpec(op=spec, g=const_g([0.0, 0.0]), controls=(V, V),
                       r2=lambda p, u: np.zeros((1, p.shape[1])), h=h)
    calls = _logged(ds)
    x = np.linspace(-1, 1, 5)[None]
    z = np.zeros((2, 1, 5))
    u, sweep = minimax_select(ds, 0.0, x, z)
    assert u.tolist() == [[-0.5] * 4 + [0.5]] * 2
    assert [i for i, _ in _answers(calls, ds.controls)] == [0, 1, 0, 1]
    _assert_tables_are_fresh(ds, 0.0, x, u, sweep)


def test_nash_check_holds_no_steps_by_players_array():
    # mc_d1's 64 steps and two players of three values at N = 4000
    import tracemalloc
    spec = example_family("heat", {"d": 1})
    ds = DiffusionSpec(
        op=spec, g=lambda p: np.stack([p[0] ** 2, np.cos(p[0])]),
        r1=(parse_coeff_expr("0.4", 1),),
        r2=lambda p, u: 0.3 * u[:1], h=lambda i, p, u: u[i] ** 2,
        controls=((-0.5, 0.0, 0.5), (-0.5, 0.0, 0.5)))
    base = simulate_forward(ds, 0.2, 0.0, 0.5, 1 / 128, 4000, 1)
    one_array = base.steps * ds.n_players * base.N * 8
    tracemalloc.start()
    try:
        nash_check(ds, None, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_array, f"peak {peak} B >= {one_array} B"


def test_degenerate_deviation_row_cannot_pass():
    # deviating to 6 tilts the paths by exp(6 W - 18 t): an ESS of a few
    # paths, so its dJ, whose truth is 0, says nothing
    spec = example_family("heat", {"d": 1})
    ds = DiffusionSpec(op=spec, g=const_g([1.0]), controls=((0.0, 6.0),),
                       r2=lambda p, u: u[:1],
                       h=lambda i, p, u: np.zeros(p.shape[1]))
    base = simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 16, 2000, 4)
    report = nash_check(ds, None, base)
    still, tilted = report["rows"]
    assert still["pass"] and still["dJ"] == 0.0
    assert not tilted["pass"]
    assert tilted["dJ"] >= -3 * tilted["stderr"]  # the old test passed it
    assert report["verdict"] == "INCONCLUSIVE"
