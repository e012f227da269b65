import numpy as np
import pytest

from kolmolab.fbsde import DiffusionSpec, girsanov_weights, simulate_forward
from kolmolab.game import GameError, minimax_select, nash_check
from kolmolab.operators import example_family


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
        h=lambda p, u: (u[:1] - p[:1]) ** 2)
    rng = np.random.default_rng(0)
    K = 50
    x = rng.uniform(-2, 2, (1, K))
    z = rng.uniform(-3, 3, (1, 1, K))
    got = minimax_select(ds, 0.0, x, z)
    # exhaustive oracle: min over V of z*v + (v - x)^2 per sample
    hams = np.stack([z[0, 0] * v + (v - x[0]) ** 2 for v in V])
    expect = np.asarray(V)[np.argmin(hams, axis=0)]
    assert np.array_equal(got[0], expect)


def test_degenerate_game_lexicographic_tiebreak():
    spec = example_family("heat", {"d": 1})
    ds = DiffusionSpec(
        op=spec, g=const_g([0.0, 0.0]),
        controls=((0.3, 0.7), (5.0, 1.0)),
        h=lambda p, u: np.ones((2, p.shape[1])))  # control-independent
    x = np.zeros((1, 4))
    z = np.zeros((2, 1, 4))
    got = minimax_select(ds, 0.0, x, z)
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

    def h(p, u):
        return np.stack([(u[0] - 0.9) ** 2 * np.ones(p.shape[1]),
                         (u[1] + 1.8) ** 2 * np.ones(p.shape[1])])

    ds = DiffusionSpec(op=spec, g=const_g([0.0, 0.0]),
                       controls=(V1, V2), r2=r2, h=h)
    rng = np.random.default_rng(1)
    K = 32
    x = rng.uniform(-1, 1, (2, K))
    z = rng.uniform(-1, 1, (2, 2, K))
    got = minimax_select(ds, 0.0, x, z)
    for i, V in enumerate((V1, V2)):
        hams = np.stack([z[i, i] * v + np.asarray(h(x, np.full((2, K), v)))[i]
                         for v in V])
        expect = np.asarray(V)[np.argmin(hams, axis=0)]
        assert np.array_equal(got[i], expect)


def test_best_response_cycle_detected():
    spec = example_family("heat", {"d": 1})

    def h(p, u):
        same = (u[0] == u[1]).astype(float)
        return np.stack([same, 1.0 - same])  # matching-pennies payoffs

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
                       h=lambda p, u: np.ones((1, p.shape[1])))
    report = nash_check(
        ds, None, simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 16, 512, 4))
    assert report["verdict"]
    for row in report["rows"]:
        assert abs(row["dJ"]) <= 3 * row["stderr"] + 1e-12


def test_nash_single_player_beats_constant_controls():
    spec = example_family("heat", {"d": 1})
    V = (-0.5, 0.0, 0.5)
    ds = DiffusionSpec(
        op=spec, g=const_g([2.0]), controls=(V,),
        r2=lambda p, u: 0.2 * u[:1] * np.ones((1, p.shape[1])),
        h=lambda p, u: u[:1] ** 2 * np.ones((1, p.shape[1])))
    report = nash_check(
        ds, None, simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 16, 2000, 6))
    assert report["verdict"]
    # cross-check against exhaustive constant controls: u = 0 has the
    # smallest running cost and must match the equilibrium cost
    base = simulate_forward(ds, 0.0, 0.0, 0.5, 1 / 16, 2000, 6)
    from kolmolab.fbsde import cost, payoffs
    Js = []
    for v in V:
        controls = np.full((base.steps, 1, 2000), v)
        rho = girsanov_weights(ds, base, controls)
        Js.append(cost(payoffs(ds, base, controls, rho)[0], rho)["J"])
    assert np.argmin(Js) == V.index(0.0)
    assert report["J_equilibrium"][0]["J"] == pytest.approx(Js[1], abs=1e-12)


def test_nash_separable_strict_deviations():
    spec = example_family("heat", {"d": 2})

    def h(p, u):
        return np.stack([(u[0] - 1.0) ** 2 * np.ones(p.shape[1]),
                         (u[1] + 1.0) ** 2 * np.ones(p.shape[1])])

    ds = DiffusionSpec(op=spec, g=const_g([0.0, 0.0]),
                       controls=((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)), h=h)
    report = nash_check(
        ds, None, simulate_forward(ds, [0.0, 0.0], 0.0, 0.4, 0.4 / 8, 256, 8))
    assert report["verdict"]
    for row in report["rows"]:
        best = 1.0 if row["player"] == 0 else -1.0
        if row["deviation"] != best:
            assert row["dJ"] > 0  # strictly suboptimal deviation costs


def test_nash_selects_equilibrium_once_per_step(monkeypatch):
    from kolmolab.fbsde import payoffs
    calls, paid = [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return minimax_select(*args, **kwargs)

    def counted_payoffs(*args, **kwargs):
        paid.append(1)
        return payoffs(*args, **kwargs)

    monkeypatch.setattr("kolmolab.game.minimax_select", counted)
    monkeypatch.setattr("kolmolab.game.payoffs", counted_payoffs)
    monkeypatch.setattr("kolmolab.fbsde.payoffs", counted_payoffs)
    spec = example_family("heat", {"d": 2})
    ds = DiffusionSpec(
        op=spec, g=const_g([0.0, 0.0]),
        controls=((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)),
        h=lambda p, u: u ** 2 * np.ones((2, p.shape[1])))
    base = simulate_forward(ds, [0.0, 0.0], 0.0, 0.4, 0.4 / 8, 64, 3)
    report = nash_check(ds, None, base)
    assert len(report["rows"]) == 6
    assert len(calls) == base.steps
    # one payoff pass per batch: the equilibrium one gives every
    # player's J_equilibrium
    assert len(paid) == 1 + 2 * 3


def test_equilibrium_strategy_uses_gradient(monkeypatch):
    from kolmolab.grids import Grid, GridFunction
    from kolmolab.semilinear import mild_solve
    spec = example_family("heat", {"d": 1})
    grid = Grid(1, 6.0, 121)
    g = GridFunction.from_callable(grid, 1, lambda p: p[0], bc="neumann")
    sol = mild_solve(spec, None, g, 0.0, 0.5, dt=1e-2)
    # H~ = z * u with z = G du/dx ~ 1 > 0: minimizer is the most
    # negative control
    ds = DiffusionSpec(op=spec, g=lambda p: p[:1],
                       controls=((-1.0, 0.0, 1.0),),
                       r2=lambda p, u: u[:1] * np.ones((1, p.shape[1])))
    picks = []

    def spy(*args):
        picks.append(minimax_select(*args))
        return picks[-1]

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
        def wrapped(pts, u=None):
            seen.append(pts.flags.c_contiguous
                        and (u is None or u.flags.c_contiguous))
            return fn(pts, u)
        return wrapped

    spec = example_family("heat", {"d": 2})
    ds = DiffusionSpec(
        op=spec, g=spy(lambda p, u: np.zeros((2, p.shape[1]))),
        controls=((-1.0, 0.0, 1.0), (-1.0, 1.0)),
        r2=spy(lambda p, u: 0.5 * u),
        h=spy(lambda p, u: u ** 2 + p ** 2))
    base = simulate_forward(ds, [0.1, -0.2], 0.0, 0.25, 0.25 / 4, 32, 1)
    report = nash_check(ds, None, base)
    assert len(report["rows"]) == 5
    assert len(seen) > 0 and all(seen)
