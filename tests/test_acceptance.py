"""Acceptance suite: one check per criterion, each printing a single
pass/fail line with the measured margin.  Run with -s to see the lines
as they appear; every check also asserts, so the suite fails loudly."""

import dataclasses
import hashlib
import json
import os

import numpy as np
from scipy.linalg import expm
from scipy.special import erf

from kolmolab.estimates import (max_principle_check, pointwise_check,
                                representation_residual,
                                weighted_gradient_check)
from kolmolab.evolve import _Stepper, _time_ladder, evolve
from kolmolab.fbsde import (DiffusionSpec, bsde_residual, girsanov_weights,
                            identify_yz, simulate_forward)
from kolmolab.game import minimax_select, nash_check
from kolmolab.grids import Grid, gradient
from helpers import box_mask, constant, sample, squared
from kolmolab.kernels import compactness_probe
from kolmolab.operators import example_family, scalar_comparison
from kolmolab.semilinear import (MildSolution, _graded_ladder, kt_norm,
                                 mild_solve, mollify_nonlinearity,
                                 nonlinearity_from_exprs)


def report(num, name, ok, detail):
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_linear_oracles():
    # heat kernel closed form
    grid = Grid(1, 8.0, 321, "dirichlet")
    spec = example_family("heat", {"d": 1})
    f = sample(grid, lambda p: np.exp(-p[0] ** 2 / 2))
    tau = 0.5
    u = evolve(spec, grid, f, 0.0, tau, dt=1e-3).values[-1]
    x = grid.axis()
    oracle = np.exp(-x ** 2 / (2 * (1 + tau))) / np.sqrt(1 + tau)
    mask = grid.probe
    e_heat = float(np.max(np.abs(u[0] - oracle)[mask]))

    # first moment of the mean-reverting flow
    spec = example_family("ou", {"d": 1})
    gridn = dataclasses.replace(grid, bc="neumann")
    g = sample(gridn, lambda p: p[0])
    v = evolve(spec, gridn, g, 0.0, tau, dt=1e-3).values[-1]
    e_ou = float(np.max(np.abs(v[0] - np.exp(-tau) * x)[mask]))

    # constant-coefficient coupling against the matrix exponential
    C = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = example_family("const_coupling", {"d": 1, "C": C.tolist()})
    gridc = Grid(1, 2.0, 21, "neumann")
    h = constant(gridc, [1.0, 0.0])
    tauc = 0.3
    # first-order stepping: extrapolate two step sizes to reach 1e-6
    w1 = evolve(spec, gridc, h, 0.0, tauc, dt=4e-5).values[-1]
    w2 = evolve(spec, gridc, h, 0.0, tauc, dt=2e-5).values[-1]
    wex = 2 * w2 - w1
    expect = expm(tauc * C) @ np.array([1.0, 0.0])
    e_mat = float(np.max(np.abs(wex[:, gridc.n_nodes // 2] - expect)))

    ok = e_heat <= 1e-3 and e_ou <= 1e-3 and e_mat <= 1e-6
    report(1, "linear oracles", ok,
           f"heat {e_heat:.2e} <= 1e-3, ou {e_ou:.2e} <= 1e-3, "
           f"matrix-exp {e_mat:.2e} <= 1e-6")


def test_02_maximum_principle():
    spec = example_family("ex71i", {"d": 1, "m": 2, "r": 1.0, "p": 3.0})
    grid = Grid(1, 5.0, 201, "dirichlet")
    f = sample(grid, lambda p: np.stack([np.sin(p[0]), np.exp(-p[0] ** 2)]))
    res = max_principle_check(
        [evolve(spec, grid, f, 0.0, 0.4, dt) for dt in (4e-3, 2e-3)],
        epsilon=1.0, kappa0=1.0)
    ok1 = res["measured"] <= res["bound"] * 1.01

    # tight case: C = diag(1, -1), growth exactly e^t; Richardson
    # extrapolation in dt removes the first-order stepping error
    spec = example_family("const_coupling", {"d": 1})
    gridc = Grid(1, 2.0, 21, "neumann")
    fc = constant(gridc, [1.0, 0.0])
    tau = 0.3
    bound = float(np.exp(tau))
    ratios = []
    for dt in (2e-4, 1e-4):
        u = evolve(spec, gridc, fc, 0.0, tau, dt).values[-1]
        ratios.append(float(np.max(np.abs(u))) / float(np.max(np.abs(fc))))
    extrap = 2 * ratios[1] - ratios[0]
    gap = abs(extrap - bound)
    ok2 = ratios[1] <= bound * 1.01 and gap <= 1e-6 * bound
    report(2, "maximum principle", ok1 and ok2,
           f"ex71i ratio {res['measured']:.4f} <= "
           f"{res['bound'] * 1.01:.4f}, "
           f"tight-case gap {gap:.2e} <= {1e-6 * bound:.2e}")


def test_03_pointwise_domination():
    from kolmolab.audit import check_coupling_growth
    lines = []
    ok = True
    cases = [("ex71ii", example_family("ex71ii", {"d": 1, "m": 2}))]
    rng = np.random.default_rng(2024)
    for k in range(2):
        A = rng.uniform(-0.5, 0.5, (2, 2))
        C = ((A + A.T) / 2).tolist()
        cases.append((f"random-C-{k}", example_family(
            "const_coupling", {"d": 1, "C": C})))
    for name, spec in cases:
        HJ = max(float(check_coupling_growth(
            spec, box=5.0, n_samples=512)["HJ"]), 0.0)
        worst = 0.0
        for n in (101, 151, 201):
            grid = Grid(1, 5.0, n, "dirichlet")
            f = sample(grid,
                       lambda p: np.stack([np.cos(p[0]), np.sin(2 * p[0])]))
            sol = evolve(spec, grid, f, 0.0, 0.5, 2e-3)
            res = pointwise_check(sol, squared(spec, sol), HJ=HJ)
            worst = max(worst, res["measured"] / res["bound"])
            ok = ok and res["measured"] <= res["bound"] * 1.01
        lines.append(f"{name} ratio/bound {worst:.3f}")
    report(3, "pointwise domination", ok, "; ".join(lines))


def test_04_weighted_gradient():
    spec = example_family("ex72", {"d": 1, "m": 2})
    res = weighted_gradient_check(spec, [evolve(
        spec, grid,
        sample(grid, lambda p: np.stack([np.tanh(p[0]), np.cos(p[0])])),
        0.0, 0.5, 2e-3)
        for grid in (Grid(1, 5.0, n, "dirichlet") for n in (201, 401))])
    ok1 = res["verdict"] == "PASS" and res["notes"]["drift"] <= 0.05

    heat = example_family("heat", {"d": 1})
    a, tau = 1.0, 0.5
    grid = Grid(1, 8.0, 321, "dirichlet")
    f = sample(grid, lambda p: erf(p[0] / a))
    u = evolve(heat, grid, f, 0.0, tau, dt=2e-3).values[-1]
    grad_max = float(np.max(np.abs(
        gradient(grid, u)[:, :, box_mask(grid, 2.0)])))
    oracle = 2 / (np.sqrt(np.pi) * np.sqrt(a ** 2 + 2 * tau))
    rel = abs(grad_max - oracle) / oracle
    ok2 = rel <= 0.10
    report(4, "weighted gradient", ok1 and ok2,
           f"ex72 drift {res['notes']['drift']:.3%} <= 5%, "
           f"gaussian oracle off by {rel:.3%} <= 10%")


def test_05_representation_formula():
    spec = example_family("const_coupling",
                          {"d": 1, "C": [[0.0, 1.0], [-1.0, 0.0]]})
    grid = Grid(1, 6.0, 161, "dirichlet")
    f = sample(grid, lambda p: np.stack([np.exp(-p[0] ** 2), np.cos(p[0])]))
    scalar = _Stepper(scalar_comparison(spec), grid)
    resids = [representation_residual(
        spec, evolve(spec, grid, f, 0.0, 0.4, dt), scalar)
        for dt in (8e-3, 4e-3, 2e-3)]
    decays = [1 - resids[k + 1] / resids[k] for k in range(2)]
    ok1 = all(d >= 0.35 for d in decays)

    ou = example_family("ou", {"d": 1})
    g = sample(grid, lambda p: np.sin(p[0]))
    r0 = representation_residual(ou, evolve(ou, grid, g, 0.0, 0.4, 5e-3),
                                 _Stepper(scalar_comparison(ou), grid))
    ok2 = r0 == 0.0
    report(5, "representation formula", ok1 and ok2,
           f"decays {decays[0]:.1%}, {decays[1]:.1%} >= 35%; "
           f"decoupled residual {r0}")


def test_06_kernel_compactness():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    grid = Grid(1, 6.0, 241, "neumann")
    xs = [[-1.0], [0.0], [1.0]]
    Rs = [1.0, 2.0, 3.0]
    vec = compactness_probe(_Stepper(spec, grid),
                            _time_ladder(0.0, 0.5, 5e-3), xs, Rs, n_cells=24)
    outs = max(e["outside"][-1] for e in vec["table"])
    heat = example_family("heat", {"d": 1})
    gridh = Grid(1, 8.0, 321, "neumann")
    hp = compactness_probe(_Stepper(heat, gridh),
                           _time_ladder(0.0, 0.5, 5e-3), [[0.0], [3.5]], Rs,
                           n_cells=32)
    agree = True
    for name, s, g in (("ou", example_family("ou", {"d": 1}), grid),
                       ("ex71ii", spec, grid)):
        v = compactness_probe(_Stepper(s, g), _time_ladder(0.0, 0.5, 5e-3),
                              [[0.0], [1.0]], Rs, n_cells=24)
        sc = compactness_probe(_Stepper(scalar_comparison(s), g),
                               _time_ladder(0.0, 0.5, 5e-3), [[0.0], [1.0]],
                               Rs, n_cells=24)
        agree = agree and (v["verdict"] == sc["verdict"])
    ok = vec["verdict"] and outs < 0.05 and not hp["verdict"] and agree
    report(6, "kernel tightness/compactness", ok,
           f"ex71ii outside mass {outs:.4f} < 0.05 and monotone, heat "
           f"probe fails as required, scalar verdicts agree: {agree}")


def _kt_distance(a: MildSolution, b: MildSolution):
    return kt_norm(dataclasses.replace(a, values=a.values - b.values))


def test_07_semilinear_mollifier_ladder():
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 6.0, 241, "neumann")
    g = sample(grid, lambda p: np.sin(p[0]))
    T, dt = 0.5, 5e-3
    nl = nonlinearity_from_exprs(
        ["((exp(2*z11)-1)/(exp(2*z11)+1))/2"], 1, 1)
    ns = [8, 16, 32, 64]
    sols = [mild_solve(spec, mollify_nonlinearity(nl, n), grid, g, 0.0, T,
                       dt, picard_tol=1e-11) for n in ns]
    deltas = [_kt_distance(sols[k], sols[k + 1]) for k in range(3)]
    logs = np.log(deltas)
    alpha = float(np.polyfit(np.log(ns[:3]), logs, 1)[0] * -1)
    consts = [d * n ** alpha for d, n in zip(deltas, ns[:3])]
    stable = max(consts) / min(consts) <= 1.5
    norms = [s.kt_norm for s in sols]
    spread = (max(norms) - min(norms)) / max(norms)
    ok1 = stable and alpha > 0 and spread <= 0.10

    lin = mild_solve(spec, None, grid, g, 0.0, T, dt)
    ref = _Stepper(spec, grid).final(g, _graded_ladder(T, dt))
    e_lin = float(np.max(np.abs(lin.values[0] - ref)))
    ok2 = e_lin <= 1e-6
    report(7, "semilinear mollifier ladder", ok1 and ok2,
           f"fit exponent {alpha:.2f}, constant spread x"
           f"{max(consts) / min(consts):.2f} <= x1.5, kt spread "
           f"{spread:.2%} <= 10%, psi=0 linear gap {e_lin:.1e} <= 1e-6")


def test_08_fbsde_identification():
    # Feynman-Kac cross-check at N = 1e5 on the drift-free preset where
    # the path simulation is exact in distribution
    heat = example_family("heat", {"d": 1})
    grid = Grid(1, 10.0, 401, "neumann")
    g = sample(grid, lambda p: np.tanh(p[0]))
    tau = 0.5
    sol = mild_solve(heat, None, grid, g, 0.0, tau, dt=1e-3)
    ds = DiffusionSpec(op=heat, g=lambda p: np.tanh(p)[:1])
    N = 100000
    batch = simulate_forward(ds, 0.3, 0.0, tau, tau / 64, N, seed=101)
    yz = identify_yz(sol, ds, batch)
    vals = yz.Y[-1, 0, yz.valid]
    mc = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    pde = float(sol.eval(0.0, np.array([[0.3]]))[0, 0])
    ok1 = abs(mc - pde) <= 3 * se

    # backward residual ladder for the tanh coupling
    ou = example_family("ou", {"d": 1})
    grid = Grid(1, 8.0, 401, "neumann")
    gb = sample(grid, lambda p: np.tanh(p[0]))
    taub = 1.0
    nl = nonlinearity_from_exprs(["(exp(2*z11)-1)/(exp(2*z11)+1)"], 1, 1)
    solb = mild_solve(ou, nl, grid, gb, 0.0, taub, dt=1e-3)
    dsb = DiffusionSpec(op=ou, g=lambda p: np.tanh(p)[:1])
    resids = []
    for steps in (8, 16, 32):
        b = simulate_forward(dsb, 0.2, 0.0, taub, taub / steps, 4000,
                             seed=42)
        yzb = identify_yz(solb, dsb, b)
        resids.append(bsde_residual(yzb, dsb, nl, b)[0])
    decays = [1 - resids[k + 1] / resids[k] for k in range(2)]
    ok2 = all(d >= 0.35 for d in decays)
    report(8, "fbsde identification", ok1 and ok2,
           f"feynman-kac gap {abs(mc - pde):.2e} <= {3 * se:.2e} "
           f"(N=1e5), residual decays {decays[0]:.1%}, {decays[1]:.1%} "
           f">= 35%")


def test_09_girsanov_sanity():
    from kolmolab.dsl import const_expr, parse_coeff_expr
    heat = example_family("heat", {"d": 1})
    base = DiffusionSpec(op=heat, g=lambda p: np.zeros((1, p.shape[1])))
    tau, N = 0.5, 20000
    batch = simulate_forward(base, 0.0, 0.0, tau, 1 / 64, N, seed=77)
    rho0 = girsanov_weights(base, batch)
    exact = bool(np.all(rho0 == 1.0))
    gaps = []
    for r1 in ((const_expr(0.8, 1),), (parse_coeff_expr("0-x1/2", 1),)):
        ds = DiffusionSpec(op=heat, g=base.g, r1=r1)
        rho = girsanov_weights(ds, batch)
        se = float(np.std(rho, ddof=1) / np.sqrt(N))
        gaps.append((abs(float(np.mean(rho)) - 1.0), 3 * se))
    ok = exact and all(g <= lim for g, lim in gaps)
    report(9, "girsanov reweighting", ok,
           f"r=0 exact: {exact}; |E rho - 1| = "
           + ", ".join(f"{g:.2e} <= {lim:.2e}" for g, lim in gaps))


def test_10_nash_inequalities():
    heat = example_family("heat", {"d": 1})
    V = (-1.0, -0.25, 0.0, 0.5, 1.0)
    ds1 = DiffusionSpec(
        op=heat, g=lambda p: np.zeros((1, p.shape[1])), controls=(V,),
        r2=lambda p, u: u[:1] * np.ones((1, p.shape[1])),
        h=lambda i, p, u: (u[i] - p[0]) ** 2)
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, (1, 64))
    z = rng.uniform(-3, 3, (1, 1, 64))
    got, _ = minimax_select(ds1, 0.0, x, z)
    hams = np.stack([z[0, 0] * v + (v - x[0]) ** 2 for v in V])
    brute = np.asarray(V)[np.argmin(hams, axis=0)]
    ok1 = bool(np.array_equal(got[0], brute))

    heat2 = example_family("heat", {"d": 2})

    def h2(i, p, u):
        return (u[i] - (1.0, -1.0)[i]) ** 2 * np.ones(p.shape[1])

    ds2 = DiffusionSpec(op=heat2,
                        g=lambda p: np.zeros((2, p.shape[1])),
                        controls=((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)),
                        h=h2)
    rep2 = nash_check(ds2, None, simulate_forward(ds2, [0.0, 0.0], 0.0, 0.4,
                                                  0.4 / 8, 512, 6))
    ok2 = rep2["verdict"] == "PASS"

    ds3 = DiffusionSpec(op=heat, g=lambda p: np.ones((1, p.shape[1])),
                        controls=((0.0, 1.0),),
                        h=lambda i, p, u: np.ones(p.shape[1]))
    rep3 = nash_check(ds3, None,
                      simulate_forward(ds3, 0.0, 0.0, 0.5, 1 / 16, 512, 7))
    ok3 = rep3["verdict"] == "PASS" and all(
        abs(r["dJ"]) <= 3 * r["stderr"] + 1e-12 for r in rep3["rows"])
    report(10, "nash inequalities", ok1 and ok2 and ok3,
           f"single-player brute-force match: {ok1}, separable 2-player "
           f"PASS: {ok2}, degenerate deltas ~ 0: {ok3}")


def test_11_determinism(tmp_path):
    from kolmolab.runner import run
    cfg = {
        "operator": {"family": "ex71ii", "params": {"d": 1, "m": 2}},
        "grid": {"L": 6.0, "n": 121},
        "time": {"s": 0.0, "T": 0.25, "dt": 0.0125},
        "checks": ["audit", "max_principle", "representation",
                   "girsanov", "nash"],
        "audit": {"box": 4.0, "kappa0": 1.0, "n_samples": 256},
        "mc": {"N": 400, "h_step": 0.015625},
        "game": {"controls": [[-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5]],
                 "r_const": 0.4},
        "seed": 33,
        "output": str(tmp_path / "unused"),
    }
    p = tmp_path / "det.run"
    p.write_text(json.dumps(cfg))
    run(p, outdir=tmp_path / "a")
    run(p, outdir=tmp_path / "b")
    names = sorted(os.listdir(tmp_path / "a"))
    same = names == sorted(os.listdir(tmp_path / "b"))
    digests = []
    for name in names:
        ha = hashlib.sha256((tmp_path / "a" / name).read_bytes())
        hb = hashlib.sha256((tmp_path / "b" / name).read_bytes())
        same = same and ha.digest() == hb.digest()
        digests.append(name)
    report(11, "determinism", same,
           f"{len(digests)} artifacts byte-identical across reruns")
