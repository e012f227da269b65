#!/usr/bin/env python3
"""Backward-equation residual under Monte-Carlo step refinement.

Solves the semilinear problem for the tanh gradient coupling, samples
Y and Z along simulated paths, and records how the discrete backward
residual shrinks as the path step is halved.

Usage: python scripts/bsde_refinement.py [--N 4000] [--out ladder.csv]
"""

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kolmolab.fbsde import (DiffusionSpec, bsde_residual,  # noqa: E402
                            identify_yz, simulate_forward)
from kolmolab.grids import Grid  # noqa: E402
from kolmolab.operators import example_family  # noqa: E402
from kolmolab.semilinear import (mild_solve,  # noqa: E402
                                 nonlinearity_from_exprs)

# after kolmolab, which sets OpenBLAS's idle timeout before numpy loads
import numpy as np  # noqa: E402


def residual_ladder(N, tau, seed):
    """(steps, residual) of the backward residual of the tanh gradient
    coupling for each path step count, on N paths from x0 = 0.2."""
    spec = example_family("ou", {"d": 1})
    grid = Grid(1, 8.0, 401, "neumann")
    g = np.tanh(grid.points())
    nl = nonlinearity_from_exprs(["(exp(2*z11)-1)/(exp(2*z11)+1)"], 1, 1)
    sol = mild_solve(spec, nl, grid, g, 0.0, tau, dt=1e-3)
    ds = DiffusionSpec(op=spec, g=lambda p: np.tanh(p)[:1])
    rungs = []
    for steps in (8, 16, 32, 64, 128):
        batch = simulate_forward(ds, 0.2, 0.0, tau, tau / steps, N, seed)
        yz = identify_yz(sol, ds, batch)
        rungs.append((steps, bsde_residual(yz, ds, nl, batch)[0]))
    return rungs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=4000)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="bsde_ladder.csv")
    args = ap.parse_args()

    rows = []
    prev = None
    for steps, resid in residual_ladder(args.N, args.tau, args.seed):
        red = "" if prev is None else f"{1 - resid / prev:.4f}"
        print(f"steps={steps:4d}  residual={resid:.6f}  reduction={red}")
        rows.append([steps, args.tau / steps, f"{resid:.8e}", red])
        prev = resid

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["steps", "h", "residual", "reduction"])
        w.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
