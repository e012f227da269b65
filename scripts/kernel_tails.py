#!/usr/bin/env python3
"""Tail-mass study of the kernel rows across presets and radii.

Writes a CSV with the total-variation mass outside B_R for each preset,
base point, and radius, the raw material behind the tightness verdicts.

Usage: python scripts/kernel_tails.py [--out kernel_tails.csv]
"""

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kolmolab.evolve import _Stepper, _time_ladder  # noqa: E402
from kolmolab.grids import Grid  # noqa: E402
from kolmolab.kernels import compactness_probe  # noqa: E402
from kolmolab.operators import example_family  # noqa: E402

PRESETS = {
    "heat": ({"d": 1}, Grid(1, 8.0, 321, "neumann")),
    "ou": ({"d": 1}, Grid(1, 6.0, 241, "neumann")),
    "ex71ii": ({"d": 1, "m": 2}, Grid(1, 6.0, 241, "neumann")),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="kernel_tails.csv")
    ap.add_argument("--tau", type=float, default=0.5)
    ap.add_argument("--n-cells", type=int, default=32)
    args = ap.parse_args()

    radii = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    points = [-1.0, 0.0, 1.0]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["preset", "x", "R", "outside_mass"])
        for name, (params, grid) in PRESETS.items():
            spec = example_family(name, params)
            table = compactness_probe(
                _Stepper(spec, grid), _time_ladder(0.0, args.tau, 5e-3),
                points, radii, args.n_cells)["table"]
            for x, entry in zip(points, table):
                for R, out in zip(radii, entry["outside"]):
                    w.writerow([name, x, R, f"{out:.6e}"])
            print(f"{name}: done")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
