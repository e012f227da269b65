#!/usr/bin/env python3
"""kolmolab benchmark: end-to-end and per-layer metrics with a verdict check.

    python3 perfbench/run.py --workload golden_d1 --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --update-reference

Run from the root of a checkout.  Each sample runs one workload config
through ``kolmolab.runner.run`` in a fresh child process (perfbench/
child.py), one child at a time, a closed loop with one client.  Samples
are taken until the next one would end after ``--seconds``.  The BLAS
thread variables are set to the core count in each child's environment,
because ``runner.run`` does not apply ``KOLMOLAB_THREADS``.

Every child's report.json is checked against perfbench/reference/
<workload>.json: a stage fails when it raises, reports ERROR, or gives
a verdict other than the reference one, and a deterministic stage also
fails when a leaf of its report differs (numbers at rtol 1e-10).  The
Monte-Carlo stages are checked by verdict only, so a declared change of
the random streams does not read as a failure.

With ``--trace 0`` the last line carries the end-to-end metrics: medians
over the samples of run time, set-up time and peak memory, and the share
of stages that matched the reference.  With ``--trace 1`` traced and
untraced children alternate; the last line carries the per-layer
metrics of the traced children (perfbench/tracer.py) and the tracing
overhead, traced minus untraced run time.  Metric names and units come
from BENCHMARK.json.  ``--update-reference`` rewrites the reference
files from one run per workload at the current commit.
"""

from __future__ import annotations

import argparse
import copy
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = os.path.join(HERE, ".work")
CHILD_TIMEOUT_S = 150
RTOL = 1e-10

# Stages whose report entries do not depend on the seed.
DETERMINISTIC = ("audit", "max_principle", "pointwise", "representation",
                 "compactness", "semilinear")

# configs/ex71ii_full.run, copied so that the workloads stay fixed when
# the checked-in config changes.
GOLDEN = {
    "operator": {"family": "ex71ii", "params": {"d": 1, "m": 2}},
    "grid": {"L": 6.0, "n": 201},
    "time": {"s": 0.0, "T": 0.5, "dt": 0.005},
    "checks": ["audit", "max_principle", "pointwise", "representation",
               "compactness", "semilinear", "fbsde", "girsanov", "nash"],
    "audit": {"box": 5.0, "epsilon": 1.0, "kappa0": 1.0, "sigma": 0.5,
              "n_samples": 512},
    "kernel": {"n_cells": 24, "R_list": [1.0, 2.0, 3.0],
               "x_list": [[-1.0], [0.0], [1.0]]},
    "semilinear": {"psi": ["((exp(2*z11)-1)/(exp(2*z11)+1))/2", "0"],
                   "mollify_ladder": [8, 16, 32]},
    "mc": {"N": 4000, "h_step": 0.015625, "x0": [0.2]},
    "game": {"controls": [[-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5]],
             "running_weight": 1.0, "r_gain": 0.3, "r_const": 0.4},
}


def _pde_d2():
    cfg = copy.deepcopy(GOLDEN)
    for key in ("semilinear", "mc", "game"):
        del cfg[key]
    cfg["operator"]["params"]["d"] = 2
    cfg["grid"]["n"] = 81
    cfg["time"].update(T=0.25, dt=0.0125)
    cfg["checks"] = ["audit", "max_principle", "pointwise",
                     "representation", "compactness"]
    cfg["kernel"] = {"n_cells": 6, "R_list": [1.0, 2.0, 3.0],
                     "x_list": [[0.0, 0.0], [1.0, -1.0]]}
    return cfg


def _mc_d1():
    # no psi: the problem is linear, so the fbsde stage runs its
    # Feynman-Kac comparison
    cfg = copy.deepcopy(GOLDEN)
    del cfg["semilinear"]
    cfg["checks"] = ["fbsde", "girsanov", "nash"]
    cfg["mc"] = {"N": 20000, "h_step": 1 / 128, "x0": [0.2]}
    return cfg


# Reference verdicts that are wrong answers of the program at the commit
# that made the reference.  They stay in the reference, so the benchmark
# measures the program as it is; the fix updates the reference.
KNOWN_DEFECTS = {
    "mc_d1": {"fbsde": "FAIL is a defect: for a linear problem the stage "
                       "compares E[g(X_T)] with u(0, x0) and ignores the C "
                       "and Btilde coupling"},
}

WORKLOADS = {"golden_d1": lambda: copy.deepcopy(GOLDEN),
             "pde_d2": _pde_d2, "mc_d1": _mc_d1}


def workload_config(name, seed, output):
    cfg = WORKLOADS[name]()
    cfg["seed"] = seed
    cfg["output"] = output
    return cfg


# ---------------------------------------------------------------- check

def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def first_difference(got, want, path=""):
    """Path and reason of the first leaf where got differs from want, or
    None when they agree (numbers at rtol RTOL, other leaves exactly)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in sorted(want):
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if _is_number(want) and _is_number(got):
        if math.isnan(want) and math.isnan(got):
            return None
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
            return None
    elif type(got) is type(want) and got == want:
        return None
    return f"{path}: {got!r} != reference {want!r}"


def check_report(report, reference):
    """(attempted, failed, problems) of one report against a reference."""
    verdicts = report.get("verdicts", {})
    stages = report.get("stages", {})
    problems = []
    for name, want in reference["verdicts"].items():
        got = verdicts.get(name)
        if got != want:
            problems.append(f"{name}: verdict {got} != reference {want}")
        elif name in reference["stages"]:
            diff = first_difference(stages.get(name),
                                    reference["stages"][name], name)
            if diff:
                problems.append(diff)
    return len(reference["verdicts"]), len(problems), problems


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def self_test():
    """The check must count one flipped verdict and one perturbed numeric
    leaf of another stage as two failures, and a faithful copy as none."""
    ref = load_reference("golden_d1")
    report = {"verdicts": dict(ref["verdicts"]),
              "stages": copy.deepcopy(ref["stages"])}
    clean = check_report(report, ref)[1]
    report["verdicts"]["nash"] = "FAIL"
    report["stages"]["max_principle"]["measured"] *= 1 + 1e-8
    broken = check_report(report, ref)[1]
    if (clean, broken) != (0, 2):
        sys.exit(f"output-check self-test failed: {clean} failures on the "
                 f"reference, {broken} on a report with two defects")


# -------------------------------------------------------------- samples

def thread_env():
    n = str(len(os.sched_getaffinity(0)))
    return {var: n for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def run_child(config_path, outdir, trace, deadline):
    """One sample: (child JSON, report dict) or raises RuntimeError."""
    shutil.rmtree(outdir, ignore_errors=True)
    env = dict(os.environ, **thread_env())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    timeout = max(10.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), config_path,
             outdir, "1" if trace else "0"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"child exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        with open(os.path.join(outdir, "report.json")) as fh:
            return json.loads(lines[-1]), json.load(fh)
    except (OSError, ValueError) as err:
        raise RuntimeError(f"unreadable child output: {err}")


def write_config(work, workload, seed):
    """Empty `work` and write the workload config into it; returns the
    config path and the output directory for runner.run."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.run")
    outdir = os.path.join(work, "out")
    with open(config_path, "w") as fh:
        json.dump(workload_config(workload, seed, outdir), fh, indent=2)
    return config_path, outdir


def take_samples(config_path, outdir, seconds, trace):
    """Run children until the next one would end after `seconds`; with
    tracing, alternate traced and untraced children, at least one each."""
    start = time.monotonic()
    hard_deadline = start + CHILD_TIMEOUT_S
    samples, durations = [], []
    while True:
        traced = trace and len(samples) % 2 == 0
        t0 = time.monotonic()
        sample, report = run_child(config_path, outdir, traced,
                                   hard_deadline)
        durations.append(time.monotonic() - t0)
        samples.append((traced, sample, report))
        elapsed = time.monotonic() - start
        if (not trace or len(samples) >= 2) and \
                elapsed + statistics.median(durations) > seconds:
            return samples


def source_lines():
    counts = {}
    for path in sorted(glob.glob(os.path.join(SRC, "kolmolab", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def summarize(name, values, unit):
    """Median plus the spread printed for a reader."""
    med = statistics.median(values)
    spread = ""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"  q1 {q1:.6g}  q3 {q3:.6g}"
    print(f"{name:<32} {med:>14.6g} {unit:<12} median of {len(values)}"
          f"{spread}")
    return med


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(args):
    if not os.path.isfile(os.path.join(SRC, "kolmolab", "runner.py")):
        sys.exit(f"no kolmolab sources under {SRC}; run from the root of "
                 f"a kolmolab checkout")
    spec = load_benchmark()
    seconds = args.seconds or spec["run_seconds"]
    self_test()
    reference = load_reference(args.workload)

    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        config_path, outdir = write_config(work, args.workload, args.seed)
        samples = take_samples(config_path, outdir, seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for _, _, report in samples:
        a, f, problems = check_report(report, reference)
        attempted += a
        failed += f
        for problem in problems:
            print(f"output check: {problem}")

    versions = samples[0][1]["versions"]
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": seconds, "trace": int(args.trace),
               **versions, "nproc": len(os.sched_getaffinity(0)),
               "threads": thread_env(), "src_lines": source_lines()}
    print("context " + json.dumps(context, sort_keys=True))
    for stage, note in reference["known_defects"].items():
        print(f"known defect, {stage}: {note}")

    untraced = [s for traced, s, _ in samples if not traced]
    metrics = {}
    if args.trace:
        traced = [s for t, s, _ in samples if t]
        print(f"{len(traced)} traced and {len(untraced)} untraced samples")
        for entry in spec["per_layer"]:
            key = entry["name"]
            if key == "trace.run_s":
                vals = [s["run_s"] for s in traced]
            elif key == "trace.overhead_s":
                vals = [statistics.median(s["run_s"] for s in traced)
                        - statistics.median(s["run_s"] for s in untraced)]
            else:
                vals = [s["layers"][key] for s in traced]
            metrics[key] = {"value": summarize(key, vals, entry["unit"]),
                            "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            key = entry["name"]
            if key == "stages_ok_frac":
                vals = [(attempted - failed) / attempted]
            else:
                vals = [s[key] for s in untraced]
            metrics[key] = {"value": summarize(key, vals, entry["unit"]),
                            "unit": entry["unit"]}
    print(f"{'failed_frac':<32} {failed / attempted:>14.6g} "
          f"{'frac':<12} {failed} of {attempted} stages")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def update_reference(seed):
    """Rewrite reference/<workload>.json from one run of each workload."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in WORKLOADS:
        work = os.path.join(WORK_DIR, f"reference-{name}")
        config_path, outdir = write_config(work, name, seed)
        _, report = run_child(config_path, outdir, False,
                              time.monotonic() + CHILD_TIMEOUT_S)
        shutil.rmtree(work)
        ref = {"workload": name, "seed": seed,
               "known_defects": KNOWN_DEFECTS.get(name, {}),
               "verdicts": report["verdicts"],
               "stages": {k: v for k, v in report["stages"].items()
                          if k in DETERMINISTIC}}
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(ref, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {report['verdicts']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20260824)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.update_reference:
        update_reference(args.seed)
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        try:
            bench(args)
        except RuntimeError as err:
            sys.exit(f"benchmark failed: {err}")


if __name__ == "__main__":
    main()
