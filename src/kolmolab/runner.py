"""Batch front door: validate a JSON run configuration, execute the
requested check stages in dependency order, and write a reproducible
report tree (JSON summary plus plot-ready CSVs).

Every artifact embeds the sha256 of the config file, the seed, and the
package version; reruns of the same config are byte-identical.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os

import numpy as np

from . import __version__
from .audit import check_coupling_growth, full_audit, jsonable
from .dsl import check_guards, const_expr, parse_coeff_expr, \
    parse_state_expr
from .estimates import (max_principle_check, pointwise_check,
                        representation_residual, weighted_gradient_check)
from .fbsde import (DiffusionSpec, FbsdeError, girsanov_weights,
                    horizon_steps, identify_yz, simulate_forward)
from .game import nash_check
from .grids import Grid, GridFunction, interp_multilinear
from .kernels import compactness_probe
from .operators import (FAMILIES, WeightSpec, example_family,
                        matrix_of_consts, scalar_comparison)
from .semilinear import (mild_solve, mollify_nonlinearity,
                         nonlinearity_from_exprs)

__all__ = ["ConfigError", "StageError", "load_config", "run", "audit_only",
           "list_presets", "ALL_CHECKS"]


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    pass


ALL_CHECKS = ("audit", "max_principle", "pointwise", "weighted_gradient",
              "representation", "compactness", "semilinear", "fbsde",
              "girsanov", "nash")

# allowed keys and value types per config section
_SCHEMA = {
    "operator": {"family": str, "params": dict},
    "grid": {"L": float, "n": int},
    "time": {"s": float, "T": float, "dt": float},
    "checks": list,
    "data": {"f": list, "bc": str},
    "weight": {"M": list, "from_family": bool},
    "audit": {"box": float, "epsilon": float, "kappa0": float,
              "sigma": float, "n_samples": int},
    "kernel": {"n_cells": int, "R_list": list, "x_list": list},
    "semilinear": {"psi": list, "mollify_ladder": list,
                   "picard_tol": float, "max_iter": int},
    "mc": {"N": int, "h_step": float, "x0": list},
    "game": {"controls": list, "running_weight": float, "r_gain": float,
             "r_const": float},
    "seed": int,
    "output": str,
}
_REQUIRED = ("operator", "grid", "time", "checks", "seed", "output")


def _check_keys(section, allowed, where):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")


def load_config(path):
    """Parse and schema-validate a run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _SCHEMA, "config root")
    for key in _REQUIRED:
        if key not in cfg:
            raise ConfigError(f"missing required section {key!r}")
    for key, val in cfg.items():
        spec = _SCHEMA[key]
        if isinstance(spec, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"section {key!r} must be an object")
            _check_keys(val, spec, f"section {key!r}")
            for sub, v in val.items():
                _check_type(f"{key}.{sub}", v, spec[sub])
        else:
            _check_type(key, val, spec)
    checks = cfg["checks"]
    bad = [c for c in checks if c not in ALL_CHECKS]
    if bad:
        raise ConfigError(f"unknown check(s) {bad}; known: {ALL_CHECKS}")
    if "weighted_gradient" in checks and "weight" not in cfg:
        raise ConfigError(
            "check 'weighted_gradient' needs a 'weight' section")
    if "operator" in cfg and "family" in cfg["operator"]:
        if cfg["operator"]["family"] not in FAMILIES:
            raise ConfigError(
                f"unknown family {cfg['operator']['family']!r}; "
                f"known: {sorted(FAMILIES)}")
    _check_time(cfg["time"])
    _check_mc(cfg)
    _check_kernel(cfg)
    return cfg


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _check_type(name, val, typ):
    """int is an int that is not a bool, float a finite int or float that
    is not a bool; list, str, bool and dict are that Python type."""
    ok = _is_number(val) if typ is float else isinstance(val, typ) and \
        not (typ is int and isinstance(val, bool))
    if not ok:
        what = "a finite number" if typ is float else f"of type {typ.__name__}"
        raise ConfigError(f"{name} must be {what}, got {val!r}")


def _check_time(t):
    """s, T and dt are given with T > s and dt > 0."""
    for key in ("s", "T", "dt"):
        if key not in t:
            raise ConfigError(f"time.{key} is required")
    if not (t["T"] > t["s"] and t["dt"] > 0):
        raise ConfigError(f"time needs T > s and dt > 0, got {t!r}")


def _check_mc(cfg):
    """Ranges of the Monte-Carlo section."""
    mc = cfg.get("mc", {})
    if mc.get("N", 2) < 2:
        raise ConfigError(f"mc.N must be an integer >= 2, got {mc['N']!r}")
    if "h_step" in mc:
        h = mc["h_step"]
        if h <= 0:
            raise ConfigError(f"mc.h_step must be a number > 0, got {h!r}")
        T, s = cfg["time"]["T"], cfg["time"]["s"]
        try:
            horizon_steps(T - s, h)
        except FbsdeError:
            raise ConfigError(
                f"mc.h_step = {h!r} does not divide T - s = {T - s!r}")
    if "x0" in mc:
        x0 = mc["x0"]
        d = (cfg["operator"].get("params") or {}).get("d", 1)
        if len(x0) != d or not all(_is_number(v) for v in x0):
            raise ConfigError(
                f"mc.x0 must be a list of d = {d} numbers, got {x0!r}")


def _check_kernel(cfg):
    """Ranges of the kernel probe and of the mollifier ladder."""
    kern = cfg.get("kernel", {})
    n = kern.get("n_cells", 1)
    if not 1 <= n <= 64:
        raise ConfigError(f"kernel.n_cells must be in [1, 64], got {n!r}")
    R_list = kern.get("R_list", [1.0])
    if not R_list or not all(_is_number(R) for R in R_list):
        raise ConfigError(f"kernel.R_list must be a non-empty list of "
                          f"numbers, got {R_list!r}")
    if "x_list" in kern:
        x_list = kern["x_list"]
        d = (cfg["operator"].get("params") or {}).get("d", 1)
        half = cfg["grid"].get("L", math.inf) / 2
        if not x_list or not all(
                isinstance(x, list) and len(x) == d
                and all(_is_number(v) and abs(v) < half for v in x)
                for x in x_list):
            raise ConfigError(
                f"kernel.x_list must be a non-empty list of points of "
                f"d = {d} numbers with max |x| < L/2 = {half!r}, "
                f"got {x_list!r}")
    ladder = cfg.get("semilinear", {}).get("mollify_ladder", [1])
    if not ladder or not all(isinstance(n, int) and not isinstance(n, bool)
                             and n >= 1 for n in ladder):
        raise ConfigError(
            f"semilinear.mollify_ladder must be a non-empty list of "
            f"integers >= 1, got {ladder!r}")


def _build_operator(cfg):
    fam = cfg["operator"]["family"]
    built = example_family(fam, cfg["operator"].get("params"))
    if isinstance(built, tuple):
        spec, weight = built
    else:
        spec, weight = built, None
    wcfg = cfg.get("weight")
    if wcfg is not None:
        if wcfg.get("from_family"):
            if weight is None:
                raise ConfigError(
                    f"family {fam!r} supplies no weight; give weight.M")
        elif "M" in wcfg:
            weight = WeightSpec(spec.d,
                                matrix_of_consts(wcfg["M"], spec.d))
        else:
            raise ConfigError("weight section needs 'M' or 'from_family'")
    return spec, weight


def _default_f(spec, grid, cfg):
    data = cfg.get("data", {})
    bc = data.get("bc", "neumann")
    if "f" in data:
        exprs = [parse_coeff_expr(s, spec.d) for s in data["f"]]
        if len(exprs) != spec.m:
            raise ConfigError("data.f needs one expression per component")
        for e in exprs:
            check_guards(e, grid.L, spec.time_interval)
        vals = np.stack([np.broadcast_to(e(0.0, grid.points()),
                                         (grid.n_nodes,))
                         for e in exprs])
        return GridFunction(grid, spec.m, vals, bc=bc)

    def fn(p):
        rows = [np.exp(-np.sum(p ** 2, axis=0))]
        for k in range(1, spec.m):
            rows.append(np.cos((k + 1) * p[0]))
        return np.stack(rows)

    return GridFunction.from_callable(grid, spec.m, fn, bc=bc)


class _Runner:
    def __init__(self, cfg, cfg_bytes, outdir):
        self.cfg = cfg
        self.outdir = outdir
        self.hash = hashlib.sha256(cfg_bytes).hexdigest()
        self.seed = int(cfg["seed"])
        g, t = cfg["grid"], cfg["time"]
        try:  # FamilyError, DslError and Grid's checks are config errors
            self.spec, self.weight = _build_operator(cfg)
            self.grid = Grid(self.spec.d, float(g["L"]), int(g["n"]))
            self.spec.check_guards(self.grid.L)
            self.f = _default_f(self.spec, self.grid, cfg)
            psi = self._opt("semilinear", "psi", None)
            d, m = self.spec.d, self.spec.m
            for text in psi or []:
                check_guards(parse_state_expr(text, d, m), self.grid.L,
                             self.spec.time_interval)
            # the configured nonlinearity, or None for a linear run
            self.nl = None if psi is None else \
                nonlinearity_from_exprs(psi, d, m)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        self.s, self.T, self.dt = float(t["s"]), float(t["T"]), \
            float(t["dt"])
        self.box = self._opt("audit", "box", self.grid.L)
        self.sol = None  # filled by the semilinear/fbsde stages

    def _opt(self, section, key, default):
        """cfg[section][key], or default when either is absent."""
        return self.cfg.get(section, {}).get(key, default)

    def _path(self, name):
        return os.path.join(self.outdir, name)

    def _write_csv(self, name, header, rows):
        with open(self._path(name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([f"{v:.15g}" if isinstance(v, float) else v
                            for v in row])

    def _write_json(self, name, payload):
        with open(self._path(name), "w") as fh:
            json.dump(jsonable(payload), fh, indent=2, sort_keys=True,
                      allow_nan=False)

    # stage implementations -------------------------------------------
    def stage_audit(self):
        sections = full_audit(
            self.spec, self.box, weight=self.weight,
            epsilon=self._opt("audit", "epsilon", 1.0),
            kappa0=self._opt("audit", "kappa0", 0.0),
            sigma=self._opt("audit", "sigma", 0.5),
            n_samples=self._opt("audit", "n_samples", 1024))
        verdicts = {k: v["verdict"] for k, v in sections.items()}
        self._write_json("audit.json", {
            "spec": self.spec.name, "box": self.box,
            "sections": sections, "verdicts": verdicts,
            "config_sha256": self.hash, "seed": self.seed,
            "version": __version__})
        return {"verdict": "PASS" if all(verdicts.values()) else "FAIL",
                "sections": verdicts}

    def stage_max_principle(self):
        res = max_principle_check(
            self.spec, self.f, self.s, self.T,
            epsilon=self._opt("audit", "epsilon", 1.0),
            kappa0=self._opt("audit", "kappa0", 1.0),
            dt_list=(2 * self.dt, self.dt))
        self._write_csv("max_principle.csv",
                        ["dt", "ratio"],
                        [(d, r) for d, r in zip((2 * self.dt, self.dt),
                                                res.refinement_trend)])
        return res.as_dict()

    def stage_pointwise(self):
        HJ = check_coupling_growth(self.spec, self.box,
                                   self._opt("audit", "sigma", 0.5))["HJ"]
        res = pointwise_check(self.spec, self.f, self.s, self.T,
                              HJ=max(float(HJ), 0.0), dt=self.dt)
        return res.as_dict()

    def stage_weighted_gradient(self):
        n = self.grid.n
        pair = [self.grid, Grid(self.spec.d, self.grid.L, 2 * n - 1)]
        res = weighted_gradient_check(
            self.spec, self.weight,
            lambda p: np.stack([np.tanh(p[0])]
                               + [np.cos(p[0])] * (self.spec.m - 1)),
            self.s, self.T, t_list=[self.T / 2, self.T], grid_pair=pair,
            dt=self.dt)
        return res.as_dict()

    def stage_representation(self):
        dts = (4 * self.dt, 2 * self.dt, self.dt)
        resids = [representation_residual(self.spec, self.f, 0, self.s,
                                          self.T, dt) for dt in dts]
        self._write_csv("representation.csv", ["dt", "residual"],
                        list(zip(dts, resids)))
        decoupled = resids[0] <= 1e-12
        ok = decoupled or all(resids[k + 1] <= 0.65 * resids[k]
                              for k in range(len(resids) - 1))
        return {"verdict": "PASS" if ok else "FAIL", "dts": list(dts),
                "residuals": resids, "decoupled": bool(decoupled)}

    def stage_compactness(self):
        n_cells = self._opt("kernel", "n_cells", 24)
        R_list = self._opt("kernel", "R_list", [1.0, 2.0, 3.0])
        x_list = self._opt("kernel", "x_list", [
            [0.0] * self.spec.d, [1.0] + [0.0] * (self.spec.d - 1)])
        vec, sca = [compactness_probe(spec, self.grid, self.T, self.s,
                                      x_list, R_list, n_cells, 2 * self.dt,
                                      bc="neumann")
                    for spec in (self.spec, scalar_comparison(self.spec))]
        rows = [(str(e["x"]), *e["outside"]) for e in vec["table"]]
        self._write_csv("compactness.csv",
                        ["x"] + [f"outside_R{R:g}" for R in R_list], rows)
        return {"verdict": "PASS" if vec["verdict"] else "FAIL",
                "scalar_agrees": bool(sca["verdict"] == vec["verdict"]),
                "vector": vec, "scalar": sca}

    def _mild_solve(self, nl):
        """mild_solve over [s, T] with the configured Picard settings."""
        return mild_solve(self.spec, nl, self.f, self.T - self.s, self.dt,
                          picard_tol=self._opt("semilinear", "picard_tol",
                                               1e-8),
                          max_iter=self._opt("semilinear", "max_iter", 40))

    def stage_semilinear(self):
        nl = self.nl
        ladder = self._opt("semilinear", "mollify_ladder", [8, 16, 32])
        sols, norms = [], []
        for n in ([None] if nl is None else ladder):
            sol = self._mild_solve(
                nl if n is None else mollify_nonlinearity(nl, n))
            sols.append(sol)
            norms.append(sol.kt_norm)
        self.sol = sols[-1]
        spread = (max(norms) - min(norms)) / max(max(norms), 1e-300)
        converged = all(sol.converged for sol in sols)
        self._write_csv("semilinear.csv", ["mollify_n", "kt_norm"],
                        [(0 if n is None else n, v)
                         for n, v in zip([None] if nl is None else ladder,
                                         norms)])
        ok = converged and spread <= 0.10
        return {"verdict": "PASS" if ok else "FAIL",
                "kt_norms": norms, "spread": float(spread),
                "picard_history": self.sol.picard_history}

    @functools.cached_property
    def ds(self):
        """The controlled forward diffusion shared by the Monte-Carlo
        stages."""
        controls = tuple(map(tuple, self._opt("game", "controls", [])))
        w = self._opt("game", "running_weight", 1.0)
        gain = self._opt("game", "r_gain", 0.5)
        r_const = self._opt("game", "r_const", None)
        f = self.f

        def g_fn(pts):
            # interp_multilinear clamps the points to the box
            return interp_multilinear(self.grid, f.values, pts)

        def r2(pts, u):
            out = np.zeros((self.spec.d, pts.shape[1]))
            for i in range(min(len(controls), self.spec.d)):
                out[i] = gain * u[i]
            return out

        def h(pts, u):
            return np.stack([w * u[i] ** 2 for i in range(len(controls))])

        r1 = None
        if r_const is not None:
            r1 = tuple(const_expr(float(r_const), self.spec.d)
                       for _ in range(self.spec.d))
        return DiffusionSpec(op=self.spec, g=g_fn, r1=r1,
                             r2=r2 if controls else None,
                             controls=controls, h=h if controls else None)

    def _x0(self):
        return self._opt("mc", "x0", [0.0] * self.spec.d)

    @functools.cached_property
    def batch(self):
        """The uncontrolled path batch from x0 over [0, T - s] that the
        fbsde, girsanov and nash stages share."""
        return simulate_forward(
            self.ds, self._x0(), 0.0, self.T - self.s,
            self._opt("mc", "h_step", (self.T - self.s) / 32),
            self._opt("mc", "N", 4000), self.seed)

    def stage_fbsde(self):
        if self.sol is None:
            self.sol = self._mild_solve(self.nl)
        yz = identify_yz(self.sol, self.ds, self.batch)
        vals = yz.Y[yz.valid, -1, :]
        mc = np.mean(vals, axis=0)
        se = np.std(vals, axis=0, ddof=1) / np.sqrt(vals.shape[0])
        pde = self.sol.eval(0.0, np.asarray(self._x0(), dtype=float)
                            .reshape(-1, 1))[:, 0]
        lin = self.nl is None
        gap = np.abs(mc - pde)
        ok = self.sol.converged and (
            not lin or bool(np.all(gap <= 3 * se + 5e-3)))
        return {"verdict": "PASS" if ok else "FAIL",
                "feynman_kac_gap": gap.tolist(), "stderr": se.tolist(),
                "n_excluded": yz.n_excluded, "linear": lin}

    def stage_girsanov(self):
        ds, batch = self.ds, self.batch
        zero = girsanov_weights(
            DiffusionSpec(op=self.spec, g=ds.g), batch, None)
        exact_one = bool(np.all(zero.rho == 1.0))
        w = girsanov_weights(ds, batch, None)
        se = float(np.std(w.rho, ddof=1) / np.sqrt(batch.N))
        gap = abs(float(np.mean(w.rho)) - 1.0)
        ok = exact_one and (se == 0.0 or gap <= 3 * se)
        return {"verdict": "PASS" if ok else "FAIL",
                "mean_rho_gap": gap, "stderr": se,
                "zero_control_exact": exact_one}

    def stage_nash(self):
        ds = self.ds
        if not ds.controls:
            raise StageError("nash check needs game.controls")
        if len(ds.controls) > self.spec.m:
            raise StageError("game.controls has more players than the "
                             "operator has components")
        report = nash_check(ds, self.sol, self.batch)
        self._write_csv("nash.csv", ["player", "deviation", "dJ", "stderr"],
                        [(r["player"] + 1, f"{r['deviation']:.12g}",
                          r["dJ"], r["stderr"]) for r in report["rows"]])
        return {"verdict": "PASS" if report["verdict"] else "FAIL",
                "rows": report["rows"]}


def _setup(config_path, outdir):
    """Load and validate the config, build the stage runner and then make
    its output directory (outdir, else the config's own), so that a
    config error leaves no directory behind."""
    cfg = load_config(config_path)
    with open(config_path, "rb") as fh:
        cfg_bytes = fh.read()
    runner = _Runner(cfg, cfg_bytes, outdir or cfg["output"])
    os.makedirs(runner.outdir, exist_ok=True)
    return runner


def run(config_path, outdir=None):
    """Execute a config; returns (exit_code, report dict)."""
    runner = _setup(config_path, outdir)
    order = [c for c in ALL_CHECKS if c in runner.cfg["checks"]]
    stages = {}
    code = 0
    for name in order:
        try:
            stages[name] = getattr(runner, f"stage_{name}")()
        except Exception as err:  # noqa: BLE001 - stage isolation
            stages[name] = {"verdict": "ERROR", "error": str(err)}
            code = 1
            break
    verdicts = {k: v.get("verdict") for k, v in stages.items()}
    if any(v == "FAIL" for v in verdicts.values()):
        code = max(code, 1)
    report = {"version": __version__, "config_sha256": runner.hash,
              "seed": runner.seed, "stages": jsonable(stages),
              "verdicts": verdicts, "exit_code": code}
    runner._write_json("report.json", report)
    return code, report


def audit_only(config_path, outdir=None):
    """Run just the hypothesis audit of a config."""
    runner = _setup(config_path, outdir)
    result = runner.stage_audit()
    return (0 if result["verdict"] == "PASS" else 1), result


def list_presets():
    """Rows of (family, constraint description)."""
    return sorted(FAMILIES.items())
