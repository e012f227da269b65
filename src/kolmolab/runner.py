"""Batch front door: validate a JSON run configuration, execute the
requested check stages in dependency order, and write a reproducible
report tree (JSON summary plus plot-ready CSVs).

Every artifact embeds the sha256 of the config file, the seed, and the
package version; reruns of the same config are byte-identical.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np

from . import __version__
from .audit import full_audit
from .dsl import check_guards, const_expr, parse_coeff_expr, \
    parse_state_expr
from .estimates import (max_principle_check, pointwise_check,
                        representation_residual, squared_solve,
                        weighted_gradient_check)
from .evolve import _Stepper, _time_ladder, evolve
from .fbsde import (DiffusionSpec, girsanov_weights, simulate_forward,
                    valid_paths)
from .game import nash_check
from .grids import Grid, interp_multilinear
from .kernels import _cell_table, compactness_probe
from .operators import (FAMILIES, example_family, matrix_of_consts,
                        numeric_matrix, scalar_comparison)
from .semilinear import (mild_solve, mollify_nonlinearity,
                         nonlinearity_from_exprs)

__all__ = ["ConfigError", "load_config", "run", "audit_only",
           "list_presets", "ALL_CHECKS"]


class ConfigError(ValueError):
    pass


ALL_CHECKS = ("audit", "max_principle", "pointwise", "weighted_gradient",
              "representation", "compactness", "semilinear", "fbsde",
              "girsanov", "nash")

_REQUIRED = object()  # the default of a key that every config must give


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _numbers(v):
    """v is a non-empty list of finite numbers."""
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


def _dim(cfg):
    return int(cfg["operator"]["params"].get("d", 1))


def _points(v, cfg):
    """v is a non-empty list of points of d numbers."""
    return len(v) > 0 and all(_numbers(x) and len(x) == _dim(cfg)
                              for x in v)


# Each config key as (type, default) or (type, default, range check, what
# the check asks).  A default is _REQUIRED, a value, or a function of the
# config with the keys above it filled in; a range check is a predicate of
# the given value and that config.  A default is not range-checked.
_SCHEMA = {
    "operator": {
        "family": (str, _REQUIRED, lambda v, cfg: v in FAMILIES,
                   f"a known family {sorted(FAMILIES)}"),
        "params": (dict, {}, lambda v, cfg: type(d := v.get("d", 1)) is int
                   and d in (1, 2)
                   and _numbers(ti := v.get("time_interval", [0, 1]))
                   and len(ti) == 2, "an object whose d, if given, is the "
                   "integer 1 or 2 and whose time_interval, if given, is "
                   "two numbers")},
    "grid": {"L": (float, _REQUIRED), "n": (int, _REQUIRED)},
    "time": {"s": (float, _REQUIRED),
             "T": (float, _REQUIRED, lambda v, cfg: v > cfg["time"]["s"],
                   "greater than time.s"),
             # 4dt <= T - s keeps the 4dt, 2dt and dt ladders distinct
             "dt": (float, _REQUIRED, lambda v, cfg:
                    0 < 4 * v <= cfg["time"]["T"] - cfg["time"]["s"],
                    "> 0 with 4 dt <= time.T - time.s")},
    "checks": (list, _REQUIRED,
               lambda v, cfg: len(v) > 0 and all(c in ALL_CHECKS for c in v),
               f"a non-empty list of known checks {ALL_CHECKS}"),
    "data": {"f": (list, None),
             "bc": (str, "neumann",
                    lambda v, cfg: v in ("neumann", "dirichlet"),
                    "'neumann' or 'dirichlet'")},
    "weight": {"M": (list, None)},
    "audit": {"box": (float, lambda cfg: float(cfg["grid"]["L"]),
                      lambda v, cfg: v > 0, "> 0"),
              "epsilon": (float, 1.0, lambda v, cfg: v > 0, "> 0"),
              "kappa0": (float, 0.0),
              "sigma": (float, None),  # the operator's, if given
              "n_samples": (int, 1024, lambda v, cfg: v >= 1,
                            "an integer >= 1")},
    "kernel": {
        "n_cells": (int, 24, lambda v, cfg: 1 <= v <= 64, "in [1, 64]"),
        "R_list": (list, [1.0, 2.0, 3.0],
                   lambda v, cfg: _numbers(v) and min(v) > 0,
                   "a non-empty list of numbers > 0"),
        "x_list": (list, lambda cfg: [[0.0] * _dim(cfg),
                                      [1.0] + [0.0] * (_dim(cfg) - 1)],
                   _points, "a non-empty list of points of d numbers")},
    "semilinear": {
        "psi": (list, None),
        "mollify_ladder": (list, [8, 16, 32], lambda v, cfg: len(v) > 0
                           and all(type(n) is int and n >= 1 for n in v),
                           "a non-empty list of integers >= 1"),
        "picard_tol": (float, 1e-8, lambda v, cfg: v > 0, "> 0"),
        "max_iter": (int, 40, lambda v, cfg: v >= 1, "an integer >= 1")},
    "mc": {
        "N": (int, 4000, lambda v, cfg: v >= 2, "an integer >= 2"),
        # the largest step of _time_ladder(s, T, h_step), as time.dt is
        "h_step": (float,
                   lambda cfg: (cfg["time"]["T"] - cfg["time"]["s"]) / 32,
                   lambda v, cfg: 0 < v <= cfg["time"]["T"] - cfg["time"]["s"],
                   "in (0, time.T - time.s]"),
        "x0": (list, lambda cfg: [0.0] * _dim(cfg),
               lambda v, cfg: _numbers(v) and len(v) == _dim(cfg)
               and max(map(abs, v)) < cfg["grid"]["L"],
               "a list of d numbers with max |x0_i| < grid.L")},
    "game": {"controls": (list, [], lambda v, cfg: all(map(_numbers, v)),
                          "a list of non-empty lists of numbers"),
             "running_weight": (float, 1.0), "r_gain": (float, 0.5),
             "r_const": (float, None)},
    "seed": (int, _REQUIRED, lambda v, cfg: -2 ** 63 <= v < 2 ** 63,
             "an integer in the signed 64-bit range [-2**63, 2**63)"),
    "output": (str, _REQUIRED),
}


def _check_keys(section, allowed, where):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")


def load_config(path):
    """Parse a run configuration, check it against _SCHEMA and return it
    with every missing key filled in with its default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _SCHEMA, "config root")
    # (dotted name, dict that holds the key, key, table entry), in order
    entries = []
    for name, spec in _SCHEMA.items():
        if not isinstance(spec, dict):
            entries.append((name, cfg, name, spec))
            continue
        section = cfg.setdefault(name, {})  # an absent section is empty
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        _check_keys(section, spec, f"section {name!r}")
        entries += [(f"{name}.{key}", section, key, entry)
                    for key, entry in spec.items()]
    for name, holder, key, (typ, default, *_) in entries:
        if key in holder:
            _check_type(name, holder[key], typ)
        elif default is _REQUIRED:
            raise ConfigError(f"{name} is required")
    # range checks and derived defaults read only keys above their own
    for name, holder, key, (_, default, *check) in entries:
        if key not in holder:
            holder[key] = copy.deepcopy(
                default(cfg) if callable(default) else default)
        elif check and not check[0](holder[key], cfg):
            raise ConfigError(
                f"{name} must be {check[1]}, got {holder[key]!r}")
    if "nash" in cfg["checks"] and not cfg["game"]["controls"]:
        raise ConfigError("check 'nash' needs game.controls")
    if "girsanov" in cfg["checks"] and not cfg["game"]["r_const"]:
        # with no drift rho == 1, and 0 <= 3 * stderr 0 cannot fail
        raise ConfigError("check 'girsanov' needs a nonzero game.r_const")
    return cfg


def _check_type(name, val, typ):
    """int is an int that is not a bool, float a finite int or float that
    is not a bool; list, str, bool and dict are that Python type."""
    ok = _is_number(val) if typ is float else isinstance(val, typ) and \
        not (typ is int and isinstance(val, bool))
    if not ok:
        what = "a finite number" if typ is float else f"of type {typ.__name__}"
        raise ConfigError(f"{name} must be {what}, got {val!r}")


def _build_operator(cfg):
    """The family's operator, whose weight is weight.M when given, else
    the family's own (None for a family without one).  A given
    audit.sigma must be the operator's sigma, which the audit reads."""
    spec = example_family(cfg["operator"]["family"],
                          cfg["operator"]["params"])
    if (sigma := cfg["audit"]["sigma"]) not in (None, spec.sigma):
        raise ConfigError(f"audit.sigma must be the family's sigma "
                          f"{spec.sigma!r}, got {sigma!r}")
    if cfg["weight"]["M"] is not None:
        M = numeric_matrix(cfg["weight"]["M"], (spec.d, spec.d), "weight.M")
        if not (np.array_equal(M, M.T) and np.linalg.eigvalsh(M)[0] > 0):
            raise ConfigError(f"weight.M must be symmetric positive "
                              f"definite, got {cfg['weight']['M']!r}")
        spec = replace(spec, weight=matrix_of_consts(M, spec.d))
    return spec


def _default_f(spec, grid, cfg):
    """The datum (m, N) on grid: data.f at time.s, else exp(-|x|^2) and
    then cos((k + 1) x_1) for each further component k."""
    pts = grid.points()
    if cfg["data"]["f"] is not None:
        exprs = [parse_coeff_expr(s, spec.d) for s in cfg["data"]["f"]]
        if len(exprs) != spec.m:
            raise ConfigError("data.f needs one expression per component")
        for e in exprs:
            check_guards(e, grid.L, spec.time_interval)
        s = cfg["time"]["s"]  # f is the datum at the initial time
        return np.stack([np.broadcast_to(e(s, pts), (grid.n_nodes,))
                         for e in exprs], dtype=float)
    return np.stack([np.exp(-np.sum(pts ** 2, axis=0)),
                     *(np.cos((k + 1) * pts[0]) for k in range(1, spec.m))])


def jsonable(obj):
    """obj with every numpy scalar and array inside it turned into the
    plain Python value strict json can write; a non-finite float becomes
    None."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _kept(value):
    """value, unless it is the error that a march kept: then raise it."""
    if isinstance(value, Exception):
        raise value
    return value


class _Runner:
    def __init__(self, cfg, cfg_bytes, outdir):
        self.cfg = cfg
        self.outdir = outdir
        self.hash = hashlib.sha256(cfg_bytes).hexdigest()
        self.s, self.T, self.dt = float(cfg["time"]["s"]), \
            float(cfg["time"]["T"]), float(cfg["time"]["dt"])
        try:  # FamilyError, DslError and Grid's checks are config errors
            self.spec = _build_operator(cfg)
            if "weighted_gradient" in cfg["checks"] and \
                    self.spec.weight is None:
                raise ConfigError(
                    f"check 'weighted_gradient' needs a weight: family "
                    f"{cfg['operator']['family']!r} supplies no weight; "
                    f"give weight.M")
            if "nash" in cfg["checks"] and \
                    len(cfg["game"]["controls"]) > self.spec.m:
                raise ConfigError("game.controls has more players than the "
                                  "operator has components")
            lo, hi = self.spec.time_interval  # the guards' and audit's t
            if not (lo <= self.s and self.T <= hi):
                raise ConfigError(f"time [s, T] must lie in the family's "
                                  f"time_interval [{lo!r}, {hi!r}]")
            self.grid = Grid(self.spec.d, float(cfg["grid"]["L"]),
                             cfg["grid"]["n"], cfg["data"]["bc"])
            self.spec.check_guards(self.grid.L)
            # the base points, radii and cells are read only by compactness,
            # so their defaults do not refuse a small box that skips it
            x_list, R_list = cfg["kernel"]["x_list"], cfg["kernel"]["R_list"]
            if "compactness" in cfg["checks"]:
                if np.max(np.abs(x_list)) >= self.grid.probe_L:
                    raise ConfigError(
                        f"kernel.x_list must be points with max |x| < "
                        f"grid.L / 2 = {self.grid.probe_L!r}, got {x_list!r}")
                if max(R_list) > self.grid.probe_L:
                    raise ConfigError(
                        f"kernel.R_list must be radii <= grid.L / 2 = "
                        f"{self.grid.probe_L!r}, got {R_list!r}")
                # a ball that holds every cell centre has no outside mass;
                # the centres do not depend on n, so the table of the
                # box's coarsest grid gives them without a (cells, N) array
                n_cells = cfg["kernel"]["n_cells"]
                radii = _cell_table(replace(self.grid, n=5), n_cells)[1]
                if np.max(radii) <= max(R_list):
                    raise ConfigError(
                        f"kernel.n_cells must put a cell centre past "
                        f"max(kernel.R_list) = {max(R_list)!r}, got {n_cells}")
            self.f = _default_f(self.spec, self.grid, cfg)
            psi = cfg["semilinear"]["psi"]
            d, m = self.spec.d, self.spec.m
            for text in psi or []:
                check_guards(parse_state_expr(text, d, m), self.grid.L,
                             self.spec.time_interval)
            # the configured nonlinearity, or None for a linear run
            self.nl = None if psi is None else \
                nonlinearity_from_exprs(psi, d, m)
        except ValueError as err:
            raise ConfigError(str(err)) from err

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

    @functools.cached_property
    def audit(self):
        """The hypothesis audit's sections, which the audit and pointwise
        stages share."""
        return full_audit(
            self.spec, self.cfg["audit"]["box"],
            epsilon=self.cfg["audit"]["epsilon"],
            kappa0=self.cfg["audit"]["kappa0"],
            n_samples=self.cfg["audit"]["n_samples"])

    @functools.cached_property
    def marches(self):
        """Every march the requested estimate checks read, keyed by
        (kind, step size), made in one pass when the first of them is
        read.  The pass walks the step sizes 4dt, 2dt and dt, coarse to
        fine, with one stepper per operator, so each operator is
        assembled once per run.  At each size it makes the vector
        operator's marches and then the scalar comparison's, and drops
        each operator's LU after its last march of that size, so one LU
        is alive at a time.  A march that raises keeps its error under
        its key, and only the stages that read it raise it."""
        checks = self.cfg["checks"]
        kernel = (self.cfg["kernel"]["x_list"], self.cfg["kernel"]["R_list"],
                  self.cfg["kernel"]["n_cells"])
        ops = (self.spec, scalar_comparison(self.spec))
        # one stepper per operator and box: compactness reads the kernel
        # rows of the Neumann box, which is the run's box under Neumann
        neumann = replace(self.grid, bc="neumann")
        steppers = {grid: [_Stepper(op, grid) for op in ops]
                    for grid in {self.grid, neumann}}
        vector, scalar = steppers[self.grid]
        # the step sizes, as multiples of dt, whose solve each check reads
        reads = {"max_principle": (2, 1), "pointwise": (1,),
                 "weighted_gradient": (1,), "representation": (4, 2, 1)}
        done = {}

        def attempt(key, make):
            try:
                done[key] = make()
            except Exception as err:  # noqa: BLE001 - stage isolation
                done[key] = err

        def drop(op):
            for pair in steppers.values():
                pair[op].drop()

        for k in (4, 2, 1):
            dt = k * self.dt
            times = _time_ladder(self.s, self.T, dt)
            probes = "compactness" in checks and k == 2
            if any(k in reads[c] for c in checks if c in reads):
                attempt(("solve", dt), lambda: vector.solve(self.f, times))
            if probes:
                attempt(("vector", dt), lambda: compactness_probe(
                    steppers[neumann][0], times, *kernel))
            drop(0)
            if "pointwise" in checks and k == 1:
                attempt(("squared", dt), lambda: squared_solve(
                    scalar, _kept(done["solve", dt])))
            if "representation" in checks:
                attempt(("residual", dt), lambda: representation_residual(
                    self.spec, _kept(done["solve", dt]), scalar))
            if probes:
                attempt(("scalar", dt), lambda: compactness_probe(
                    steppers[neumann][1], times, *kernel))
            drop(1)
        return done

    def marched(self, kind, dt):
        """What the pass made of the march (kind, dt).  A solve stays for
        every stage that reads it; any other march has one reader, which
        takes it, so that it is freed with its stage."""
        if kind == "solve":
            return _kept(self.marches[kind, dt])
        return _kept(self.marches.pop((kind, dt)))

    # stage implementations -------------------------------------------
    def stage_audit(self):
        sections = self.audit
        verdicts = {k: v["verdict"] for k, v in sections.items()}
        self._write_json("audit.json", {
            "spec": self.spec.name, "box": self.cfg["audit"]["box"],
            "sections": sections, "verdicts": verdicts,
            "config_sha256": self.hash, "seed": self.cfg["seed"],
            "version": __version__})
        return {"verdict": "PASS" if all(verdicts.values()) else "FAIL",
                "sections": verdicts}

    def stage_max_principle(self):
        dts = (2 * self.dt, self.dt)
        res = max_principle_check(
            [self.marched("solve", dt) for dt in dts],
            epsilon=self.cfg["audit"]["epsilon"],
            kappa0=self.cfg["audit"]["kappa0"])
        self._write_csv("max_principle.csv", ["dt", "ratio"],
                        list(zip(dts, res["refinement_trend"])))
        return res

    def stage_pointwise(self):
        HJ = self.audit["coupling_growth"]["HJ"]
        return pointwise_check(self.marched("solve", self.dt),
                               self.marched("squared", self.dt),
                               HJ=max(float(HJ), 0.0))

    def stage_weighted_gradient(self):
        fine = replace(self.grid, n=2 * self.grid.n - 1)
        f = _default_f(self.spec, fine, self.cfg)
        return weighted_gradient_check(
            self.spec, [self.marched("solve", self.dt),
                        evolve(self.spec, fine, f, self.s, self.T, self.dt)])

    def stage_representation(self):
        dts = (4 * self.dt, 2 * self.dt, self.dt)
        resids = [self.marched("residual", dt) for dt in dts]
        self._write_csv("representation.csv", ["dt", "residual"],
                        list(zip(dts, resids)))
        decoupled = resids[0] <= 1e-12
        ok = decoupled or all(resids[k + 1] <= 0.65 * resids[k]
                              for k in range(len(resids) - 1))
        return {"verdict": "PASS" if ok else "FAIL", "dts": list(dts),
                "residuals": resids, "decoupled": bool(decoupled)}

    def stage_compactness(self):
        vec, sca = [self.marched(name, 2 * self.dt)
                    for name in ("vector", "scalar")]
        rows = [(str(e["x"]), *e["outside"]) for e in vec["table"]]
        self._write_csv("compactness.csv",
                        ["x"] + [f"outside_R{R:g}" for R in vec["R_list"]],
                        rows)
        return {"verdict": "PASS" if vec["verdict"] else "FAIL",
                "scalar_agrees": bool(sca["verdict"] == vec["verdict"]),
                "vector": vec, "scalar": sca}

    def _mild_solve(self, nl, coarser=()):
        """mild_solve over [s, T] with the configured Picard settings."""
        return mild_solve(
            self.spec, nl, self.grid, self.f, self.s, self.T, self.dt,
            picard_tol=self.cfg["semilinear"]["picard_tol"],
            max_iter=self.cfg["semilinear"]["max_iter"], coarser=coarser)

    @functools.cached_property
    def sol(self):
        """The u that the fbsde and nash stages read and the semilinear
        stage's last rung: psi mollified at the ladder's last n, or the
        linear solve when there is no psi.  When the semilinear check
        runs, the ladder's coarser rungs are solved with it, as its
        rungs."""
        if self.nl is None:
            return self._mild_solve(None)
        ladder = self.cfg["semilinear"]["mollify_ladder"]
        if "semilinear" not in self.cfg["checks"]:
            ladder = ladder[-1:]
        *coarser, last = [mollify_nonlinearity(self.nl, n) for n in ladder]
        return self._mild_solve(last, coarser)

    def stage_semilinear(self):
        ladder = [None] if self.nl is None else \
            self.cfg["semilinear"]["mollify_ladder"]
        sols = [*self.sol.rungs, self.sol]
        norms = [sol.kt_norm for sol in sols]
        spread = (max(norms) - min(norms)) / max(max(norms), 1e-300)
        converged = all(sol.converged for sol in sols)
        self._write_csv("semilinear.csv", ["mollify_n", "kt_norm"],
                        [(0 if n is None else n, v)
                         for n, v in zip(ladder, norms)])
        ok = converged and spread <= 0.10
        return {"verdict": "PASS" if ok else "FAIL",
                "kt_norms": norms, "spread": float(spread),
                "picard_history": self.sol.picard_history}

    @functools.cached_property
    def ds(self):
        """The controlled forward diffusion shared by the Monte-Carlo
        stages."""
        controls = tuple(map(tuple, self.cfg["game"]["controls"]))
        w = self.cfg["game"]["running_weight"]
        gain = self.cfg["game"]["r_gain"]
        r_const = self.cfg["game"]["r_const"]
        r1 = None if r_const is None else tuple(
            const_expr(float(r_const), self.spec.d)
            for _ in range(self.spec.d))

        def g_fn(pts):
            # interp_multilinear clamps the points to the box
            return interp_multilinear(self.grid, self.f, pts)

        def r2(pts, u):
            out = np.zeros((self.spec.d, pts.shape[1]))
            k = min(len(controls), self.spec.d)
            out[:k] = gain * u[:k]
            return out

        def h(i, pts, u):
            return w * u[i] ** 2

        return DiffusionSpec(op=self.spec, g=g_fn, r1=r1,
                             r2=r2 if controls else None,
                             controls=controls, h=h if controls else None)

    @functools.cached_property
    def batch(self):
        """The uncontrolled path batch from x0 over [s, T] that the
        fbsde, girsanov and nash stages share."""
        return simulate_forward(
            self.ds, self.cfg["mc"]["x0"], self.s, self.T,
            self.cfg["mc"]["h_step"], self.cfg["mc"]["N"], self.cfg["seed"])

    def stage_fbsde(self):
        sol = self.sol
        valid, n_excluded = valid_paths(self.grid, self.batch)
        # Y_T = g(X_T) on the valid paths, C order (mean/std round by layout)
        vals = np.ascontiguousarray(self.ds.g(self.batch.X[-1][:, valid]).T)
        mc = np.mean(vals, axis=0)
        se = np.std(vals, axis=0, ddof=1) / np.sqrt(vals.shape[0])
        pde = sol.eval(self.s, np.asarray(self.cfg["mc"]["x0"],
                                       dtype=float).reshape(-1, 1))[:, 0]
        lin = self.nl is None
        gap = np.abs(mc - pde)
        ok = sol.converged and (
            not lin or bool(np.all(gap <= 3 * se + 5e-3)))
        return {"verdict": "PASS" if ok else "FAIL",
                "feynman_kac_gap": gap.tolist(), "stderr": se.tolist(),
                "n_excluded": n_excluded, "linear": lin}

    def stage_girsanov(self):
        rho = girsanov_weights(self.ds, self.batch)
        se = float(np.std(rho, ddof=1) / np.sqrt(self.batch.N))
        gap = abs(float(np.mean(rho)) - 1.0)
        ok = gap <= 3 * se
        return {"verdict": "PASS" if ok else "FAIL",
                "mean_rho_gap": gap, "stderr": se}

    def stage_nash(self):
        report = nash_check(self.ds, self.sol, self.batch)
        self._write_csv("nash.csv", ["player", "deviation", "dJ", "stderr"],
                        [(r["player"] + 1, f"{r['deviation']:.12g}",
                          r["dJ"], r["stderr"]) for r in report["rows"]])
        return {"verdict": report["verdict"], "rows": report["rows"]}


def _setup(config_path, outdir):
    """Load and validate the config, build the stage runner and then make
    its output directory (outdir, else the config's own), so that a
    config error leaves no directory behind."""
    cfg = load_config(config_path)
    with open(config_path, "rb") as fh:
        cfg_bytes = fh.read()
    runner = _Runner(cfg, cfg_bytes, outdir or cfg["output"])
    try:
        os.makedirs(runner.outdir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory "
                          f"{runner.outdir!r}: {err.strerror}") from None
    return runner


def run(config_path, outdir=None):
    """Execute a config; returns (exit_code, report dict)."""
    runner = _setup(config_path, outdir)
    order = [c for c in ALL_CHECKS if c in runner.cfg["checks"]]
    stages = {}
    for name in order:
        try:
            stages[name] = getattr(runner, f"stage_{name}")()
        except Exception as err:  # noqa: BLE001 - stage isolation
            stages[name] = {"verdict": "ERROR", "error": str(err)}
    verdicts = {k: v.get("verdict") for k, v in stages.items()}
    # exit 0 only when every requested check passes
    code = 0 if all(v == "PASS" for v in verdicts.values()) else 1
    report = {"version": __version__, "config_sha256": runner.hash,
              "seed": runner.cfg["seed"], "stages": jsonable(stages),
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
