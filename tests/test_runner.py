"""The batch runner.  tests/golden/ex71ii_full_report.json is the
report.json of `kolmolab run configs/ex71ii_full.run`; regenerate it only
in a change that says why the numbers moved:

    PYTHONPATH=src python tests/test_runner.py
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from kolmolab import __version__
from kolmolab.cli import main
from kolmolab.estimates import weighted_gradient_check
from kolmolab.evolve import EvolveError, _Stepper, _time_ladder
from kolmolab.fbsde import identify_yz, simulate_forward
from kolmolab.operators import check_family_params
from kolmolab.runner import (ConfigError, _setup, list_presets, load_config,
                              run)

GOLDEN_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                             "ex71ii_full.run")
GOLDEN_REPORT = os.path.join(os.path.dirname(__file__), "golden",
                             "ex71ii_full_report.json")


def write_cfg(path, **overrides):
    cfg = {
        "operator": {"family": "ou", "params": {"d": 1}},
        "grid": {"L": 6.0, "n": 81},
        "time": {"s": 0.0, "T": 0.25, "dt": 0.0125},
        "checks": ["audit", "max_principle", "girsanov"],
        "audit": {"box": 4.0, "epsilon": 1.0, "kappa0": 0.0,
                  "n_samples": 256},
        "mc": {"N": 500, "h_step": 0.015625},
        "game": {"r_const": 0.5},
        "seed": 11,
        "output": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_unknown_top_level_key_rejected(tmp_path):
    p = tmp_path / "c.run"
    write_cfg(p, bogus_section=1)
    with pytest.raises(ConfigError, match="bogus_section"):
        load_config(p)


def test_unknown_nested_key_rejected(tmp_path):
    p = tmp_path / "c.run"
    cfg = write_cfg(p)
    cfg["grid"]["spacing"] = 0.1
    p.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="spacing"):
        load_config(p)


def test_missing_required_section(tmp_path):
    p = tmp_path / "c.run"
    cfg = write_cfg(p)
    del cfg["time"]
    p.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="time"):
        load_config(p)


def test_weighted_gradient_requires_weight(tmp_path):
    # write_cfg's family, ou, has no weight of its own and there is no M
    p = tmp_path / "c.run"
    write_cfg(p, checks=["weighted_gradient"])
    with pytest.raises(ConfigError, match="weight"):
        _setup(p, tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_unknown_family_and_check(tmp_path):
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "wave"})
    with pytest.raises(ConfigError, match="wave"):
        load_config(p)
    write_cfg(p, checks=["audit", "teleport"])
    with pytest.raises(ConfigError, match="teleport"):
        load_config(p)


def test_small_run_passes_and_embeds_provenance(tmp_path):
    p = tmp_path / "c.run"
    write_cfg(p)
    code, report = run(p, outdir=tmp_path / "r1")
    assert code == 0
    assert report["version"] == __version__
    assert report["seed"] == 11
    assert report["config_sha256"] == hashlib.sha256(
        p.read_bytes()).hexdigest()
    on_disk = json.loads((tmp_path / "r1" / "report.json").read_text())
    assert on_disk["verdicts"] == report["verdicts"]


def test_rerun_byte_identical(tmp_path):
    p = tmp_path / "c.run"
    write_cfg(p)
    run(p, outdir=tmp_path / "a")
    run(p, outdir=tmp_path / "b")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_failing_stage_exits_nonzero(tmp_path):
    p = tmp_path / "c.run"
    # kappa0 = 0 bound on a growing system: max principle must fail
    write_cfg(p, operator={"family": "const_coupling",
                           "params": {"d": 1, "C": [[1.0, 0.0],
                                                    [0.0, -1.0]]}},
              checks=["max_principle"],
              data={"f": ["1", "0"], "bc": "neumann"},
              audit={"epsilon": 1.0, "kappa0": 0.0})
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 1
    assert report["verdicts"]["max_principle"] == "FAIL"


@pytest.mark.parametrize("mc, message", [
    ({"N": "20"}, "mc.N"),
    ({"N": 1}, "mc.N"),
    ({"h_step": 0.3}, "mc.h_step"),
    ({"x0": [0.0, 0.0, 0.0]}, "mc.x0"),
    ({"x0": [6.0]}, "mc.x0"),
])
def test_bad_mc_section_exits_2(tmp_path, mc, message):
    p = tmp_path / "c.run"
    write_cfg(p, mc=mc)
    with pytest.raises(ConfigError, match=message):
        load_config(p)
    assert main(["run", str(p)]) == 2


def test_h_step_is_the_largest_step_of_the_path_ladder(tmp_path):
    # 0.3 does not divide T - s = 0.5: the paths take two steps of 0.25
    p = tmp_path / "c.run"
    write_cfg(p, time={"s": 0.0, "T": 0.5, "dt": 0.0125},
              mc={"N": 500, "h_step": 0.3})
    assert load_config(p)["mc"]["h_step"] == 0.3
    batch = _setup(p, tmp_path / "o").batch
    assert batch.times.tolist() == [0.0, 0.25, 0.5]
    assert batch.h_step == 0.25


def test_exhausted_picard_fails_with_strict_json(tmp_path):
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["checks"] = ["semilinear"]
    cfg["semilinear"]["max_iter"] = 1
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 1
    assert report["verdicts"] == {"semilinear": "FAIL"}

    def reject(name):
        raise ValueError(f"non-finite constant {name} in report.json")

    json.loads((tmp_path / "r" / "report.json").read_text(),
               parse_constant=reject)


# (family, params, the key the error names): each value is of the wrong
# kind for its key, which used to run as a rounded or truthy value, or
# end in a traceback
TYPED_PARAMS = [
    ("ex71ii", {"m": 2.5}, "m"),
    ("ex71ii", {"m": "2"}, "m"),
    ("ex71ii", {"m": True}, "m"),
    ("ex71ii", {"m": 0}, "m"),
    ("heat", {"m": -1}, "m"),
    ("ex71ii", {"k": [1]}, "k"),
    ("ex71ii", {"gamma": None}, "gamma"),
    ("ex71ii", {"r": True}, "r"),
    ("ex72", {"p": float("inf")}, "p"),
    ("ex71ii", {"q": 1}, "q"),
    ("ou", {"d": True}, "d"),
]
TYPED_IDS = [f"{family}_{key}_{params[key]!r}"
             for family, params, key in TYPED_PARAMS]


@pytest.mark.parametrize("family, params, key", TYPED_PARAMS, ids=TYPED_IDS)
def test_family_parameter_of_the_wrong_kind_names_its_key(
        tmp_path, family, params, key):
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": family, "params": {"d": 1, **params}})
    with pytest.raises(ConfigError) as err:
        _setup(p, tmp_path / "o")
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("overrides", [
    {"operator": {"family": "ex71ii", "params": {"d": 1, "r": -1}}},
    {"grid": {"L": 6.0, "n": 200}},
    {"operator": {"family": "ex71ii", "params": {"d": 1, "q": "1/x1"}}},
    # without an mc section, whose h_step check would catch T <= s
    {"time": {"s": 0.0, "T": 0.0, "dt": 0.0125}, "mc": {}},
    {"time": {"s": 0.25, "T": 0.0, "dt": 0.0125}, "mc": {}},
    {"time": {"s": 0.0, "T": 0.25, "dt": 0.0}, "mc": {}},
    {"time": {"s": 0.0, "T": 0.25, "dt": -0.005}, "mc": {}},
    {"checks": "audit"},
    {"checks": []},
    {"seed": 11.7},
    {"grid": {"L": 6.0, "n": "81"}},
    {"audit": {"box": "4"}},
    {"operator": {"family": "ou", "params": [1]}},
    {"kernel": {"n_cells": 100}},
    {"kernel": {"x_list": [[4.0]]}, "checks": ["compactness"]},
    {"semilinear": {"mollify_ladder": [0]}},
    {"data": {"f": ["1/x1"]}},
    {"semilinear": {"psi": ["1/z11"]}},
    {"data": {"f": [1]}},
    {"kernel": {"x_list": []}},
    {"grid": {"n": 81}},
    {"operator": {"params": {"d": 1}}},
    {"game": {"controls": [1, 2]}},
    {"game": {"controls": [["a"]]}},
    {"game": {"controls": [[]]}},
    {"data": {"bc": "periodic"}},
    {"operator": {"family": "ex71ii", "params": {"d": 1, "gama": 99.0}}},
    {"operator": {"family": "ou", "params": {"d": 1, "m": 2}}},
    {"audit": {"box": 0.0}},
    {"audit": {"box": -1.0}},
    {"audit": {"sigma": 1.5}},
    # sigma is the operator's: ex71ii's lies in (0, 1), and a given
    # audit.sigma must equal it
    {"operator": {"family": "ex71ii", "params": {
        "d": 1, "k": 1, "p": 1, "gamma": 2.5, "sigma": 1.5}}},
    {"operator": {"family": "ex71ii", "params": {"d": 1}},
     "audit": {"sigma": 0.6}},
    {"audit": {"epsilon": 0.0}},
    {"audit": {"n_samples": 0}},
    {"operator": {"family": "ex71ii",
                  "params": {"d": 1, "q": "+".join(["1"] * 1500)}}},
    # matrix values: M is d x d, C square, Bhat d of m x m, Chat m x m
    {"weight": {"M": [1.0]}},
    {"weight": {"M": [[1.0, 0.0], [0.0, 1.0]]}},
    {"weight": {"M": []}},
    {"operator": {"family": "const_coupling", "params": {"d": 1, "C": [1.0]}}},
    {"operator": {"family": "const_coupling",
                  "params": {"d": 1, "C": [[1.0, 0.0]]}}},
    {"operator": {"family": "ex71i",
                  "params": {"d": 1, "m": 2, "Chat": [[2.0]]}}},
    {"operator": {"family": "ex71i",
                  "params": {"d": 1, "m": 2, "Bhat": [[[1.0]]]}}},
    # the skew coupling of ex71ii and ex72 is defined for m <= 2 only
    {"operator": {"family": "ex71ii", "params": {"d": 1, "m": 3}}},
    {"operator": {"family": "ex72", "params": {"d": 1, "m": 3}}},
    # family parameters of the wrong kind, and Picard settings out of range
    *({"operator": {"family": family, "params": {"d": 1, **params}}}
      for family, params, _ in TYPED_PARAMS),
    {"semilinear": {"max_iter": -3}},
    {"semilinear": {"max_iter": 0}},
    {"semilinear": {"picard_tol": -1}},
    {"semilinear": {"picard_tol": 0.0}},
    # seeds past the signed 64-bit range of the Philox path key
    {"seed": 2 ** 64},
    {"seed": 2 ** 63},
    {"seed": -2 ** 63 - 1},
], ids=["family_inequality", "even_grid_n", "singular_coefficient",
        "T_equals_s", "T_before_s", "dt_zero", "dt_negative",
        "checks_string", "checks_empty", "seed_float", "grid_n_string", "audit_box_string",
        "params_list", "kernel_n_cells", "kernel_x_outside_probe_box",
        "mollify_ladder_zero", "data_f_singular", "psi_singular",
        "data_f_not_a_string", "kernel_x_list_empty", "grid_without_L",
        "operator_without_family", "controls_not_lists",
        "controls_not_numbers", "controls_empty_set", "bc_unknown",
        "family_param_misspelt", "family_param_unknown", "audit_box_zero",
        "audit_box_negative", "audit_sigma_above_1", "ex71ii_sigma_above_1",
        "audit_sigma_not_the_family_s", "audit_epsilon_zero",
        "audit_n_samples_zero", "deep_expression", "weight_M_a_row",
        "weight_M_2x2_at_d1", "weight_M_empty", "C_a_row", "C_not_square",
        "Chat_1x1_at_m2", "Bhat_1x1_at_m2", "ex71ii_m3", "ex72_m3",
        *TYPED_IDS,
        "max_iter_negative", "max_iter_zero", "picard_tol_negative",
        "picard_tol_zero", "seed_2_to_the_64", "seed_2_to_the_63",
        "seed_below_int64"])
def test_operator_and_grid_errors_exit_2(tmp_path, capsys, overrides):
    p = tmp_path / "c.run"
    write_cfg(p, **overrides)
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [-2 ** 63, 2 ** 63 - 1])
def test_seed_at_either_end_of_the_64_bit_range_loads(tmp_path, seed):
    p = tmp_path / "c.run"
    write_cfg(p, seed=seed)
    assert load_config(p)["seed"] == seed


def test_audit_and_max_principle_share_kappa0(tmp_path):
    # without audit.kappa0 both stages use the one default, 0.0
    p = tmp_path / "c.run"
    write_cfg(p, checks=["audit", "max_principle"],
              audit={"box": 4.0, "n_samples": 256})
    _, report = run(p, outdir=tmp_path / "r")
    audit = json.loads((tmp_path / "r" / "audit.json").read_text())
    audited = audit["sections"]["nonnegativity"]["kappa0"]
    assert audited == report["stages"]["max_principle"]["notes"]["kappa0"]
    assert audited == 0.0


def _weighted_gradient_stage(tmp_path, name, weight):
    """The weighted_gradient stage of an ex72 run with that weight."""
    p = tmp_path / f"{name}.run"
    write_cfg(p, operator={"family": "ex72", "params": {"d": 1, "m": 2}},
              checks=["audit", "weighted_gradient"], weight=weight)
    _, report = run(p, outdir=tmp_path / name)
    return report["stages"]["weighted_gradient"]


def test_weighted_gradient_stage_reads_the_weight_section(tmp_path, capsys):
    family = _weighted_gradient_stage(tmp_path, "fam", {})
    assert family["verdict"] == "PASS"
    m1, m2 = [_weighted_gradient_stage(tmp_path, f"m{c}",
                                       {"M": [[float(c)]]})["measured"]
              for c in (1, 2)]
    assert math.isclose(m2, 2 * m1, rel_tol=1e-12)
    # write_cfg's family, ou, has no weight of its own
    p = tmp_path / "ou.run"
    write_cfg(p, checks=["audit", "weighted_gradient"], weight={})
    assert main(["run", str(p), "--output", str(tmp_path / "ou")]) == 2
    err = capsys.readouterr().err
    assert "'weighted_gradient' needs a weight" in err
    assert "'ou' supplies no weight" in err
    assert not (tmp_path / "ou").exists()


def _nash_config_error(tmp_path, capsys, **overrides):
    """stderr of a run with max_principle and nash that must exit 2
    before any stage computes or its output directory is made."""
    p = tmp_path / "c.run"
    write_cfg(p, checks=["max_principle", "nash"], **overrides)
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


def test_nash_needs_a_cost_component_per_player(tmp_path, capsys):
    # ou has one component; a second player would have no terminal cost
    err = _nash_config_error(tmp_path, capsys,
                             game={"controls": [[0.0, 1.0], [0.0, 1.0]]})
    assert err.startswith("config error:") and "more players" in err


def test_nash_without_controls_exits_2(tmp_path, capsys):
    err = _nash_config_error(tmp_path, capsys)  # write_cfg has no controls
    assert err.startswith("config error:")
    assert "'nash' needs game.controls" in err


@pytest.mark.parametrize("command", ["run", "audit"])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys,
                                                      command):
    # the output path sits under a regular file
    p = tmp_path / "c.run"
    write_cfg(p)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "o"
    assert main([command, str(p), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "config error: cannot create output directory")
    assert str(out) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""  # no verdict


def test_fbsde_fails_when_its_picard_solve_does_not_converge(tmp_path):
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["checks"] = ["fbsde"]
    cfg["semilinear"]["max_iter"] = 1
    cfg["mc"]["N"] = 200
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 1
    assert report["verdicts"] == {"fbsde": "FAIL"}


def test_fbsde_stage_reads_terminal_values_without_a_yz_process(
        tmp_path, monkeypatch):
    # the stage reads only Y_T = g(X_T) on the valid paths: its numbers
    # equal those of identify_yz's Y, which it no longer builds
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["checks"] = ["fbsde"]
    cfg["mc"]["N"] = 500
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    runner = _setup(p, tmp_path / "r")
    runner.sol = runner._mild_solve(runner.nl)
    yz = identify_yz(runner.sol, runner.ds, runner.batch)
    vals = np.ascontiguousarray(yz.Y[-1][:, yz.valid].T)

    def refuse(*args):
        raise AssertionError("the fbsde stage built a Y/Z process")

    # also under the name a runner import of it would bind
    monkeypatch.setattr("kolmolab.fbsde.identify_yz", refuse)
    monkeypatch.setattr("kolmolab.runner.identify_yz", refuse,
                        raising=False)
    stage = runner.stage_fbsde()
    assert stage["verdict"] == "PASS"
    assert stage["n_excluded"] == yz.n_excluded
    assert stage["stderr"] == (np.std(vals, axis=0, ddof=1)
                               / np.sqrt(vals.shape[0])).tolist()


@pytest.mark.parametrize("params, same", [
    ({}, True), ({"q": "1+0.5*t", "c": "1+t"}, False)],
    ids=["autonomous", "time_dependent"])
def test_semilinear_and_fbsde_stages_run_on_s_to_T(tmp_path, params, same):
    # the windows [0, 1/4] and [1/4, 1/2] agree only when nothing
    # depends on t
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["operator"]["params"].update(params)
    cfg["grid"]["n"] = 101
    cfg["checks"] = ["semilinear", "fbsde"]
    cfg["semilinear"]["mollify_ladder"] = [8]
    cfg["mc"]["N"] = 500
    stages = []
    for s in (0.0, 0.25):
        cfg["time"] = {"s": s, "T": s + 0.25, "dt": 0.0125}
        p = tmp_path / f"c{s}.run"
        p.write_text(json.dumps(cfg))
        stages.append(run(p, outdir=tmp_path / f"r{s}")[1]["stages"])
    early, late = stages
    if same:
        _assert_same_leaves(late, early, "stages")
    else:
        assert late["semilinear"]["kt_norms"] != early["semilinear"]["kt_norms"]
        assert late["fbsde"]["feynman_kac_gap"] != \
            early["fbsde"]["feynman_kac_gap"]


def test_audit_and_pointwise_share_one_audit(tmp_path, monkeypatch):
    from kolmolab import audit
    calls = []
    real = audit.check_coupling_growth

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(audit, "check_coupling_growth", counted)
    # also under the name a runner import of it would bind
    monkeypatch.setattr("kolmolab.runner.check_coupling_growth", counted,
                        raising=False)
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "ex71ii", "params": {"d": 1}},
              checks=["audit", "pointwise"])
    _, report = run(p, outdir=tmp_path / "r")
    assert len(calls) == 1
    audited = json.loads((tmp_path / "r" / "audit.json").read_text())
    HJ = audited["sections"]["coupling_growth"]["HJ"]
    assert report["stages"]["pointwise"]["notes"]["HJ"] == max(HJ, 0.0)


def test_a_section_the_audit_cannot_sample_fails_only_the_audit(tmp_path):
    # eta sampling stops at m = 3: the nonnegativity section FAILs with
    # its error, and pointwise still reads coupling_growth's H_J
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "heat", "params": {"d": 1, "m": 4}},
              checks=["audit", "pointwise"])
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 1
    assert report["verdicts"] == {"audit": "FAIL", "pointwise": "PASS"}
    audited = json.loads((tmp_path / "r" / "audit.json").read_text())
    assert audited["sections"]["nonnegativity"] == {
        "verdict": False, "error": "eta sampling supports m <= 3"}
    assert [k for k, v in audited["verdicts"].items() if not v] == \
        ["nonnegativity"]


def test_weighted_gradient_stage_probes_times_after_s(tmp_path):
    # with s > T/2 the probe times must still lie in (s, T]
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "ex72", "params": {"d": 1}},
              grid={"L": 6.0, "n": 61},
              time={"s": 0.6, "T": 1.0, "dt": 0.01},
              checks=["weighted_gradient"], weight={},
              mc={})
    code, report = run(p, outdir=tmp_path / "r")
    stage = report["stages"]["weighted_gradient"]
    assert (code, stage["verdict"]) == (0, "PASS")



@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_weighted_gradient_stage_follows_data_bc(tmp_path, monkeypatch, bc):
    # like max_principle, pointwise, representation and semilinear
    from kolmolab import runner as runner_module
    passed = []

    def spy(spec, solves):
        passed.extend(sol.grid.bc for sol in solves)
        return weighted_gradient_check(spec, solves)

    monkeypatch.setattr(runner_module, "weighted_gradient_check", spy)
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "ex72", "params": {"d": 1}},
              grid={"L": 6.0, "n": 61}, checks=["weighted_gradient"],
              weight={}, data={"bc": bc}, mc={})
    code, report = run(p, outdir=tmp_path / "r")
    assert passed == [bc, bc]
    assert report["stages"]["weighted_gradient"]["verdict"] == "PASS"


def test_weighted_gradient_stage_adds_one_refined_solve_of_data_f(
        tmp_path, monkeypatch):
    # max_principle's two solves, the dt one shared, plus one solve of
    # data.f on the 2n - 1 grid
    calls = []
    real_solve = _Stepper.solve

    def spy(self, values, times):
        calls.append((self.grid, values, times))
        return real_solve(self, values, times)

    monkeypatch.setattr(_Stepper, "solve", spy)
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "ex72", "params": {"d": 1}},
              grid={"L": 6.0, "n": 61},
              checks=["max_principle", "weighted_gradient"],
              weight={},
              data={"f": ["exp(-(x1^2))", "1/(1+x1^2)"]}, mc={})
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 0
    assert len(calls) == 3
    for (_, _, times), dt in zip(calls, [0.025, 0.0125, 0.0125]):
        np.testing.assert_array_equal(times, _time_ladder(0.0, 0.25, dt))
    fine, f, _ = calls[-1]
    assert (fine.n, fine.L) == (121, 6.0)
    x = np.linspace(-6.0, 6.0, 121)
    np.testing.assert_allclose(
        f, np.stack([np.exp(-x ** 2), 1 / (1 + x ** 2)]),
        rtol=1e-15, atol=1e-15)

def test_inconclusive_verdict_exits_1(tmp_path, capsys):
    # f = 0 floors every denominator of the pointwise ratio: INCONCLUSIVE
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["checks"] = ["pointwise"]
    cfg["data"] = {"f": ["0", "0"]}
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--output", str(tmp_path / "r")]) == 1
    assert "pointwise: INCONCLUSIVE" in capsys.readouterr().out


def test_report_writer_is_strict_json(tmp_path):
    p = tmp_path / "c.run"
    write_cfg(p)
    runner = _setup(p, tmp_path / "o")
    runner._write_json("x.json", {
        "nan": float("nan"), "inf": np.float64(np.inf),
        "annuli": np.array([[1.0, -np.inf], [np.nan, 2.0]]),
        "finite": [0.5, np.int64(3), np.bool_(True)]})
    text = (tmp_path / "o" / "x.json").read_text()

    def reject(name):
        raise ValueError(f"non-finite constant {name} in x.json")

    assert json.loads(text, parse_constant=reject) == {
        "nan": None, "inf": None, "annuli": [[1.0, None], [None, 2.0]],
        "finite": [0.5, 3, True]}


def test_presets_table():
    # every inequality a family checks is printed, in the words it checks
    rows = dict(list_presets())
    for name, text in rows.items():
        for ineq, _, _ in check_family_params(name, {}):
            assert ineq in text
    assert "k+s < p+1" in rows["ex72"]
    assert "a = p for s < 1/2" in rows["ex72"]
    assert "no constraints" in rows["heat"]
    assert "no constraints" in rows["ou"]


def test_cli_presets(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "ex71i" in out and "p > 2r, r >= 0" in out


def test_cli_run_and_exit_codes(tmp_path, capsys):
    p = tmp_path / "c.run"
    write_cfg(p, checks=["audit"])
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "audit: PASS" in out
    # schema violation gives the config exit code
    write_cfg(p, nonsense=True)
    assert main(["run", str(p)]) == 2


def test_cli_audit(tmp_path, capsys):
    p = tmp_path / "c.run"
    write_cfg(p)
    assert main(["audit", str(p), "--output", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "audit: PASS" in out
    audit = _assert_audit_json(tmp_path / "o", p)
    # the CLI prints one line per audited section, then the audit verdict
    printed = dict(line.split(": ") for line in out.strip().splitlines())
    assert printed.pop("audit") == "PASS"
    assert printed == {k: "PASS" if v else "FAIL"
                       for k, v in audit["verdicts"].items()}


def test_audit_sigma_other_than_the_family_s_names_both(tmp_path, capsys):
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "ex71ii", "params": {"d": 1}},
              audit={"sigma": 0.6})
    assert main(["audit", str(p), "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: audit.sigma must be the family's sigma 0.5, "
        "got 0.6\n")


@pytest.mark.parametrize("params", [
    {"k": 1, "r": 1, "p": 0.8, "gamma": 0.9, "sigma": 0.9},
    {"k": 1, "r": 1, "p": 0.6, "gamma": 0.4, "sigma": 0.665}],
    ids=["sigma_0.9", "sigma_0.665"])
def test_audit_and_pointwise_read_the_family_sigma(tmp_path, params):
    # admissible ex71ii points whose coupling |Btilde| = (1+|x|^2)^p stays
    # below lambda_Q^sigma = (1+|x|^2)^sigma; at sigma 1/2 instead,
    # coupling_growth FAILs them and the pointwise bound reads 429.6 and
    # 2.51 against a measured 0.672 and 0.676
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["operator"]["params"].update(params)
    cfg["checks"] = ["audit", "max_principle", "pointwise", "representation"]
    del cfg["audit"]["sigma"]
    for section in ("kernel", "semilinear", "mc", "game"):
        del cfg[section]
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 0, report["verdicts"]
    assert report["verdicts"]["audit"] == "PASS"
    assert report["stages"]["pointwise"]["bound"] == 1.0
    audit = json.loads((tmp_path / "r" / "audit.json").read_text())
    assert audit["sections"]["coupling_growth"]["sigma"] == params["sigma"]


def test_small_audit_prints_only_its_verdicts(tmp_path):
    # one sample leaves only the box corners on the Lyapunov fit's outer
    # annulus; the fit is skipped, not made with a warning on stderr
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["audit"]["n_samples"] = 1
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        x for x in (src, os.environ.get("PYTHONPATH")) if x))
    out = subprocess.run(
        [sys.executable, "-m", "kolmolab.cli", "audit", str(p), "--output",
         str(tmp_path / "o")], env=env, capture_output=True, text=True)
    assert out.stderr == ""
    assert out.returncode == 0 and out.stdout.endswith("audit: PASS\n")
    audit = json.loads((tmp_path / "o" / "audit.json").read_text())
    assert audit["sections"]["lyapunov"]["compactness"]["r"] is None


def _assert_audit_json(outdir, config_path):
    """audit.json carries the audit payload and the run's provenance."""
    audit = json.loads((outdir / "audit.json").read_text())
    assert set(audit) == {"spec", "box", "sections", "verdicts",
                          "config_sha256", "seed", "version"}
    with open(config_path, "rb") as fh:
        assert audit["config_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert audit["version"] == __version__
    assert audit["verdicts"] == {k: v["verdict"]
                                 for k, v in audit["sections"].items()
                                 if "verdict" in v}
    return audit


def test_golden_config_full_suite(tmp_path, monkeypatch):
    batches = []

    def counted(*args, **kwargs):
        batches.append(args)
        return simulate_forward(*args, **kwargs)

    monkeypatch.setattr("kolmolab.runner.simulate_forward", counted)
    code, report = run(GOLDEN_CONFIG, outdir=tmp_path / "golden")
    # fbsde, girsanov and nash share one path batch
    assert len(batches) == 1
    assert code == 0, report["verdicts"]
    assert all(v == "PASS" for v in report["verdicts"].values())
    assert set(report["verdicts"]) == {
        "audit", "max_principle", "pointwise", "representation",
        "compactness", "semilinear", "fbsde", "girsanov", "nash"}
    with open(GOLDEN_REPORT) as fh:
        golden = json.load(fh)
    fresh = json.loads((tmp_path / "golden" / "report.json").read_text())
    _assert_same_leaves(fresh, golden, "report")
    audit = _assert_audit_json(tmp_path / "golden", GOLDEN_CONFIG)
    assert audit["verdicts"] == report["stages"]["audit"]["sections"]
    assert audit["seed"] == report["seed"]
    # the report and the audit are the run's only artifacts
    assert sorted(os.listdir(tmp_path / "golden")) == \
        ["audit.json", "report.json"]


def _assert_same_leaves(got, want, where):
    """Numbers agree to rtol 1e-10 / atol 1e-12; every other leaf
    (string, boolean, verdict, null) and every key set exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            _assert_same_leaves(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_same_leaves(a, b, f"{where}[{k}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), \
            where
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12) or \
            (math.isnan(got) and math.isnan(want)), (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


def test_golden_semilinear_factorises_each_step_size_once(tmp_path,
                                                         monkeypatch):
    # the three mollified rungs march in lockstep on one stepper: a
    # graded ladder of 8 graded step sizes plus the uniform one is one LU
    # per step size, and each sweep is one march of the rungs that still
    # sweep, after one shared linear start
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["checks"] = ["semilinear"]
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    from kolmolab import evolve
    factors, steps = [], []
    real_splu, real_step = evolve.spla.splu, evolve._Stepper.step

    def counted(M):
        factors.append(M.shape)
        return real_splu(M)

    def stepped(self, values, *args, **kwargs):
        steps.append(values.shape)
        return real_step(self, values, *args, **kwargs)

    monkeypatch.setattr(evolve.spla, "splu", counted)
    monkeypatch.setattr(evolve._Stepper, "step", stepped)
    runner = _setup(p, tmp_path / "r")
    assert runner.stage_semilinear()["verdict"] == "PASS"
    rungs = [*runner.sol.rungs, runner.sol]
    assert len(rungs) == len(cfg["semilinear"]["mollify_ladder"]) == 3
    assert len(factors) == 9
    sweeps = max(len(sol.picard_history) for sol in rungs)
    assert len(steps) == (1 + sweeps) * (len(runner.sol.times) - 1)


def test_semilinear_rungs_are_solved_only_for_the_semilinear_check(
        tmp_path, monkeypatch):
    # fbsde alone reads one u: the ladder's last rung and no other, with
    # the 9 LUs and 48 psi calls of a single solve (8 sweeps, each 3
    # blocks of at most 8,192 samples, each a call of the mollifier and
    # one of psi under it at the 3 stencil points psi reads)
    cfg = _golden(checks=["fbsde"], mc={"N": 200})
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    from kolmolab import evolve, semilinear
    factors, calls = [], []
    real_splu, real_call = evolve.spla.splu, semilinear.Nonlinearity.__call__

    def counted(M):
        factors.append(M.shape)
        return real_splu(M)

    def called(self, x, z):
        calls.append(x.shape)
        return real_call(self, x, z)

    monkeypatch.setattr(evolve.spla, "splu", counted)
    monkeypatch.setattr(semilinear.Nonlinearity, "__call__", called)
    runner = _setup(p, tmp_path / "r")
    assert runner.stage_fbsde()["verdict"] == "PASS"
    assert runner.sol.rungs == []
    assert len(runner.sol.picard_history) == 8
    assert (len(factors), len(calls)) == (9, 48)
    assert max(samples for _, samples in calls) <= 3 * 8192


@pytest.mark.parametrize("content", [
    b'{"seed": 1', b"\xff\xfe", b"[" * 100_000, b"[1, 2]"],
    ids=["invalid_json", "not_utf8", "nested_100000_deep", "list_root"])
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    p = tmp_path / "c.run"
    p.write_bytes(content)
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_error_leaves_no_output_directory(tmp_path, capsys):
    p = tmp_path / "c.run"
    out = tmp_path / "fresh"
    write_cfg(p, grid={"L": 6.0, "n": 200}, output=str(out))
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


# Inputs read on the run's own window [s, T]: the initial datum at s, a
# psi that cannot name t, the family's time_interval holding [s, T], and
# one solution that fbsde and nash both read.

def _golden(**changes):
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    for section, values in changes.items():
        if isinstance(values, dict) and section in cfg:
            cfg[section].update(values)
        else:
            cfg[section] = values
    return cfg


@pytest.mark.parametrize("section, values, key", [
    # the 4dt and 2dt ladders are both one step: representation reads
    # two equal residuals and reports dts it did not take
    ("time", {"dt": 0.3}, "time.dt"),
    # every ladder is one step: max_principle's trend repeats one number
    ("time", {"dt": 10.0}, "time.dt"),
    # a radius <= 0 has no ball to measure tightness against
    ("kernel", {"R_list": [-1.0, 2.0]}, "kernel.R_list"),
    ("kernel", {"R_list": [0.0, 1.0]}, "kernel.R_list"),
], ids=["dt_4dt_and_2dt_one_step", "dt_above_the_window", "R_negative",
        "R_zero"])
def test_collapsed_ladders_and_radii_not_above_zero_exit_2(
        tmp_path, capsys, section, values, key):
    p = tmp_path / "c.run"
    p.write_text(json.dumps(_golden(**{section: values})))
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must")
    assert not (tmp_path / "o").exists()


def test_kernel_inputs_are_checked_only_for_compactness(tmp_path):
    # the default base points [[0], [1]] and radii [1, 2, 3] are read only
    # by compactness, so an audit-only run loads on the box [-1, 1]
    p = tmp_path / "c.run"
    write_cfg(p, grid={"L": 2.0, "n": 81}, checks=["audit"])
    runner = _setup(p, tmp_path / "o")
    assert runner.grid.probe_L == 1.0
    assert runner.cfg["kernel"]["x_list"] == [[0.0], [1.0]]


def _without_r_const():
    cfg = _golden(checks=["girsanov"])
    del cfg["game"]["r_const"]
    return cfg


# inputs whose verdict could only PASS: radii past the probe box, or
# cells whose centres all lie in the largest ball (one cell at the
# origin, two at radius L / 2), read an outside mass of 0 even for heat,
# a weight that is not positive definite reads a gradient of 0 or of the
# wrong sign, and rho == 1 gives gap 0 <= 0
_HEAT_PROBE = {"operator": {"family": "heat", "params": {"d": 1, "m": 2}},
               "checks": ["compactness"]}


@pytest.mark.parametrize("cfg, key", [
    (_golden(kernel={"R_list": [1.0, 4.0]}), "kernel.R_list"),
    (_golden(**_HEAT_PROBE, kernel={"R_list": [8.5]}), "kernel.R_list"),
    (_golden(**_HEAT_PROBE, kernel={"n_cells": 1}), "kernel.n_cells"),
    (_golden(**_HEAT_PROBE, kernel={"n_cells": 2}), "kernel.n_cells"),
    (_golden(checks=["weighted_gradient"], weight={"M": [[0.0]]}),
     "weight.M"),
    (_golden(checks=["weighted_gradient"], weight={"M": [[-1.0]]}),
     "weight.M"),
    (_golden(operator={"family": "heat", "params": {"d": 2, "m": 2}},
             kernel={"x_list": [[0.0, 0.0]]}, mc={"x0": [0.0, 0.0]},
             checks=["audit"], weight={"M": [[1.0, 0.5], [0.0, 1.0]]}),
     "weight.M"),
    (_golden(checks=["girsanov"], game={"r_const": 0.0}), "game.r_const"),
    (_without_r_const(), "game.r_const"),
], ids=["R_past_the_probe_box", "heat_R_past_the_box", "heat_one_cell",
        "heat_two_cells", "M_zero", "M_negative", "M_not_symmetric",
        "r_const_zero", "r_const_absent"])
def test_estimate_inputs_that_cannot_fail_exit_2(tmp_path, capsys, cfg, key):
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_heat_fails_compactness_once_a_cell_centre_passes_the_largest_R(
        tmp_path):
    # three cells put centres at radius 4 > 3: heat's tail shows
    p = tmp_path / "c.run"
    p.write_text(json.dumps(_golden(**_HEAT_PROBE, kernel={"n_cells": 3})))
    code, report = run(p, outdir=tmp_path / "o")
    assert (code, report["verdicts"]) == (1, {"compactness": "FAIL"})
    outside = report["stages"]["compactness"]["vector"]["table"][0]["outside"]
    assert outside[-1] > 0.05


def test_weight_whose_limits_overflow_fails_the_audit(tmp_path):
    # lambda_M^2 underflows, so lim3a is inf on every outer annulus: the
    # quantity has no limit to read, and its section FAILs, with no
    # overflow warning beside the verdict
    p = tmp_path / "c.run"
    p.write_text(json.dumps(_golden(checks=["audit"],
                                    weight={"M": [[1e-160]]})))
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 1
    assert report["verdicts"] == {"audit": "FAIL"}
    audited = json.loads((tmp_path / "r" / "audit.json").read_text())
    section = audited["sections"]["weighted_gradient"]
    assert section["verdict"] is False
    assert section["quantities"]["lim3a"]["annuli"][-3:] == [None] * 3
    assert section["quantities"]["lim3a"]["verdict"] is False


def test_a_stage_error_leaves_the_later_stages_their_verdicts(
        tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("forced representation error")

    monkeypatch.setattr("kolmolab.runner.representation_residual", broken)
    code, report = run(GOLDEN_CONFIG, outdir=tmp_path / "r")
    assert code == 1
    verdicts = report["verdicts"]
    assert verdicts.pop("representation") == "ERROR"
    assert verdicts == {name: "PASS" for name in (
        "audit", "max_principle", "pointwise", "compactness", "semilinear",
        "fbsde", "girsanov", "nash")}
    assert report["stages"]["representation"]["error"] == \
        "forced representation error"


def test_dt_may_be_a_quarter_of_the_window(tmp_path):
    # 4dt = T - s: the 4dt, 2dt and dt ladders take 1, 2 and 4 steps
    p = tmp_path / "c.run"
    p.write_text(json.dumps(_golden(time={"dt": 0.125})))
    assert load_config(p)["time"]["dt"] == 0.125


def test_data_f_is_read_at_the_initial_time(tmp_path):
    p = tmp_path / "c.run"
    write_cfg(p, time={"s": 0.5, "T": 0.75, "dt": 0.0125},
              data={"f": ["1+t"]})
    runner = _setup(p, tmp_path / "o")
    assert np.all(runner.f == 1.5)


def test_psi_naming_t_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "c.run"
    cfg = _golden(checks=["semilinear"],
                 semilinear={"psi": ["t*z11", "0"]})
    p.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="unknown identifier 't'"):
        _setup(p, tmp_path / "o")
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2
    assert "(at byte 0)" in capsys.readouterr().err


def test_window_outside_time_interval_exits_2(tmp_path, capsys):
    # q = 1/(1.5 - t) is guarded on the default time_interval [0, 1];
    # a run on [0, 2] would step through its pole at t = 1.5
    p = tmp_path / "c.run"
    cfg = _golden(operator={"family": "ex71ii",
                           "params": {"d": 1, "m": 2, "q": "1/(1.5-t)"}},
                 grid={"L": 6.0, "n": 101},
                 time={"s": 0.0, "T": 2.0, "dt": 0.01},
                 checks=["audit", "max_principle", "pointwise"])
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "time_interval" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("time_interval", [[0.0], "01", [0.0, "1"]])
def test_time_interval_must_be_two_numbers(tmp_path, time_interval):
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "ou",
                           "params": {"d": 1, "time_interval": time_interval}})
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2


def test_collapsed_girsanov_weights_are_no_pass(tmp_path):
    # at r_const = 1e6 every rho underflows to 0: the mean misses 1 by 1
    # with stderr 0, and every nash row rests on no effective sample
    p = tmp_path / "c.run"
    p.write_text(json.dumps(_golden(game={"r_const": 1e6},
                                    checks=["girsanov", "nash"])))
    code, report = run(p, outdir=tmp_path / "r")
    girsanov = report["stages"]["girsanov"]
    assert (girsanov["mean_rho_gap"], girsanov["stderr"]) == (1.0, 0.0)
    assert report["verdicts"] == {"girsanov": "FAIL",
                                  "nash": "INCONCLUSIVE"}
    assert code == 1


def test_nash_reads_the_same_solution_alone_and_after_fbsde(tmp_path):
    # and after semilinear, whose last rung is the solution nash reads
    cfg = _golden(grid={"n": 101}, time={"dt": 0.01},
                 game={"r_gain": 3.0}, mc={"N": 1000})
    rows = []
    for k, checks in enumerate((["nash"], ["fbsde", "nash"],
                                ["semilinear", "nash"])):
        cfg["checks"] = checks
        p = tmp_path / f"{k}.run"
        p.write_text(json.dumps(cfg))
        rows.append(run(p, outdir=tmp_path / f"r{k}")[1]
                    ["stages"]["nash"]["rows"])
    assert rows[0] == rows[1] == rows[2]


def test_compactness_report_follows_the_sorted_radii(tmp_path):
    # the probe sorts R_list, so a config's order of the radii changes
    # nothing in the report: the outside masses follow the sorted list
    stages = []
    for k, R_list in enumerate(([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])):
        p = tmp_path / f"{k}.run"
        p.write_text(json.dumps(_golden(checks=["compactness"],
                                        kernel={"R_list": R_list})))
        code, report = run(p, outdir=tmp_path / f"r{k}")
        assert code == 0
        stages.append(report["stages"]["compactness"])
    assert stages[0]["vector"]["R_list"] == [1.0, 2.0, 3.0]
    assert stages[0] == stages[1]


def test_estimate_stages_share_one_vector_solve_per_step_size(
        tmp_path, monkeypatch):
    # max_principle (2dt, dt), pointwise (dt) and representation (4dt,
    # 2dt, dt) read one vector solve per step size; the scalar marches
    # of pointwise (dt) and representation (each size) share one scalar
    # LU per step size
    n = 61
    cfg = _golden(grid={"n": n}, time={"dt": 0.02},
                  checks=["max_principle", "pointwise", "representation"])
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    from kolmolab import evolve
    sizes = []
    real_splu = evolve.spla.splu

    def counted(M):
        sizes.append(M.shape[0])
        return real_splu(M)

    monkeypatch.setattr(evolve.spla, "splu", counted)
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 0, report["verdicts"]
    # the golden operator has m = 2 components
    assert (sizes.count(2 * n), sizes.count(n)) == (3, 3)


# the four checks that read the estimate pass, on the golden operator
PLANNED = ["max_principle", "pointwise", "representation", "compactness"]


def test_estimate_pass_factorises_each_operator_and_step_size_once(
        tmp_path, monkeypatch):
    # the vector and the scalar operator at 4dt, 2dt and dt are 6 LUs,
    # each a different matrix, made from 2 assemblies
    p = tmp_path / "c.run"
    p.write_text(json.dumps(_golden(checks=PLANNED)))
    from kolmolab import evolve
    factors, assemblies = [], []
    real_splu, real_assemble = evolve.spla.splu, evolve.assemble_operator

    def counted(M, **options):
        factors.append((M.shape[0], M.data.tobytes()))
        return real_splu(M, **options)

    def assembled(spec, grid, t):
        assemblies.append(spec.m)
        return real_assemble(spec, grid, t)

    monkeypatch.setattr(evolve.spla, "splu", counted)
    monkeypatch.setattr(evolve, "assemble_operator", assembled)
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 0, report["verdicts"]
    n = 201  # the golden grid; its operator has m = 2 components
    assert [size for size, _ in factors].count(2 * n) == 3
    assert [size for size, _ in factors].count(n) == 3
    assert len(set(factors)) == len(factors) == 6
    assert sorted(assemblies) == [1, 2]


def test_estimate_pass_keeps_one_lu_alive_at_a_time(tmp_path,
                                                    monkeypatch):
    # a new LU is made only after the last one, of either operator, is
    # freed; the compactness stage reads the same numbers alone as in
    # the pass
    import weakref
    from kolmolab import evolve
    made, overlaps = [], []  # (operator size, weak reference to its LU)
    real_splu = evolve.spla.splu

    class LU:  # SuperLU takes no weak reference; this wrapper does
        def __init__(self, lu):
            self.lu = lu

        def solve(self, *args, **kwargs):
            return self.lu.solve(*args, **kwargs)

    def tracked(M, **options):
        overlaps.extend((size, M.shape[0]) for size, ref in made
                        if ref() is not None)
        lu = LU(real_splu(M, **options))
        made.append((M.shape[0], weakref.ref(lu)))
        return lu

    monkeypatch.setattr(evolve.spla, "splu", tracked)
    reports = {}
    for name, checks in (("all", PLANNED), ("alone", ["compactness"])):
        p = tmp_path / f"{name}.run"
        p.write_text(json.dumps(_golden(checks=checks)))
        code, reports[name] = run(p, outdir=tmp_path / name)
        assert code == 0, reports[name]["verdicts"]
    assert len(made) == 6 + 2
    assert overlaps == [], "two LUs alive at once"
    assert reports["all"]["stages"]["compactness"] == \
        reports["alone"]["stages"]["compactness"]


def test_estimate_pass_keeps_each_stage_error_its_own(tmp_path,
                                                      monkeypatch):
    # the pass runs in max_principle's stage, but an error of the kernel
    # march is reported by compactness alone
    real_march = _Stepper.march

    def march(self, values, times, source=None, adjoint=False):
        if adjoint:
            raise EvolveError("forced blow-up of the kernel march")
        return real_march(self, values, times, source, adjoint)

    monkeypatch.setattr(_Stepper, "march", march)
    p = tmp_path / "c.run"
    p.write_text(json.dumps(_golden(checks=PLANNED)))
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 1
    assert report["verdicts"] == {"max_principle": "PASS",
                                  "pointwise": "PASS",
                                  "representation": "PASS",
                                  "compactness": "ERROR"}
    assert report["stages"]["compactness"]["error"] == \
        "forced blow-up of the kernel march"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run(GOLDEN_CONFIG, outdir=tmp)
        shutil.copyfile(os.path.join(tmp, "report.json"), GOLDEN_REPORT)
