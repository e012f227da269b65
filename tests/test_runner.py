import hashlib
import json
import math
import os

import numpy as np
import pytest

from kolmolab import __version__
from kolmolab.cli import main
from kolmolab.estimates import weighted_gradient_check
from kolmolab.fbsde import identify_yz, simulate_forward
from kolmolab.runner import (ConfigError, _setup, list_presets, load_config,
                              run)

GOLDEN_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                             "ex71ii_full.run")


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
    p = tmp_path / "c.run"
    write_cfg(p, checks=["weighted_gradient"])
    with pytest.raises(ConfigError, match="weight"):
        load_config(p)


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
])
def test_bad_mc_section_exits_2(tmp_path, mc, message):
    p = tmp_path / "c.run"
    write_cfg(p, mc=mc)
    with pytest.raises(ConfigError, match=message):
        load_config(p)
    assert main(["run", str(p)]) == 2


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
    {"seed": 11.7},
    {"grid": {"L": 6.0, "n": "81"}},
    {"audit": {"box": "4"}},
    {"operator": {"family": "ou", "params": [1]}},
    {"kernel": {"n_cells": 100}},
    {"kernel": {"x_list": [[4.0]]}},
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
    {"audit": {"epsilon": 0.0}},
    {"audit": {"n_samples": 0}},
    {"operator": {"family": "ex71ii",
                  "params": {"d": 1, "q": "+".join(["1"] * 1500)}}},
], ids=["family_inequality", "even_grid_n", "singular_coefficient",
        "T_equals_s", "T_before_s", "dt_zero", "dt_negative",
        "checks_string", "seed_float", "grid_n_string", "audit_box_string",
        "params_list", "kernel_n_cells", "kernel_x_outside_probe_box",
        "mollify_ladder_zero", "data_f_singular", "psi_singular",
        "data_f_not_a_string", "kernel_x_list_empty", "grid_without_L",
        "operator_without_family", "controls_not_lists",
        "controls_not_numbers", "controls_empty_set", "bc_unknown",
        "family_param_misspelt", "family_param_unknown", "audit_box_zero",
        "audit_box_negative", "audit_sigma_above_1", "audit_epsilon_zero",
        "audit_n_samples_zero", "deep_expression"])
def test_operator_and_grid_errors_exit_2(tmp_path, capsys, overrides):
    p = tmp_path / "c.run"
    write_cfg(p, **overrides)
    assert main(["run", str(p), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


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
    family = _weighted_gradient_stage(tmp_path, "fam", {"from_family": True})
    assert family["verdict"] == "PASS"
    m1, m2 = [_weighted_gradient_stage(tmp_path, f"m{c}",
                                       {"M": [[float(c)]]})["measured"]
              for c in (1, 2)]
    assert math.isclose(m2, 2 * m1, rel_tol=1e-12)
    # write_cfg's family, ou, has no weight of its own
    p = tmp_path / "ou.run"
    write_cfg(p, checks=["audit", "weighted_gradient"],
              weight={"from_family": True})
    assert main(["run", str(p), "--output", str(tmp_path / "ou")]) == 2
    assert "supplies no weight" in capsys.readouterr().err
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


def test_weighted_gradient_stage_probes_times_after_s(tmp_path):
    # with s > T/2 the probe times must still lie in (s, T]
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "ex72", "params": {"d": 1}},
              grid={"L": 6.0, "n": 61},
              time={"s": 0.6, "T": 1.0, "dt": 0.01},
              checks=["weighted_gradient"], weight={"from_family": True},
              mc={})
    code, report = run(p, outdir=tmp_path / "r")
    stage = report["stages"]["weighted_gradient"]
    assert stage["notes"]["t_list"] == [0.8, 1.0]
    assert (code, stage["verdict"]) == (0, "PASS")



@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_weighted_gradient_stage_follows_data_bc(tmp_path, monkeypatch, bc):
    # like max_principle, pointwise, representation and semilinear
    from kolmolab import runner as runner_module
    passed = []

    def spy(*args, **kwargs):
        passed.append(kwargs.get("bc"))
        return weighted_gradient_check(*args, **kwargs)

    monkeypatch.setattr(runner_module, "weighted_gradient_check", spy)
    p = tmp_path / "c.run"
    write_cfg(p, operator={"family": "ex72", "params": {"d": 1}},
              grid={"L": 6.0, "n": 61}, checks=["weighted_gradient"],
              weight={"from_family": True}, data={"bc": bc}, mc={})
    code, report = run(p, outdir=tmp_path / "r")
    assert passed == [bc]
    assert report["stages"]["weighted_gradient"]["verdict"] == "PASS"

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
    rows = dict(list_presets())
    assert "p > 2r >= 0" in rows["ex71i"]
    assert "k+s < p+1" in rows["ex72"]
    assert "no constraints" in rows["heat"]
    assert "no constraints" in rows["ou"]


def test_cli_presets(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "ex71i" in out and "p > 2r >= 0" in out


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
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "ex71ii_full_report.json")) as fh:
        golden = json.load(fh)
    fresh = json.loads((tmp_path / "golden" / "report.json").read_text())
    _assert_same_leaves(fresh, golden, "report")
    audit = _assert_audit_json(tmp_path / "golden", GOLDEN_CONFIG)
    assert audit["verdicts"] == report["stages"]["audit"]["sections"]
    assert audit["seed"] == report["seed"]
    rows = report["stages"]["nash"]["rows"]
    lines = (tmp_path / "golden" / "nash.csv").read_text().splitlines()
    assert lines[0] == "player,deviation,dJ,stderr"
    assert len(lines) == 1 + len(rows)
    assert [line.split(",")[0] for line in lines[1:]] == \
        [str(r["player"] + 1) for r in rows]


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
    # three mollified solves on a graded ladder of 8 graded step sizes
    # plus the uniform one: one LU per step size and solve
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["checks"] = ["semilinear"]
    p = tmp_path / "c.run"
    p.write_text(json.dumps(cfg))
    from kolmolab import evolve
    factors = []
    real_splu = evolve.spla.splu

    def counted(M):
        factors.append(M.shape)
        return real_splu(M)

    monkeypatch.setattr(evolve.spla, "splu", counted)
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 0 and report["verdicts"] == {"semilinear": "PASS"}
    assert len(factors) == 3 * 9


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


def test_data_f_is_read_at_the_initial_time(tmp_path):
    p = tmp_path / "c.run"
    write_cfg(p, time={"s": 0.5, "T": 0.75, "dt": 0.0125},
              data={"f": ["1+t"]})
    runner = _setup(p, tmp_path / "o")
    assert np.all(runner.f.values == 1.5)


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


def test_golden_compactness_csv_prints_plain_floats(tmp_path):
    # base points are written as float lists, not numpy scalar reprs
    p = tmp_path / "c.run"
    p.write_text(json.dumps(_golden(checks=["compactness"])))
    code, report = run(p, outdir=tmp_path / "r")
    assert code == 0 and report["verdicts"] == {"compactness": "PASS"}
    text = (tmp_path / "r" / "compactness.csv").read_text()
    assert "np." not in text
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == \
        ['[-1.0]', '[0.0]', '[1.0]']


def test_estimate_stages_share_one_vector_solve_per_step_size(
        tmp_path, monkeypatch):
    # max_principle (2dt, dt), pointwise (dt) and representation (4dt,
    # 2dt, dt) read one vector solve per step size; the scalar marches
    # of pointwise (dt) and representation (each size) are their own
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
    assert (sizes.count(2 * n), sizes.count(n)) == (3, 4)
