"""Mutation gate: each row breaks one function and runs only the stages
it targets on the golden config at reduced size (with ex72, which has a
weight, for weighted_gradient); the stage must FAIL.
A row that cannot flip today is a strict xfail naming the ROADMAP item
that will make it flip.  The assertion message of each row carries the
stage's measured margin under the mutation."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kolmolab import evolve, game, runner
from kolmolab.dsl import const_expr, parse_coeff_expr
from kolmolab.operators import example_family
from kolmolab.semilinear import Nonlinearity

GOLDEN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / \
    "ex71ii_full.run"

SMALL = {"grid": {"n": 61}, "time": {"dt": 0.02}}


def _zeros(spec):
    return tuple(tuple(const_expr(0.0, spec.d) for _ in range(spec.m))
                 for _ in range(spec.m))


def pde_side(change):
    """The PDE stepper assembles change(spec); the Monte-Carlo paths keep
    the exact spec."""
    def patch(monkeypatch):
        real = evolve.assemble_operator
        monkeypatch.setattr(evolve, "assemble_operator",
                            lambda spec, grid, t:
                            real(change(spec), grid, t))
    return patch


def audit_side(change):
    """The hypothesis audit samples change(spec); every solve keeps the
    exact spec."""
    def patch(monkeypatch):
        real = runner.full_audit
        monkeypatch.setattr(runner, "full_audit",
                            lambda spec, *args, **kwargs:
                            real(change(spec), *args, **kwargs))
    return patch


def _c_negated(spec):
    return replace(spec, C=tuple(
        tuple(parse_coeff_expr("-c", spec.d, bindings={"c": e}) for e in row)
        for row in spec.C))


C_ZERO = pde_side(lambda spec: replace(spec, C=_zeros(spec)))
BTILDE_ZERO = pde_side(lambda spec: replace(
    spec, Btilde=tuple(_zeros(spec) for _ in range(spec.d))))
C_NEGATED = pde_side(_c_negated)
AUDIT_C_NEGATED = audit_side(_c_negated)
B_HALVED = pde_side(lambda spec: replace(spec, b=tuple(
    parse_coeff_expr("0.5*b", spec.d, bindings={"b": e}) for e in spec.b)))
B_NEGATED = pde_side(lambda spec: replace(spec, b=tuple(
    parse_coeff_expr("-b", spec.d, bindings={"b": e}) for e in spec.b)))


def _heat(spec):
    """Q = I/2 and b, Btilde, C zero, with spec's d and m."""
    return example_family("heat", {"d": spec.d, "m": spec.m})


HEAT = pde_side(_heat)
OU = pde_side(lambda spec: replace(_heat(spec), b=tuple(
    parse_coeff_expr(f"-(x{j + 1})", spec.d) for j in range(spec.d))))


def s_four_weight(monkeypatch):
    """The run's operator carries the weight (1+|x|^2)^4 I, which breaks
    ex72's k+s < p+1, in place of the family's (1+|x|^2)^(1/2) I."""
    real = runner._build_operator

    def build(cfg):
        spec = real(cfg)
        return replace(spec, weight=tuple(
            tuple(parse_coeff_expr("(1+normsq(x))^4" if i == j else "0",
                                   spec.d) for j in range(spec.d))
            for i in range(spec.d)))

    monkeypatch.setattr(runner, "_build_operator", build)


def psi_negated(monkeypatch):
    """Every rung of the mollify ladder solves with -psi."""
    real = runner.mollify_nonlinearity

    def negated(nl, n):
        inner = real(nl, n)
        return Nonlinearity(nl.d, nl.m, lambda x, z: -inner(x, z))

    monkeypatch.setattr(runner, "mollify_nonlinearity", negated)


def rho_one(monkeypatch):
    """The girsanov stage ignores its weights: rho = 1 on every path."""
    monkeypatch.setattr(runner, "girsanov_weights",
                        lambda ds, batch: np.ones(batch.N))


def z_zero(monkeypatch):
    """The equilibrium is selected at z = 0 instead of G (J_x u)^T."""
    monkeypatch.setattr(game, "path_z", lambda sol, ds, t, pts: np.zeros(
        (sol.m, ds.d, pts.shape[1])))


def audit_margin(stage):
    return f"section verdicts {stage['sections']}"


def representation_margin(stage):
    r = stage["residuals"]
    return f"residuals {r}, ratios {[b / a for a, b in zip(r, r[1:])]}" \
        " against 0.65"


def bound_margin(stage):
    return f"measured {stage['measured']:.4g} against bound " \
        f"{stage['bound']:.4g} (margin {stage['margin']:.4g}); " \
        f"trend {stage['refinement_trend']}"


def compactness_margin(stage):
    return "outside masses per R " + "; ".join(
        f"x={e['x']}: {e['outside']}" for e in stage["vector"]["table"]) \
        + " against 0.05 at the largest R"


def drift_margin(stage):
    return f"trend {stage['refinement_trend']}, drift " \
        f"{stage['notes']['drift']:.3%} against 5%"


def semilinear_margin(stage):
    return f"kt norms {stage['kt_norms']}, spread {stage['spread']:.3g} " \
        "against 0.10"


def fbsde_margin(stage):
    return f"gap {stage['feynman_kac_gap']} against stderr {stage['stderr']}"


def girsanov_margin(stage):
    return f"mean rho gap {stage['mean_rho_gap']} against stderr " \
        f"{stage['stderr']}"


def nash_margin(stage):
    return "smallest dJ + 3 stderr " + str(min(
        r["dJ"] + 3 * r["stderr"] for r in stage["rows"]))


def xfail(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}")


ROWS = [
    # (stage, checks run, mutation, config changes, margin reader)
    # -C outgrows the coupling terms and kappa0: the nonnegativity minimum
    # falls from 7.0 to -16.9 at the golden audit size
    pytest.param("audit", ["audit"], AUDIT_C_NEGATED, {}, audit_margin,
                 id="audit-C_negated"),
    pytest.param("representation", ["representation"], C_ZERO, SMALL,
                 representation_margin, id="representation-C_zero"),
    # fails on the refinement trend only: the bound itself keeps a wide
    # margin (measured ~0.85 against 1.65)
    pytest.param("max_principle", ["max_principle"], C_ZERO, SMALL,
                 bound_margin, id="max_principle-C_zero"),
    pytest.param("representation", ["representation"], BTILDE_ZERO, SMALL,
                 representation_margin, id="representation-Btilde_zero"),
    # C = 0 keeps the ratio under its bound (0.875 against 1.0): only a
    # potential that grows the vector solution flips it
    pytest.param("pointwise", ["pointwise"], C_NEGATED, SMALL,
                 bound_margin, id="pointwise-C_negated"),
    # an outward drift spreads the kernel rows: the outside mass at R = 3
    # rises from 2e-4 to 0.09 at x = +-1 and 0.051 at x = 0
    pytest.param("compactness", ["compactness"], B_NEGATED, SMALL,
                 compactness_margin, id="compactness-b_negated"),
    # neither heat nor OU is compact on C_b, yet their largest-R outside
    # masses at SMALL stay under 0.05: 3.7e-3, 1.6e-4, 3.7e-3 and 7.6e-6
    pytest.param("compactness", ["compactness"], HEAT, SMALL,
                 compactness_margin, id="compactness-heat", marks=xfail(13)),
    pytest.param("compactness", ["compactness"], OU, SMALL,
                 compactness_margin, id="compactness-ou", marks=xfail(13)),
    # the check compares n with 2n - 1 on one box, so a weight whose sup
    # grows with the box passes (trend [345.9, 347.8])
    pytest.param("weighted_gradient", ["weighted_gradient"], s_four_weight,
                 {**SMALL, "operator": {"family": "ex72"}}, drift_margin,
                 id="weighted_gradient-s_four", marks=xfail(14)),
    # the mollify ladder's kt norms agree whatever the sign of psi
    pytest.param("semilinear", ["semilinear"], psi_negated, SMALL,
                 semilinear_margin, id="semilinear-psi_negated",
                 marks=xfail(11)),
    pytest.param("fbsde", ["fbsde"], B_HALVED,
                 {"grid": {"n": 101}, "time": {"dt": 0.02},
                  "mc": {"N": 2000}}, fbsde_margin,
                 id="fbsde-b_halved", marks=xfail(1)),
    pytest.param("girsanov", ["girsanov"], rho_one, SMALL, girsanov_margin,
                 id="girsanov-rho_one", marks=xfail(4)),
    pytest.param("nash", ["fbsde", "nash"], z_zero, SMALL, nash_margin,
                 id="nash-z_zero", marks=xfail(5)),
]


def run_stage(outdir, stage, checks, changes):
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    for section, values in changes.items():
        cfg[section].update(values)
    cfg["checks"] = checks
    outdir.mkdir()
    p = outdir / "c.run"
    p.write_text(json.dumps(cfg))
    result = runner.run(p, outdir=outdir)[1]["stages"][stage]
    if result["verdict"] == "ERROR":  # not a verdict: no xfail covers it
        raise RuntimeError(result["error"])
    return result


@pytest.mark.parametrize("stage, checks, mutate, changes, margin", ROWS)
def test_mutation_fails_its_stage(tmp_path, monkeypatch, stage, checks,
                                  mutate, changes, margin):
    exact = run_stage(tmp_path / "exact", stage, checks, changes)
    if exact["verdict"] != "PASS":  # the row would show nothing
        raise RuntimeError(f"{stage} {exact['verdict']} unmutated: "
                           f"{margin(exact)}")
    mutate(monkeypatch)
    result = run_stage(tmp_path / "mutated", stage, checks, changes)
    print(f"{stage} {result['verdict']}: {margin(result)}")
    assert result["verdict"] == "FAIL", \
        f"{stage} still {result['verdict']}: {margin(result)}"
