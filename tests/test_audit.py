"""The hypothesis audit.  tests/golden/audit_sections.json holds the
full_audit sections of every AUDIT_CASES entry as audited_sections()
computes them; regenerate it only in a change that says why the numbers
moved:

    PYTHONPATH=src python tests/test_audit.py
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kolmolab.audit import (AuditError, check_ellipticity, check_coupling_nonnegativity,
                            check_coupling_growth, check_weight_conditions, eta_sphere, full_audit,
                            lyapunov_probe, sample_points, _halton)
from kolmolab.dsl import const_expr, parse_coeff_expr
from kolmolab.operators import OperatorSpec, example_family, matrix_of_consts
from kolmolab.runner import jsonable

GOLDEN_SECTIONS = Path(__file__).resolve().parent / "golden" / \
    "audit_sections.json"

# name -> (family, params, kappa0, constant weight or None for the
# family's own); each case is audited on box 5 with epsilon 1 and 512
# samples, the golden config's audit section, at its family's sigma 0.5
AUDIT_CASES = {
    "ex71ii_d1": ("ex71ii", {"d": 1, "m": 2}, 1.0, None),
    "ex71ii_d1_nonauto": ("ex71ii", {"d": 1, "m": 2, "q": "1+0.5*t",
                                     "c": "1+t"}, 1.0, None),
    "ex72_d1": ("ex72", {"d": 1, "m": 2}, 5.0, None),
    "ex72_d2": ("ex72", {"d": 2, "m": 2}, 5.0, None),
    "ou_d2_identity": ("ou", {"d": 2}, 0.0, np.eye(2)),
}


def _const_spec(d, m, Q, C, b_exprs=None):
    zero = const_expr(0.0, d)
    b = b_exprs or tuple(zero for _ in range(d))
    Btl = tuple(matrix_of_consts(np.zeros((m, m)), d) for _ in range(d))
    return OperatorSpec(d, m, matrix_of_consts(Q, d), b, Btl,
                        matrix_of_consts(C, d))


def test_ellipticity_heat_exact():
    spec = example_family("heat", {"d": 2})
    lam0, wit = check_ellipticity(spec, box=3.0, n_samples=512)
    assert lam0 == pytest.approx(0.5, abs=1e-12)


def test_ellipticity_ex71ii_attained_at_origin():
    spec = example_family("ex71ii", {"d": 2, "m": 2})
    lam0, wit = check_ellipticity(spec, box=2.0, n_samples=2048)
    # lambda_Q = (1+|x|^2)^1, minimized at x=0
    assert lam0 == pytest.approx(1.0, abs=5e-3)
    assert np.linalg.norm(wit["x"]) <= 0.1


def test_ellipticity_indefinite_fails_with_witness():
    spec = _const_spec(2, 1, np.diag([1.0, -1.0]), np.zeros((1, 1)))
    lam0, wit = check_ellipticity(spec, box=1.0, n_samples=64)
    assert lam0 == pytest.approx(-1.0)
    assert "x" in wit


def test_coupling_nonneg_weakly_coupled_cancellation():
    # B_j = b_j I, C = 0, kappa0 = 0: the functional vanishes identically
    spec = example_family("ou", {"d": 1})
    sec = check_coupling_nonnegativity(spec, box=3.0, epsilon=1.0, kappa0=0.0, n_samples=256)
    assert abs(sec["K_eta_min"]) <= 1e-9
    assert sec["verdict"]


def test_coupling_nonneg_scalar_bounded_potential():
    # m=1 with C = c: taking kappa0 = sup c makes the functional >= 0
    c = 0.7
    spec = _const_spec(1, 1, [[1.0]], [[c]])
    sec = check_coupling_nonnegativity(spec, box=2.0, epsilon=1.0, kappa0=c, n_samples=256)
    assert sec["K_eta_min"] == pytest.approx(0.0, abs=1e-9)


def test_coupling_nonneg_ex71i_passes_with_large_kappa():
    spec = example_family("ex71i", {"d": 2, "m": 2, "r": 1.0, "p": 3.0})
    sec = check_coupling_nonnegativity(spec, box=5.0, epsilon=1.0, kappa0=10.0,
                      n_samples=512)
    assert sec["verdict"], sec


def test_coupling_nonneg_negative_without_compensation():
    # C = diag(1, 1) positive and kappa0 = 0 forces -4<C eta,eta> < 0
    spec = _const_spec(1, 2, [[1.0]], np.eye(2))
    sec = check_coupling_nonnegativity(spec, box=1.0, epsilon=1.0, kappa0=0.0, n_samples=128)
    assert not sec["verdict"]
    assert sec["K_eta_min"] == pytest.approx(-4.0, abs=1e-9)


def test_coupling_growth_decoupled_zero():
    spec = example_family("ou", {"d": 1})
    sec = check_coupling_growth(spec, box=3.0, n_samples=256)
    assert sec["xi"] == 0.0
    assert sec["HJ"] == pytest.approx(0.0, abs=1e-12)
    assert sec["verdict"]


def test_coupling_growth_ex71ii_finite():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    sec = check_coupling_growth(spec, box=4.0, n_samples=512)
    assert np.isfinite(sec["xi"]) and np.isfinite(sec["HJ"])
    assert sec["verdict"], sec


def test_coupling_growth_divergence_flagged():
    # Btilde entry growing like (1+|x|^2)^1 with sigma=0.1 and Q bounded:
    # xi grows with the box and the doubling probe must flag it
    d = 1
    zero = const_expr(0.0, d)
    Bt = ((zero, parse_coeff_expr("(1+normsq(x))^1", d)),
          (zero, zero))
    spec = OperatorSpec(d, 2, matrix_of_consts([[1.0]], d), (zero,),
                        (Bt,), matrix_of_consts(np.zeros((2, 2)), d),
                        sigma=0.1)
    sec = check_coupling_growth(spec, box=3.0, n_samples=512)
    assert sec["xi_diverging"]
    assert not sec["verdict"]


def test_lyapunov_ou():
    spec = example_family("ou", {"d": 1})
    sec = lyapunov_probe(spec, box=4.0, n_samples=512)
    # scalar op applied to 1+x^2 equals 1 - 2x^2 <= phi, so mu <= 2
    assert sec["mu"] <= 2.0
    assert sec["sup_residual"] <= 1e-10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19: the one-box fit "
                   "reads OU's vanishing decay exponent (r = 0.20 at box 4, "
                   "0.0001 at box 200) as compact")
def test_lyapunov_fit_reads_ou_as_not_compact():
    # A phi = 1 - 2|x|^2 decays no faster than phi itself, so OU fails
    # the paper's compactness criterion (the compactness-ou row)
    spec = example_family("ou", {"d": 1})
    sec = lyapunov_probe(spec, box=4.0, n_samples=512)
    assert not sec["compactness"]["verdict"]


@pytest.mark.parametrize("n_samples", [1, 2, 3])
def test_lyapunov_fit_needs_two_values_of_phi_outside(n_samples):
    # at these sizes the outer annulus |x| >= box/2 holds only the box
    # corners, where phi = 1 + |x|^2 takes one value: no exponent can be
    # fitted, and polyfit would warn that its fit is poorly conditioned
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    sec = lyapunov_probe(spec, box=5.0, n_samples=n_samples)
    assert sec["compactness"] == {"verdict": False, "b0": None, "K": None,
                                  "r": None}
    assert np.isfinite(sec["mu"]) and sec["verdict"]


def test_lyapunov_heat_not_compact():
    spec = example_family("heat", {"d": 2})
    sec = lyapunov_probe(spec, box=4.0, n_samples=512)
    assert not sec["compactness"]["verdict"]


def test_lyapunov_ex71ii_compact_exponent():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    sec = lyapunov_probe(spec, box=6.0, n_samples=1024)
    fit = sec["compactness"]
    assert fit["verdict"]
    assert fit["b0"] > 0
    # drift exponent r = 1: fitted decay exponent close to r
    assert fit["r"] == pytest.approx(1.0, abs=0.35)


def test_weight_conditions_ex72_passes():
    spec = example_family("ex72", {"d": 1, "m": 2})
    sec = check_weight_conditions(spec, box=6.0, n_samples=2048)
    assert sec["verdict"], sec
    assert sec["b0"] < 0
    assert not sec["relaxed"]


def test_weight_conditions_identity_weight_relaxed():
    spec = replace(example_family("ou", {"d": 1}),
                   weight=matrix_of_consts(np.eye(1), 1))
    sec = check_weight_conditions(spec, box=5.0, n_samples=1024)
    assert sec["relaxed"]
    assert sec["verdict"], sec


def test_weight_conditions_superlinear_weight_fails():
    # M = (1+|x|^2)^1 grows superlinearly; the growth condition on the
    # squared weight against (1+|x|^2) must fail
    spec = replace(example_family("ex72", {"d": 1, "m": 2}),
                   weight=((parse_coeff_expr("(1+normsq(x))^1", 1),),))
    sec = check_weight_conditions(spec, box=8.0, n_samples=2048)
    assert not sec["quantities"]["sup1b"]["verdict"] or \
        not sec["verdict"]


def test_weight_conditions_outward_drift_rejected():
    spec = replace(example_family("heat", {"d": 1}),
                   weight=matrix_of_consts(np.eye(1), 1))
    with pytest.raises(AuditError):
        check_weight_conditions(spec, box=3.0, n_samples=512)


def test_monotone_extremes_under_more_samples():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    small = check_ellipticity(spec, box=3.0, n_samples=256)[0]
    large = check_ellipticity(spec, box=3.0, n_samples=2048)[0]
    assert large <= small + 1e-12


def test_witness_reevaluates():
    spec = example_family("ex71ii", {"d": 2, "m": 2})
    lam0, wit = check_ellipticity(spec, box=3.0, n_samples=512)
    pts = np.array(wit["x"], dtype=float).reshape(2, 1)
    Qv = np.moveaxis(spec.Q_at(wit["t"], pts), 2, 0)
    assert np.linalg.eigvalsh(Qv)[0, 0] == pytest.approx(lam0, rel=1e-12)


def test_full_audit_report_json():
    spec = example_family("ex72", {"d": 1, "m": 2})
    report = full_audit(spec, box=5.0, epsilon=1.0, kappa0=5.0,
                        n_samples=512)
    assert report["ellipticity"]["verdict"]


def audited_sections(name):
    """jsonable(full_audit(...)) of one AUDIT_CASES entry."""
    family, params, kappa0, M = AUDIT_CASES[name]
    spec = example_family(family, params)
    if M is not None:
        spec = replace(spec, weight=matrix_of_consts(M, spec.d))
    return jsonable(full_audit(spec, 5.0, epsilon=1.0, kappa0=kappa0,
                               n_samples=512))


@pytest.mark.parametrize("name", sorted(AUDIT_CASES))
def test_full_audit_matches_recorded_sections(name):
    # every number of every section (minima, witnesses, xi, psi_sup,
    # annuli), bit for bit
    with open(GOLDEN_SECTIONS) as fh:
        assert audited_sections(name) == json.load(fh)[name]


def test_eta_sphere_shapes():
    assert eta_sphere(1).shape == (2, 1)
    e2 = eta_sphere(2)
    assert e2.shape == (64, 2)
    assert np.allclose(np.linalg.norm(e2, axis=1), 1.0)
    e3 = eta_sphere(3)
    assert np.allclose(np.linalg.norm(e3, axis=1), 1.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [5, 512, 1024])
def test_halton_points_equal_scipy_unscrambled_halton(dim, n):
    from scipy.stats import qmc
    want = qmc.Halton(d=dim, scramble=False).random(n)
    assert np.array_equal(_halton(dim, n), want)
    ts, pts = sample_points(dim - 1, 2.5, n, (0.5, 1.5))
    assert np.array_equal(ts[:n], 0.5 + want[:, 0] * 1.0)
    assert np.array_equal(pts[:, :n], (want[:, 1:].T * 2 - 1) * 2.5)


def test_runner_import_leaves_scipy_stats_out():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, kolmolab.runner; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


if __name__ == "__main__":
    GOLDEN_SECTIONS.write_text(json.dumps(
        {name: audited_sections(name) for name in AUDIT_CASES},
        indent=1, sort_keys=True) + "\n")
