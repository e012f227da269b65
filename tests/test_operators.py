import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolmolab.operators import (FAMILIES, FamilyError, OperatorSpec,
                                check_family_params, example_family,
                                scalar_comparison)


def test_heat_preset():
    spec = example_family("heat", {"d": 1})
    pts = np.array([[0.0, 1.0]])
    assert np.allclose(spec.Q_at(0.0, pts)[0, 0], 0.5)
    assert np.allclose(spec.b_at(0.0, pts), 0.0)


def test_ou_preset():
    spec = example_family("ou", {"d": 1})
    pts = np.array([[2.0]])
    assert spec.b_at(0.3, pts)[0, 0] == pytest.approx(-2.0)
    assert spec.Q_at(0.3, pts)[0, 0, 0] == pytest.approx(0.5)


def test_ex71i_accepted_and_drift_value():
    spec = example_family("ex71i", {"d": 2, "m": 2, "r": 1.0, "p": 3.0})
    pts = np.array([[2.0], [0.0]])
    # b_1 = -x1 (1+|x|^2)^1 = -10 at (2,0)
    assert spec.b_at(0.0, pts)[0, 0] == pytest.approx(-10.0)
    # Bhat = I so Btilde vanishes
    assert np.max(np.abs(spec.Btilde_at(0.0, pts))) == 0.0
    # C = -|x|^2(1+|x|^2)^3 I: entry (0,0) = -4*125
    assert spec.C_at(0.0, pts)[0, 0, 0] == pytest.approx(-500.0)


def test_ex71i_rejects_p_not_above_2r():
    with pytest.raises(FamilyError):
        example_family("ex71i", {"r": 2.0, "p": 3.0})
    report = check_family_params("ex71i", {"r": 2.0, "p": 3.0})
    failed = [ineq for ineq, ok, _ in report if not ok]
    assert failed == ["p > 2r"]


def test_ex71ii_accepted():
    spec = example_family("ex71ii", {"d": 1, "m": 2, "k": 1.0, "r": 1.0,
                                     "p": 0.4, "gamma": 0.5, "sigma": 0.5})
    report = check_family_params("ex71ii", {"k": 1, "r": 1, "p": 0.4,
                                            "gamma": 0.5, "sigma": 0.5})
    assert all(ok for _, ok, _ in report)
    pts = np.array([[1.0]])
    assert spec.Q_at(0.0, pts)[0, 0, 0] == pytest.approx(2.0)  # (1+1)^1
    # skew coupling present
    assert spec.Btilde_at(0.0, pts)[0, 0, 1, 0] != 0.0


def test_ex71ii_sigma_lies_in_the_open_unit_interval():
    # k 1, p 1, gamma 2.5 meet the other inequalities at sigma 1.5
    params = {"k": 1.0, "p": 1.0, "gamma": 2.5, "sigma": 1.5}
    report = check_family_params("ex71ii", params)
    assert [row for row in report if not row[1]] == \
        [("0 < sigma < 1", False, -0.5)]
    with pytest.raises(FamilyError, match="violated: 0 < sigma < 1$"):
        example_family("ex71ii", params)
    assert "0 < sigma < 1" in FAMILIES["ex71ii"]


def test_the_operator_states_its_coupling_exponent():
    # ex71ii carries its sigma; every other family's 1/2 suffices: ex72's
    # k >= 2r bounds its coupling, and the rest have Btilde = 0 or Q = I
    assert example_family("ex71ii", {"p": 0.8, "gamma": 0.9,
                                     "sigma": 0.9}).sigma == 0.9
    assert all(example_family(name).sigma == 0.5 for name in FAMILIES
               if name != "ex71ii")


@pytest.mark.parametrize("name", ["ex71ii", "ex72"])
def test_skew_coupled_families_stop_at_two_components(name):
    # the skew coupling [[0, a], [-a, 0]] has no m >= 3 form; a zero one
    # would run an uncoupled operator under the family's name.  m <= 2 is
    # one of the family's inequalities, so check_family_params reports it
    pts = np.array([[1.0]])
    for m in (3, 4):
        with pytest.raises(FamilyError, match="violated: m <= 2$"):
            example_family(name, {"d": 1, "m": m})
        report = check_family_params(name, {"d": 1, "m": m})
        assert [(ineq, slack) for ineq, ok, slack in report if not ok] == \
            [("m <= 2", 2 - m)]
    spec = example_family(name, {"d": 1, "m": 1})
    assert spec.Btilde_at(0.0, pts).shape == (1, 1, 1, 1)
    assert np.max(np.abs(spec.Btilde_at(0.0, pts))) == 0.0


def test_ex72_default_params_pass_and_weight():
    params = {"d": 1, "m": 2}
    spec = example_family("ex72", params)
    report = check_family_params("ex72", params)
    assert all(ok for _, ok, _ in report)
    pts = np.array([[2.0]])
    # M = (1+|x|^2)^0.5 I
    assert spec.weight_at(0.0, pts)[0, 0, 0] == pytest.approx(np.sqrt(5.0))
    Mv = np.moveaxis(spec.weight_at(0.0, pts), 2, 0)
    assert np.all(np.linalg.eigvalsh(Mv)[:, 0] > 0)
    # b = -x(1+|x|^2)^2
    assert spec.b_at(0.0, pts)[0, 0] == pytest.approx(-50.0)


@pytest.mark.parametrize("d", [1, 2])
def test_every_family_is_one_spec_and_only_ex72_carries_a_weight(d):
    specs = {name: example_family(name, {"d": d}) for name in FAMILIES}
    assert all(type(spec) is OperatorSpec for spec in specs.values())
    assert [name for name, spec in sorted(specs.items())
            if spec.weight is not None] == ["ex72"]
    assert np.shape(specs["ex72"].weight) == (d, d)


def test_ex72_spec_example_param_set():
    # k=0, r=0, p=1, s=0.5, tau=0 gives a=p-1=0 and the annulus condition
    # 2s+2tau <= a reads 1 <= 0
    report = check_family_params("ex72", {"k": 0, "r": 0, "p": 1, "s": 0.5,
                                          "tau": 0})
    outcome = {ineq: ok for ineq, ok, _ in report}
    assert outcome["2s+2 tau <= a"] is False


def test_b_splitting_reconstruction():
    spec = example_family("ex71i", {
        "d": 1, "m": 2, "r": 0.0, "p": 1.0,
        "Bhat": [np.array([[2.0, 1.0], [0.0, 2.0]])]})
    pts = np.array([[1.5, -0.3]])
    B = spec.B_full_at(0.2, pts)
    bv = spec.b_at(0.2, pts)
    Bt = spec.Btilde_at(0.2, pts)
    recon = Bt.copy()
    recon[0, 0, 0] += bv[0]
    recon[0, 1, 1] += bv[0]
    assert np.allclose(B, recon, atol=1e-13)
    # full drift matches -x Bhat
    assert B[0, 0, 1, 0] == pytest.approx(-1.5)
    assert B[0, 0, 0, 0] == pytest.approx(-3.0)


def test_scalar_comparison_strips_coupling():
    spec = example_family("ex71ii", {"d": 1, "m": 2})
    sc = scalar_comparison(spec)
    pts = np.array([[0.7]])
    assert sc.m == 1
    assert np.max(np.abs(sc.C_at(0.0, pts))) == 0.0
    assert np.allclose(sc.b_at(0.0, pts), spec.b_at(0.0, pts))


def test_no_nan_inf_on_samples():
    rng = np.random.default_rng(0)
    for name, params in [("heat", {"d": 2}), ("ou", {"d": 1}),
                         ("ex71i", {"d": 2, "m": 2}),
                         ("ex71ii", {"d": 1, "m": 2}),
                         ("const_coupling", {"d": 2})]:
        spec = example_family(name, params)
        pts = rng.uniform(-5, 5, (spec.d, 10 ** 4))
        ts = rng.uniform(0, 1, 10 ** 4)
        for arr in (spec.Q_at(ts, pts), spec.b_at(ts, pts),
                    spec.Btilde_at(ts, pts), spec.C_at(ts, pts)):
            assert np.all(np.isfinite(arr))


def test_q_eigenvalue_lower_bounds():
    rng = np.random.default_rng(1)
    spec = example_family("ex71i", {"d": 2, "m": 2})
    pts = rng.uniform(-5, 5, (2, 400))
    Qv = np.moveaxis(spec.Q_at(0.0, pts), 2, 0)
    assert np.min(np.linalg.eigvalsh(Qv)) >= 1.0 - 1e-12


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0, 3), p=st.floats(0, 8))
def test_ex71i_inequality_slack_consistent(r, p):
    report = check_family_params("ex71i", {"r": r, "p": p})
    for ineq, ok, slack in report:
        if ineq == "p > 2r":
            assert ok == (p > 2 * r)
            assert slack == pytest.approx(p - 2 * r)
