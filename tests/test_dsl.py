import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolmolab.dsl import (DslError, check_guards, const_expr, parse_coeff_expr,
                          parse_state_expr)


def test_constant():
    e = parse_coeff_expr("1", d=1)
    assert e(0.0, np.zeros((1, 3))) == pytest.approx([1.0, 1.0, 1.0])


def test_drift_entry_radial_polynomial():
    # -x1 (1+|x|^2)^1 exp(0 t) at x=(2,0): -2*5 = -10
    e = parse_coeff_expr("-(x1)*(1+normsq(x))^1 * exp(0*t)", d=2)
    x = np.array([[2.0], [0.0]])
    assert e(0.3, x)[0] == pytest.approx(-10.0)


def test_guard_rejects_singular_denominator():
    e = parse_coeff_expr("1/x1", d=1)
    with pytest.raises(DslError):
        check_guards(e, box=1.0, time_interval=(0.0, 1.0), n_samples=4096)


def test_guard_accepts_safe_denominator():
    e = parse_coeff_expr("1/(2+normsq(x))", d=2)
    check_guards(e, box=3.0, time_interval=(0.0, 1.0))


def test_guard_rejects_fractional_power_of_negative():
    e = parse_coeff_expr("(x1)^0.5", d=1)
    with pytest.raises(DslError):
        check_guards(e, box=2.0, time_interval=(0.0, 1.0), n_samples=4096)


def test_syntax_error_has_offset():
    with pytest.raises(DslError) as err:
        parse_coeff_expr("1 + * 2", d=1)
    assert err.value.offset is not None


def test_unknown_identifier():
    with pytest.raises(DslError):
        parse_coeff_expr("x3", d=2)


def test_named_binding_and_time_dependence():
    g = parse_coeff_expr("exp(-(t))", d=1)
    e = parse_coeff_expr("g * x1", d=1, bindings={"g": g})
    x = np.array([[2.0]])
    assert e(1.0, x)[0] == pytest.approx(2.0 * np.exp(-1.0))
    assert e.depends_on_t()
    assert not parse_coeff_expr("x1", d=1).depends_on_t()


def test_bindings_substituted_at_parse_time():
    g = parse_coeff_expr("1/x1", d=1)
    e = parse_coeff_expr("2 + g", d=1, bindings={"g": g})
    assert e.print() == "(2.0 + (1.0 / x1))"
    assert e.free_variables() == {"x1"}
    # the guard sees the denominator inside the binding
    with pytest.raises(DslError):
        check_guards(e, box=1.0, time_interval=(0.0, 1.0))
    with pytest.raises(DslError) as err:
        parse_coeff_expr("2 + g", d=1)
    assert err.value.offset == 4


def test_diff_time_and_space():
    e = parse_coeff_expr("t*x1 + (1+normsq(x))^2", d=2)
    dt = e.diff("t")
    dx1 = e.diff("x1")
    x = np.array([[1.0], [2.0]])
    assert dt(0.7, x)[0] == pytest.approx(1.0)
    # d/dx1 of (1+|x|^2)^2 = 2(1+|x|^2)*2x1 = 24 at (1,2); plus t
    assert dx1(0.5, x)[0] == pytest.approx(0.5 + 24.0)


def test_diff_exp_chain():
    e = parse_coeff_expr("exp(-(normsq(x))/2)", d=1)
    x = np.array([[1.5]])
    expect = -1.5 * np.exp(-1.5 ** 2 / 2)
    assert e.diff("x1")(0.0, x)[0] == pytest.approx(expect)


def test_state_expr_z_variables():
    e = parse_state_expr("z11 * x1 + z12", d=1, m=2)
    z = {"z11": np.array([2.0]), "z12": np.array([5.0])}
    out = e.eval_state(0.0, np.array([[3.0]]), z)
    assert out[0] == pytest.approx(11.0)


def test_state_expr_evaluates_only_the_selected_operation():
    # a - b with b == a must not also compute a / b and warn about it
    e = parse_state_expr("x1 - z11", d=1, m=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = e.eval_state(0.0, np.array([[3.0]]), {"z11": np.array([0.0])})
    assert out[0] == 3.0


def _random_expr_text(rng):
    atoms = ["1", "2.5", "t", "x1", "normsq(x)", "0.3"]
    a, b, c = (atoms[rng.integers(len(atoms))] for _ in range(3))
    op1, op2 = (["+", "-", "*"][rng.integers(3)] for _ in range(2))
    return f"({a} {op1} {b}) {op2} exp(0.1*{c}) + ({b})^2"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_print_parse_round_trip(seed):
    rng = np.random.default_rng(seed)
    text = _random_expr_text(rng)
    e = parse_coeff_expr(text, d=1)
    e2 = parse_coeff_expr(e.print(), d=1)
    ts = rng.uniform(0, 1, 40)
    xs = rng.uniform(-3, 3, (1, 40))
    assert np.max(np.abs(e(ts, xs) - e2(ts, xs))) <= 1e-12


def test_const_expr():
    e = const_expr(3.5, d=2)
    assert e(0.0, np.zeros((2, 2)))[0] == pytest.approx(3.5)
    assert e.diff("x1")(0.0, np.zeros((2, 1)))[0] == 0.0
