import pytest

from kolmolab.dsl import DslError, parse_coeff_expr


@pytest.mark.parametrize("text, printed", [
    # a sign may follow an operator or another sign
    ("2*-x1", "(2.0 * (0.0 - x1))"),
    ("x1/+t", "(x1 / t)"),
    ("--x1", "(0.0 - (0.0 - x1))"),
    # an exponent may be parenthesised
    ("x1^(2)", "(x1)^2.0"),
    ("x1^(-0.5)", "(x1)^-0.5"),
    # a unary minus binds to its factor, as in Python
    ("-x1*t", "((0.0 - x1) * t)"),
    ("-x1^2", "(0.0 - (x1)^2.0)"),
    # newlines, tabs and leading whitespace are whitespace
    (" 1 +\n\tx1 ", "(1.0 + x1)"),
    # numbers are read as float() reads them
    ("007 + .5e1 + 1.", "((7.0 + 5.0) + 1.0)"),
])
def test_accepted_syntax(text, printed):
    assert parse_coeff_expr(text, d=1).print() == printed


@pytest.mark.parametrize("text, offset", [
    ("x1**2", 2),
    ("x1 + 0x10", 5),
    ("t*1_000", 2),
    ("x1 - 2j", 5),
    ("1 + x1 # note", 7),
    ("exp(x=1)", 5),
    ("exp(1, 2)", 5),
    ("x1 + a.b", 5),
    ("x1 if t else 2", 0),
    ("x1^x1", 3),
    ("x1^--2", 3),
    ("normsq(x1)", 7),
    # offsets count in the text as written, before '^' becomes '**'
    ("x1^2 + 0x10", 7),
    ("x1^2 + * 3", 7),
])
def test_rejected_syntax_has_offset(text, offset):
    with pytest.raises(DslError) as err:
        parse_coeff_expr(text, d=1)
    assert err.value.offset == offset


@pytest.mark.parametrize("text", [
    "+".join(["1"] * 101),  # past the nesting bound
    "+".join(["1"] * 1500),
    "+".join(["1"] * 5000),  # past the stack of Python's parser
    "-" * 10000 + "1",
], ids=["sum_of_101", "sum_of_1500", "sum_of_5000", "10000_signs"])
def test_deep_expression_is_a_dsl_error(text):
    with pytest.raises(DslError, match="nests more than 100 levels"):
        parse_coeff_expr(text, d=1)


def test_nesting_bound_admits_a_sum_of_100_terms():
    e = parse_coeff_expr("+".join(["x1"] * 100), d=1)
    assert e(0.0, [[0.5]])[0] == 50.0
    assert e.diff("x1")(0.0, [[0.5]])[0] == 100.0
