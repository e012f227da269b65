"""The DSL's trees are Python ast nodes of five kinds only, whether
parsing or differentiation made them."""

import ast
import json
from pathlib import Path

import pytest

from kolmolab.dsl import parse_state_expr
from kolmolab.operators import FAMILIES, example_family

GOLDEN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / \
    "ex71ii_full.run"

OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def assert_five_kinds(node, names):
    """A float Constant, a Name, a BinOp + - * /, a BinOp ** with a
    float Constant exponent, or a Call of exp(e) or normsq(x)."""
    kind = type(node)
    if kind is ast.Constant:
        assert type(node.value) is float, ast.dump(node)
    elif kind is ast.Name:
        assert node.id in names, node.id
    elif kind is ast.BinOp and type(node.op) is ast.Pow:
        assert type(node.right) is ast.Constant \
            and type(node.right.value) is float, ast.dump(node)
        assert_five_kinds(node.left, names)
    elif kind is ast.BinOp:
        assert type(node.op) in OPS, ast.dump(node)
        assert_five_kinds(node.left, names)
        assert_five_kinds(node.right, names)
    else:
        assert kind is ast.Call and not node.keywords \
            and len(node.args) == 1, ast.dump(node)
        assert node.func.id in ("exp", "normsq"), ast.dump(node)
        if node.func.id == "exp":
            assert_five_kinds(node.args[0], names)
        else:
            assert type(node.args[0]) is ast.Name \
                and node.args[0].id == "x", ast.dump(node)


def derived(expr, d):
    """expr and its derivative in t and each x_i."""
    yield expr
    for var in ["t"] + [f"x{i + 1}" for i in range(d)]:
        yield expr.diff(var)


def family_exprs(name, d):
    params = {"d": d}
    if name in ("ex71ii", "ex72"):
        params.update(q="1+0.5*t", btilde="exp(-(t))")
    spec = example_family(name, params)
    yield from spec._all_exprs()
    if spec.weight is not None:
        yield from (e for row in spec.weight for e in row)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_trees_hold_five_node_kinds(name, d):
    names = {"t"} | {f"x{i + 1}" for i in range(d)}
    for expr in family_exprs(name, d):
        for tree in derived(expr, d):
            assert_five_kinds(tree.ast, names)


def test_golden_psi_trees_hold_five_node_kinds():
    with open(GOLDEN_CONFIG) as fh:
        cfg = json.load(fh)
    d, m = cfg["operator"]["params"]["d"], cfg["operator"]["params"]["m"]
    names = {"x1"} | {f"z1{k + 1}" for k in range(m)}  # psi reads no t
    for text in cfg["semilinear"]["psi"]:
        for tree in derived(parse_state_expr(text, d, m), d):
            assert_five_kinds(tree.ast, names)
