"""Every public name of the package is reached by the package itself or
by a script; a name only tests reach is surface to delete."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "kolmolab").glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "scripts").glob("*.py"))


def _exported(path):
    """The names listed in the module's __all__ (empty without one)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _referenced():
    """Identifiers read as a name or an attribute in any source file.
    def/class lines and the strings of __all__ are not references."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


REFERENCED = _referenced()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_is_reached(path):
    unreached = sorted(set(_exported(path)) - REFERENCED)
    assert not unreached, f"{path.stem}: only tests reach {unreached}"
