"""Every public name of the package is reached by the package itself or
by a script; a name only tests reach is surface to delete.  Every keyword
default of a public function is passed by some call; a default that no
call passes is a setting nothing sets, so it should be a constant.  Every
name a function binds is read in it; a name bound and never read is dead
code.  Every key of the runner's config table is read by the runner, and
every key the runner reads is in the table."""

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


def _defaulted_params():
    """(module, name, offset, defaulted parameter names and positions) of
    every public function and public-class method in the package; offset
    is 1 for a method, whose first parameter a call through an attribute
    does not pass."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs, offset = [node], 0
            elif isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                defs = [f for f in node.body
                        if isinstance(f, ast.FunctionDef)]
                offset = 1
            else:
                continue
            for fn in defs:
                if fn.name.startswith("_"):
                    continue
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                params = [(a.arg, i) for i, a in enumerate(args)
                          if i >= first]
                params += [(a.arg, None) for a, v in zip(
                    fn.args.kwonlyargs, fn.args.kw_defaults)
                    if v is not None]
                out.append((path.stem, fn.name, offset, params))
    return out


def _passed_params():
    """name -> (most positional arguments, keyword names) over every call
    of that name in src, scripts and tests.  A forwarded *args or
    **kwargs passes nothing: a wrapper sets no value of its own."""
    calls = {}
    for path in SOURCES + sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            n_pos = next((i for i, a in enumerate(node.args)
                          if isinstance(a, ast.Starred)), len(node.args))
            most, kws = calls.get(name, (0, set()))
            calls[name] = (max(most, n_pos),
                           kws | {k.arg for k in node.keywords})
    return calls


def test_every_keyword_default_is_passed_somewhere():
    calls = _passed_params()
    unset = []
    for module, name, offset, params in _defaulted_params():
        n_pos, kws = calls.get(name, (0, set()))
        for param, index in params:
            positional = index is not None and n_pos > index - offset
            if param not in kws and not positional:
                unset.append(f"{module}.{name}({param}=)")
    assert not unset, f"defaults no call passes: {unset}"


def _outer_functions(body):
    """Top-level functions and class methods; a nested function belongs
    to the function around it."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from _outer_functions(node.body)


def _unread_locals(fn):
    """Names that fn (nested functions included) binds by assignment, a
    loop, def, class or except clause and never reads; _ is exempt."""
    bound, read = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif node is not fn and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return sorted(bound - read - {"_"})


def test_every_local_name_is_read():
    unread = [f"{path.stem}.{fn.name}: {name}" for path in SOURCES
              for fn in _outer_functions(ast.parse(path.read_text()).body)
              for name in _unread_locals(fn)]
    assert not unread, f"locals bound and never read: {unread}"


def _config_reads(tree):
    """Top-level keys and (section, key) pairs read as constant-string
    subscripts of a name or an attribute called cfg."""
    def key(node):
        s = node.slice
        return s.value if isinstance(s, ast.Constant) \
            and isinstance(s.value, str) else None

    def is_cfg(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "cfg"

    top, pairs = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript) or key(node) is None:
            continue
        if is_cfg(node.value):
            top.add(key(node))
        elif isinstance(node.value, ast.Subscript) \
                and is_cfg(node.value.value) and key(node.value) is not None:
            pairs.add((key(node.value), key(node)))
    return top, pairs


def test_every_config_key_is_read():
    from kolmolab.runner import _SCHEMA
    path = ROOT / "src" / "kolmolab" / "runner.py"
    top, pairs = _config_reads(ast.parse(path.read_text()))
    table = {(section, k) for section, spec in _SCHEMA.items()
             if isinstance(spec, dict) for k in spec}
    assert not set(_SCHEMA) - top and not table - pairs, \
        f"keys the runner never reads: {set(_SCHEMA) - top, table - pairs}"
    assert not top - set(_SCHEMA) and not pairs - table, \
        f"reads of keys not in the table: {top - set(_SCHEMA), pairs - table}"
