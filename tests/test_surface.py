"""Every public name of the package, and every public method of a public
class, is reached by the package itself or by a script; a name only
tests reach is surface to delete.  Every step of the scheme is taken by
the one stepping loop, _Stepper.march, and every LU and every operator
assembly is made by _Stepper.factor.  A package function that marches
takes its stepper: only evolve, mild_solve and the runner build one, so
the caller decides how long each LU lives.  Every keyword default of a
public function is passed by some call; a default that no call passes is a
setting nothing sets, so it should be a constant, and a default that
only tests pass is a knob unless it is listed with its reason.  Every
name a function binds is read in it; a name bound and never read is
dead code.  One formula serves every dimension d: only sqrtQ_at compares
d with a number.  The probe box |x| <= L/2 of every sup norm is written
once, as Grid.probe_L, and the boundary condition is bound once, as the
field Grid.bc, which only Grid(...) and replace(...) calls set.
Every key of the runner's config table is read by the runner, and every
key the runner reads is in the table.  The coupling-growth exponent
sigma is a field of the operator: no function takes it, and the runner
reads audit.sigma only to refuse a value other than the operator's.  A
run's artifacts have one serializer: no module imports csv, and the only
open(...) with a write mode is the one in _Runner._write_json.  Every
script imports, builds its argument parser and runs end to end at a
small size.  Every per-layer metric of BENCHMARK.json comes from an
entry point that the benchmark's tracer can wrap.  kolmolab/__init__.py
imports only os, and every script imports kolmolab before numpy or
scipy, so the package's OpenBLAS default is in place before either
library loads."""

import ast
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "kolmolab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = MODULES + SCRIPTS


def _exported(path):
    """The names listed in the module's __all__ (empty without one) and
    the public methods of the classes among them."""
    body = ast.parse(path.read_text()).body
    names = []
    for node in body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names = ast.literal_eval(node.value)
    methods = [fn.name for node in body
               if isinstance(node, ast.ClassDef) and node.name in names
               for fn in node.body if isinstance(fn, ast.FunctionDef)
               and not fn.name.startswith("_")]
    return names + methods


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


def _passed_params(paths):
    """name -> (most positional arguments, keyword names) over every call
    of that name in paths.  A forwarded *args or **kwargs passes nothing:
    a wrapper sets no value of its own."""
    calls = {}
    for path in paths:
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


def test_one_stepping_loop():
    # a .step( call outside _Stepper.march is a second stepping loop
    inside, outside = 0, []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        march = {id(node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) and cls.name == "_Stepper"
                 for fn in cls.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "march"
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "step":
                if id(node) in march:
                    inside += 1
                else:
                    outside.append(f"{path.stem} line {node.lineno}")
    assert inside == 1, "_Stepper.march must take every step"
    assert not outside, f"steps taken outside _Stepper.march: {outside}"


@pytest.mark.parametrize("callee", ["splu", "assemble_operator"])
def test_one_factorisation_site(callee):
    # every LU comes from _Stepper.factor, so one ordering rule
    # (evolve.LU_OPTIONS) covers them all; every assembly does too, so
    # the stepper's clock picks the time of each operator
    inside, outside = 0, []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        factor = {id(node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name == "_Stepper"
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "factor"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and callee in (
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)):
                if id(node) in factor:
                    inside += 1
                else:
                    outside.append(f"{path.stem} line {node.lineno}")
    assert inside == 1, f"_Stepper.factor must make every {callee} call"
    assert not outside, f"{callee} outside _Stepper.factor: {outside}"


def test_steppers_are_built_by_their_owners():
    # evolve.py (evolve), semilinear.py (mild_solve) and runner.py (the
    # estimate pass) own their LUs; every other module marches on the
    # stepper it is handed
    builders = sorted({path.stem for path in MODULES
                       for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "_Stepper"})
    assert builders == ["evolve", "runner", "semilinear"], \
        f"modules that build a _Stepper: {builders}"


def _unpassed_defaults(paths):
    """module.name(param=) of every default that no call in paths
    passes."""
    calls = _passed_params(paths)
    unset = []
    for module, name, offset, params in _defaulted_params():
        n_pos, kws = calls.get(name, (0, set()))
        for param, index in params:
            positional = index is not None and n_pos > index - offset
            if param not in kws and not positional:
                unset.append(f"{module}.{name}({param}=)")
    return unset


def test_every_keyword_default_is_passed_somewhere():
    tests = sorted((ROOT / "tests").glob("*.py"))
    unset = _unpassed_defaults(SOURCES + tests)
    assert not unset, f"defaults no call passes: {unset}"


# The defaults that no package or script call passes, each with the
# reason it stays a parameter rather than a constant.
TEST_ONLY_DEFAULTS = {
    "cli.main(argv=)": "the console entry point reads sys.argv; tests "
                       "pass the argument list",
}


def test_no_default_is_set_only_by_tests():
    unset = _unpassed_defaults(SOURCES)
    knobs = sorted(set(unset) - set(TEST_ONLY_DEFAULTS))
    assert not knobs, f"defaults only tests pass: {knobs}"
    stale = sorted(set(TEST_ONLY_DEFAULTS) - set(unset))
    assert not stale, f"listed defaults the package now passes: {stale}"


def _public_definitions():
    """(module, name) of every public function and class of the package
    and of every public method of its public classes."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                out += [(path.stem, f.name) for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("_")]
    return out


def test_no_defaulted_function_has_a_namesake():
    # calls are matched to defaults by bare name, so a default of one of
    # two namesakes reads as passed when only the other one's is
    names = [name for _, name in _public_definitions()]
    namesakes = {name for name in names if names.count(name) > 1}
    assert {"check_guards", "depends_on_t"} <= namesakes  # the scan works
    shadowed = sorted(f"{module}.{name}"
                      for module, name, _, params in _defaulted_params()
                      if params and name in namesakes)
    assert not shadowed, f"defaulted functions with namesakes: {shadowed}"


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


def _branches_on_the_dimension(path):
    """module.function of each == or != comparison of a name or an
    attribute d with an int constant in path."""
    tree = ast.parse(path.read_text())
    owner = {id(node): f"{path.stem}.{fn.name}"
             for fn in _outer_functions(tree.body) for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or not any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        sides = [node.left, *node.comparators]
        if any(getattr(x, "id", getattr(x, "attr", None)) == "d"
               for x in sides) and any(isinstance(x, ast.Constant)
                                       and type(x.value) is int
                                       for x in sides):
            found.append(owner.get(id(node), f"{path.stem} line "
                                             f"{node.lineno}"))
    return found


def test_no_branch_on_the_dimension():
    # sqrtQ_at keeps its d == 1 root: eigh gives the same bits there
    # but costs about 25x more per call at the Monte-Carlo path counts
    found = [where for path in SOURCES
             for where in _branches_on_the_dimension(path)]
    assert found == ["semilinear.sqrtQ_at"], \
        f"branches on d outside semilinear.sqrtQ_at: {found}"


def _reads_L(node):
    """node is <expr>.L or <expr>["L"]."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) \
            and node.slice.value == "L"
    return getattr(node, "attr", None) == "L"


def _halved_box_sites(path):
    """module.[class.]function of each <expr>.L / 2 or <expr>["L"] / 2
    in path."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
                and _reads_L(node.left) \
                and isinstance(node.right, ast.Constant) \
                and node.right.value == 2:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_one_probe_box():
    # every other site reads Grid.probe_L or the cached Grid.probe mask
    found = [where for path in SOURCES for where in _halved_box_sites(path)]
    assert found == ["grids.Grid.probe_L"], \
        f"the probe box L / 2 written outside Grid.probe_L: {found}"


def _bc_bindings(path):
    """module.[class.]function and kind of each binding of the name bc in
    path outside the Grid class body: a parameter, an assigned name or
    attribute, or a keyword of a call other than Grid(...) and
    replace(...)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.arg) and node.arg == "bc":
            found.append(f"{where}: parameter")
        elif isinstance(node, (ast.Name, ast.Attribute)) \
                and isinstance(node.ctx, ast.Store) \
                and getattr(node, "id", getattr(node, "attr", None)) == "bc" \
                and where != "grids.Grid":
            found.append(f"{where}: assignment")
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) not in (
                "Grid", "replace"):
            found.extend(f"{where}: keyword" for kw in node.keywords
                         if kw.arg == "bc")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_one_boundary_condition():
    # the box carries its boundary condition; no signature passes it
    found = [site for path in SOURCES for site in _bc_bindings(path)]
    assert found == [], f"bc bound outside the field Grid.bc: {found}"


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


def test_one_coupling_exponent():
    # sigma is stated once, as OperatorSpec.sigma; a sigma parameter
    # would let a caller audit an operator at an exponent not its own
    takers = [f"{path.stem} line {node.lineno}" for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda))
              and "sigma" in {a.arg for a in ast.walk(node.args)
                              if isinstance(a, ast.arg)}]
    assert not takers, f"functions that take sigma: {takers}"
    # the runner reads audit.sigma once, in a comparison with an
    # operator's sigma: the rule that a given value must be the operator's
    text = (ROOT / "src" / "kolmolab" / "runner.py").read_text()
    tree = ast.parse(text)

    def reads(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Subscript)
                and getattr(n.slice, "value", None) == "sigma"]

    in_rules = [read for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(getattr(n, "attr", None) == "sigma"
                        for n in ast.walk(node))
                for read in reads(node)]
    assert len(reads(tree)) == 1 and in_rules == reads(tree), \
        "runner.py reads audit.sigma outside one equality rule"
    assert ast.get_source_segment(text, in_rules[0]) == \
        'cfg["audit"]["sigma"]'


def _open_mode(call):
    """The mode an open(...) call passes: its second positional argument,
    else its mode keyword, else "r"; "w" when it is not a literal, which
    may write."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"),
        ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else "w"


def test_one_report_writer():
    # report.json and audit.json are a run's artifacts; a second writer
    # would be a second format for the numbers the report holds
    csv_users = [path.stem for path in MODULES
                 for node in ast.walk(ast.parse(path.read_text()))
                 if "csv" in _imported(node)]
    assert not csv_users, f"modules that import csv: {csv_users}"
    writers = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        owners = {id(node): f"{cls.name}.{fn.name}" for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)}
        writers += [owners.get(id(node), f"{path.stem} line {node.lineno}")
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "open"
                    and set(_open_mode(node)) & set("wax+")]
    assert writers == ["_Runner._write_json"], \
        f"open(...) calls with a write mode: {writers}"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_every_script_runs_its_help(path, monkeypatch, capsys):
    # in process, so that a broken import in a script fails here
    monkeypatch.setattr(sys, "argv", [str(path), "--help"])
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(path), run_name="__main__")
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


# script -> (small arguments, CSV header, data rows)
SCRIPT_RUNS = {
    "bsde_refinement": (["--N", "200", "--tau", "0.125"],
                        "steps,h,residual,reduction", 5),
    # three presets, three base points, six radii
    "kernel_tails": (["--tau", "0.1", "--n-cells", "8"],
                     "preset,x,R,outside_mass", 3 * 3 * 6),
}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_every_script_runs_end_to_end(path, tmp_path, monkeypatch, capsys):
    args, header, n_rows = SCRIPT_RUNS[path.stem]
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [str(path), *args, "--out", str(out)])
    monkeypatch.setattr(sys, "path", list(sys.path))
    runpy.run_path(str(path), run_name="__main__")
    lines = out.read_text().splitlines()
    assert lines[0] == header and len(lines) == 1 + n_rows
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")


def test_every_traced_layer_metric_exists():
    # in a child process, because install() patches the package for good
    code = ("import json, kolmolab.runner, tracer; t = tracer.Tracer(); "
            "tracer.install(t); print(json.dumps(list(tracer.layer_metrics(t))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]
                  if not m["name"].startswith("trace.")}
    assert not wanted - set(json.loads(out))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_source_calls_pythons_evaluator(path):
    # coefficient text is parsed into a tree and walked; it must never
    # reach eval, exec or compile (attribute calls such as sol.eval or
    # re.compile are other functions)
    calls = [f"{node.func.id} at line {node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("eval", "exec", "compile")]
    assert not calls, f"{path.stem}: {calls}"


def _imported(node):
    """The top-level module names an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").split(".")[0]]
    return []


def test_the_package_imports_only_os():
    # numpy and scipy read OPENBLAS_THREAD_TIMEOUT when they load, so the
    # package sets its default before any of its modules imports them
    tree = ast.parse((ROOT / "src" / "kolmolab" / "__init__.py").read_text())
    imports = [name for node in ast.walk(tree) for name in _imported(node)]
    assert imports == ["os"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_every_script_imports_kolmolab_first(path):
    names = [name for node in ast.parse(path.read_text()).body
             for name in _imported(node)
             if name in ("kolmolab", "numpy", "scipy")]
    assert names and names[0] == "kolmolab", f"{path.stem} imports {names}"
