"""The backward semilinear solve, bit for bit: mild_solve on the golden
operator and on a time-dependent ex71ii window at d = 1 and d = 2, and
a mollify ladder solved in one call against its rungs solved alone.

tests/golden/semilinear_solves.json holds them as solves() computes
them; regenerate it only in a change that says why the numbers moved:

    PYTHONPATH=src python tests/test_semilinear_solves.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from kolmolab import evolve as evolve_mod
from kolmolab.runner import _setup
from kolmolab.semilinear import mollify_nonlinearity, nonlinearity_from_exprs

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "golden" / "semilinear_solves.json"
# q, C and Btilde move with t on the window [0.1, 0.5]
TIME_DEPENDENT = {"q": "1+0.5*t", "c": "1+t", "btilde": "1+0.3*t"}
# name -> (operator params, grid n, time section, mollifier n)
CASES = {
    "golden": (None, None, None, 32),
    "ex71ii_t_d1": ({"d": 1, "m": 2, **TIME_DEPENDENT}, 101,
                    {"s": 0.1, "T": 0.5, "dt": 0.02}, 8),
    "ex71ii_t_d2": ({"d": 2, "m": 2, **TIME_DEPENDENT}, 21,
                    {"s": 0.1, "T": 0.5, "dt": 0.05}, 8),
}
LADDER = (8, 16, 32)  # the golden config's mollify ladder


def _runner(name):
    """The runner of the golden config with the case's operator, grid
    and window."""
    params, n, time, _ = CASES[name]
    with open(ROOT / "configs" / "ex71ii_full.run") as fh:
        cfg = json.load(fh)
    if params is not None:
        cfg["operator"]["params"] = params
        cfg["grid"]["n"] = n
        cfg["time"] = time
        del cfg["kernel"], cfg["mc"]  # their defaults follow d and time
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.run"
        path.write_text(json.dumps(cfg))
        return _setup(path, Path(tmp) / name)


def _solve(runner, name):
    """The runner's mild_solve, psi mollified at the case's n."""
    nl = mollify_nonlinearity(runner.nl, CASES[name][3])
    return runner._mild_solve(nl)


def solves():
    out = {}
    for name in CASES:
        sol = _solve(_runner(name), name)
        out[name] = {"picard_history": sol.picard_history,
                     "kt_norm": sol.kt_norm, "converged": sol.converged,
                     "u_s": sol.values[0][:, ::10].tolist()}
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("name", sorted(CASES))
def test_semilinear_solve_matches_recorded_numbers(name):
    with open(RECORDED) as fh:
        want = json.load(fh)[name]
    sol = _solve(_runner(name), name)
    assert sol.picard_history == want["picard_history"]
    assert sol.kt_norm == want["kt_norm"]
    assert sol.converged == want["converged"]
    assert sol.values[0][:, ::10].tolist() == want["u_s"]


def test_backward_solve_assembles_the_spec_at_physical_times(monkeypatch):
    # the backward march reads A(T - tau): the original spec, at the
    # physical time of each step's new level, from t = T down to s
    seen = []
    real = evolve_mod.assemble_operator

    def spy(spec, grid, t):
        seen.append((spec, t))
        return real(spec, grid, t)

    runner = _runner("ex71ii_t_d1")
    assert runner.spec.depends_on_t()
    monkeypatch.setattr(evolve_mod, "assemble_operator", spy)
    sol = _solve(runner, "ex71ii_t_d1")
    # one march for the linear start and one per Picard sweep
    sweeps = 1 + len(sol.picard_history)
    assert all(spec is runner.spec for spec, _ in seen)
    assert [t for _, t in seen] == list(sol.times[:-1][::-1]) * sweeps


def _assert_same_solve(got, want):
    assert got.picard_history == want.picard_history
    assert got.kt_norm == want.kt_norm
    assert got.converged == want.converged
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_ladder_in_one_call_equals_its_rungs_alone(name, monkeypatch):
    # every rung is one column of the same marches, and solves bit for
    # bit as it does alone; the linear start and one march per sweep of
    # the slowest rung serve them all, so the LUs are those of one solve:
    # one per step size, or one per step of each march when the operator
    # moves with t
    runner = _runner(name)
    nls = [mollify_nonlinearity(runner.nl, n) for n in LADDER]
    alone = [runner._mild_solve(nl) for nl in nls]
    factors = []
    real_splu = evolve_mod.spla.splu

    def counted(M, **options):
        factors.append(M.shape)
        return real_splu(M, **options)

    monkeypatch.setattr(evolve_mod.spla, "splu", counted)
    sol = runner._mild_solve(nls[-1], nls[:-1])
    assert len(sol.rungs) == len(LADDER) - 1
    for got, want in zip([*sol.rungs, sol], alone):
        _assert_same_solve(got, want)
    marches = 1 + max(len(rung.picard_history) for rung in alone)
    steps = len(sol.times) - 1
    assert len(factors) == \
        (marches * steps if runner.spec.depends_on_t() else 9)


def test_a_converged_rung_leaves_the_sweeps(monkeypatch):
    # a weak psi converges in 4 sweeps and the golden rung needs 8: with
    # max_iter 6 the weak rung sits out sweeps 5 and 6 and the golden one
    # stops unconverged, each as it would alone
    runner = _runner("golden")
    runner.cfg["semilinear"]["max_iter"] = 6
    weak = mollify_nonlinearity(nonlinearity_from_exprs(
        ["((exp(2*z11)-1)/(exp(2*z11)+1))/20", "0"], 1, 2), 8)
    golden = mollify_nonlinearity(runner.nl, 32)
    alone = [runner._mild_solve(nl) for nl in (weak, golden)]
    assert [len(sol.picard_history) for sol in alone] == [4, 6]
    assert [sol.converged for sol in alone] == [True, False]
    columns = []
    real_step = evolve_mod._Stepper.step

    def stepped(self, values, *args, **kwargs):
        columns.append(values.shape[2:])
        return real_step(self, values, *args, **kwargs)

    monkeypatch.setattr(evolve_mod._Stepper, "step", stepped)
    sol = runner._mild_solve(golden, [weak])
    for got, want in zip([*sol.rungs, sol], alone):
        _assert_same_solve(got, want)
    steps = len(sol.times) - 1
    assert columns == [()] * steps + [(2,)] * 4 * steps + [(1,)] * 2 * steps


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(solves(), indent=1) + "\n")
