"""The Monte-Carlo numbers, bit for bit: the fbsde, girsanov and nash
stage dicts of the golden config and of its linear variant (no psi, 2000
paths), and the backward-residual ladder of scripts/bsde_refinement.py at
N = 400 and tau = 0.125.

tests/golden/mc_stages.json holds them as mc_stages() computes them;
regenerate it only in a change that says why the numbers moved:

    PYTHONPATH=src python tests/test_mc_stages.py
"""

import copy
import json
import runpy
import sys
import tempfile
from pathlib import Path

from kolmolab.runner import run

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "golden" / "mc_stages.json"
MC_CHECKS = ["fbsde", "girsanov", "nash"]


def _configs():
    with open(ROOT / "configs" / "ex71ii_full.run") as fh:
        golden = json.load(fh)
    golden["checks"] = MC_CHECKS
    linear = copy.deepcopy(golden)  # mc_d1's code path at a smaller N
    del linear["semilinear"]
    linear["mc"]["N"] = 2000
    return {"golden": golden, "linear": linear}


def mc_stages():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in _configs().items():
            p = Path(tmp) / f"{name}.run"
            p.write_text(json.dumps(cfg))
            report = run(p, outdir=Path(tmp) / name)[1]
            out[name] = {"stages": report["stages"]}
    script = runpy.run_path(str(ROOT / "scripts" / "bsde_refinement.py"))
    out["bsde_ladder"] = [list(rung) for rung in
                          script["residual_ladder"](400, 0.125, 42)]
    return json.loads(json.dumps(out))


def test_mc_stages_match_recorded_numbers(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends
    with open(RECORDED) as fh:
        assert mc_stages() == json.load(fh)


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(mc_stages(), indent=1) + "\n")
