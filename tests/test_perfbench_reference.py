"""Each benchmark workload, run in process at its reference seed, matches
the reference report that perfbench/run.py checks its samples against:
every verdict, and every leaf of the deterministic stages."""

import importlib.util
import json
import os
import sys

import pytest

from kolmolab.runner import run

RUN_PY = os.path.join(os.path.dirname(__file__), "..", "perfbench", "run.py")


def _load_perfbench():
    """perfbench/run.py as a module of its own name, read only: no
    bytecode is written beside it."""
    spec = importlib.util.spec_from_file_location("kolmolab_perfbench_run",
                                                  RUN_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


PERFBENCH = _load_perfbench()


@pytest.mark.parametrize("workload", sorted(PERFBENCH.WORKLOADS))
def test_workload_matches_its_reference(tmp_path, workload):
    reference = PERFBENCH.load_reference(workload)
    config = tmp_path / "config.run"
    config.write_text(json.dumps(PERFBENCH.workload_config(
        workload, reference["seed"], str(tmp_path / "out"))))
    _, report = run(config)
    assert PERFBENCH.check_report(report, reference)[2] == []
