"""Importing kolmolab defaults OPENBLAS_THREAD_TIMEOUT before numpy and
scipy load their OpenBLAS, so their idle worker threads sleep at once
instead of spinning on the CPU the run needs.  Each test runs a fresh
interpreter, because this one has loaded numpy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code, **env):
    """The JSON that `code` prints, run in a new interpreter with no
    OPENBLAS_THREAD_TIMEOUT of its own unless `env` gives one."""
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_THREAD_TIMEOUT"}
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


SEEN = ("import json, os, sys, kolmolab; print(json.dumps(["
        "os.environ.get('OPENBLAS_THREAD_TIMEOUT'), "
        "sorted({'numpy', 'scipy'} & set(sys.modules))]))")


def test_import_defaults_the_timeout_before_numpy_loads():
    assert _fresh(SEEN) == ["4", []]


def test_a_given_timeout_is_kept():
    assert _fresh(SEEN, OPENBLAS_THREAD_TIMEOUT="20") == ["20", []]


# CPU seconds (utime + stime) of every thread but the main one, 0.3 s
# after the import: an idle OpenBLAS worker that spins reads about 0.1 s
IDLE_WORKERS = """
import json, os, time
import kolmolab.runner
time.sleep(0.3)
total = 0
for tid in os.listdir("/proc/self/task"):
    if int(tid) != os.getpid():
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
print(json.dumps(total / os.sysconf("SC_CLK_TCK")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="per-thread CPU times are read from /proc")
def test_idle_blas_workers_take_no_cpu():
    assert _fresh(IDLE_WORKERS, OPENBLAS_NUM_THREADS="2") < 0.03
