"""One benchmark sample, run in a fresh process by run.py.

    python3 perfbench/child.py <config> <outdir> <trace 0|1>

Times set-up (``import kolmolab.runner`` plus ``load_config``) and
``runner.run``, reads the peak resident memory of this process, and
prints one JSON line.  With trace 1 the module entry points are wrapped
after set-up and the line also carries the per-layer counters.  The
BLAS thread variables must already be in the environment, because numpy
reads them when it is first imported.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time


def main(config, outdir, trace):
    t0 = time.perf_counter()
    from kolmolab import runner
    runner.load_config(config)
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    t1 = time.perf_counter()
    code, _ = runner.run(config, outdir=outdir)
    run_s = time.perf_counter() - t1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy
    import scipy
    sample = {"setup_s": setup_s, "run_s": run_s,
              "peak_rss_mb": peak_kb / 1024.0, "exit_code": code,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if tracer is not None:
        sample["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(sample))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
