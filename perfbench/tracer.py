"""Outside-in tracing of kolmolab's module entry points.

`install` wraps the public entry points of each module from outside the
package: class methods are replaced on their class, and a module-level
function is replaced in every kolmolab module that binds it, because a
name imported with ``from .grids import gradient`` is a separate
binding that patching ``grids`` alone would miss.  Nothing under
``src/`` is edited.

Each wrapped entry point counts its calls and its inclusive wall time.
A call made while another call under the same key is still running is
counted but not timed again, so nested or recursive calls do not double
the time.  Times are inclusive: ``operators.coeff_s`` contains the DSL
time spent inside it, ``evolve.step_s`` the factorisations it triggers.

Which end-to-end metric each layer should move, on which workload:

- ``runner.stage.<check>_s``: run_s on every workload running the check.
- ``dsl.*``: run_s on golden_d1 (semilinear stage), moderately on mc_d1
  (``b_at``/``G_at`` at every path step); no change on pde_d2.
- ``operators.coeff_*``: as dsl, plus its own self time.
- ``evolve.*``: run_s on golden_d1 through the factorisation count;
  run_s and peak_rss_mb on pde_d2 through solves and fill-in.
- ``grids.*``: run_s on mc_d1 (``identify_yz``, equilibrium strategy).
- ``kernels.*``: run_s on pde_d2, where compactness dominates.
- ``semilinear.*``: run_s on golden_d1.
- ``fbsde.*`` and ``game.*``: run_s on mc_d1.

Every ``*_calls`` metric and the path, column, sweep and nnz counts
repeat exactly for one workload and seed.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# SuperLU keeps the values of L and U (float64) and one row index
# (int32) per stored entry; the computed footprint ignores supernode
# bookkeeping.
LU_BYTES_PER_NNZ = 12


class Tracer:
    def __init__(self):
        self.calls = {}
        self.seconds = {}
        self.counts = {}
        self._depth = {}

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, key, fn, before=None, after=None):
        """Count and time calls of fn under key; before(args) and
        after(result) update the extra counters."""
        self.calls.setdefault(key, 0)
        self.seconds.setdefault(key, 0.0)
        self._depth.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += 1
            if before is not None:
                before(args)
            depth = self._depth[key]
            self._depth[key] = depth + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth[key] = depth
                if depth == 0:
                    self.seconds[key] += time.perf_counter() - t0
            if after is not None:
                after(result)
            return result

        return traced


class _ModuleView:
    """Stands in for a module inside one kolmolab module, overriding a
    few attributes and forwarding the rest."""

    def __init__(self, module, **override):
        self._module = module
        self.__dict__.update(override)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer):
    """Wrap the entry points of every kolmolab module; call after
    ``import kolmolab.runner`` and before ``runner.run``."""
    from kolmolab import (dsl, evolve, fbsde, game, grids, kernels,
                          operators, runner, semilinear)

    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "kolmolab" or name.startswith("kolmolab.")]

    def method(cls, attr, key, **hooks):
        setattr(cls, attr, tracer.wrap(key, getattr(cls, attr), **hooks))

    def function(owner, attr, key, **hooks):
        orig = getattr(owner, attr)
        traced = tracer.wrap(key, orig, **hooks)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, traced)

    for check in runner.ALL_CHECKS:
        method(runner._Runner, f"stage_{check}", f"runner.stage.{check}")

    method(dsl.CoeffExpr, "__call__", "dsl.eval")
    method(dsl.CoeffExpr, "eval_state", "dsl.eval_state")
    for attr in ("Q_at", "b_at", "Btilde_at", "C_at"):
        method(operators.OperatorSpec, attr, "operators.coeff")

    def lu_size(lu):
        tracer.counts["evolve.lu_nnz"] = max(
            tracer.counts.get("evolve.lu_nnz", 0), int(lu.nnz))

    def rhs_columns(args):
        values = args[1]
        tracer.add("evolve.rhs_columns",
                   values.size // (values.shape[0] * values.shape[1]))

    function(evolve, "assemble_operator", "evolve.assemble")
    evolve.spla = _ModuleView(evolve.spla, splu=tracer.wrap(
        "evolve.factor", evolve.spla.splu, after=lu_size))
    method(evolve._Stepper, "step", "evolve.step", before=rhs_columns)

    function(grids, "gradient", "grids.gradient")
    function(grids, "interp_multilinear", "grids.interp")
    function(kernels, "kernel_row", "kernels.kernel_row")

    def picard_sweeps(sol):
        tracer.add("semilinear.picard_sweeps",
                   sum(1 for delta in sol.picard_history
                       if math.isfinite(delta)))

    function(semilinear, "mild_solve", "semilinear.mild_solve",
             after=picard_sweeps)
    method(semilinear.Nonlinearity, "__call__", "semilinear.nl")
    function(semilinear, "kt_norm", "semilinear.kt_norm")

    def paths(batch):
        tracer.add("fbsde.paths", batch.N)
        tracer.add("fbsde.exploded", len(batch.exploded))

    function(fbsde, "simulate_forward", "fbsde.simulate", after=paths)
    function(fbsde, "identify_yz", "fbsde.identify",
             after=lambda yz: tracer.add("fbsde.n_excluded", yz.n_excluded))
    function(fbsde, "girsanov_weights", "fbsde.girsanov")
    function(game, "minimax_select", "game.minimax")
    function(game, "nash_check", "game.nash_check")


def layer_metrics(tracer):
    """Flat {metric name: value} of every traced layer."""
    out = {}
    for key in tracer.calls:
        out[f"{key}_calls"] = tracer.calls[key]
        out[f"{key}_s"] = tracer.seconds[key]
    out.update(tracer.counts)
    for name in ("evolve.rhs_columns", "evolve.lu_nnz",
                 "semilinear.picard_sweeps", "fbsde.paths",
                 "fbsde.exploded", "fbsde.n_excluded"):
        out.setdefault(name, 0)
    factors = out["evolve.factor_calls"]
    out["evolve.lu_reuse"] = out["evolve.step_calls"] / factors \
        if factors else 0.0
    out["evolve.lu_bytes"] = LU_BYTES_PER_NNZ * out["evolve.lu_nnz"]
    return out
