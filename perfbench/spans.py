"""Layer timing from outside the library.

`Tracer.installed()` replaces each public function named in TRACED with a
wrapper that records a span (name, start, end, parent) and, for some layers,
counts read from the return value.  Every name bound to the original function
in any loaded `rydeit` module is replaced, so calls through re-exports and
`from x import f` names are seen too; leaving the block restores them all.
Spans stay in memory; `layer_totals` turns them into calls, total time and
self time (a span's duration minus the durations of its direct children).
"""

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

ROOT_SPAN = "bench.op"

TRACED = (
    "cli.run", "svgplot.emit_plot",
    "analysis.sweep", "analysis.find_peak", "analysis.slope_vs_probe_power",
    "analysis.fit_epsilon",
    "ddi.beta_phi_ddi", "ddi.delta_beta_phi_on_resonance",
    "backend.avg_susceptibility", "response.beta0_phi0",
    "params.derive_scales", "nnd.expect", "nnd.sample_shift",
    "analytic.delta_beta_phi_corrected", "analytic.peak_shift_probe_sweep",
    "analytic.peak_shift_coupling_sweep",
)

SEED_PANELS = 12  # panels of the integrator's seed layout (_gkrule.SEED_BREAKS)


def _count_avg_susceptibility(counts, args, kwargs, result):
    panels = result.panels
    counts["backend.avg_susceptibility.panels"] += panels
    # every split evaluates two children: 2P - 12 panels of 15 nodes each
    counts["backend.avg_susceptibility.evals"] += 15 * (2 * panels - SEED_PANELS)
    counts["backend.avg_susceptibility.nonconverged"] += not result.converged


def _count_expect(counts, args, kwargs, result):
    counts["nnd.expect.panels"] += result.panels


def _count_sweep(counts, args, kwargs, result):
    counts["analysis.sweep.points"] += result.grid.size


def _count_cli_run(counts, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    for path in (config.output, config.plot):
        if path:
            counts["cli.run.bytes_out"] += os.path.getsize(path)


COUNTERS = {
    "backend.avg_susceptibility": _count_avg_susceptibility,
    "nnd.expect": _count_expect,
    "analysis.sweep": _count_sweep,
    "cli.run": _count_cli_run,
}


class Tracer:
    """Spans and counts of the traced layers."""

    def __init__(self, package="rydeit", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans = []     # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(float)
        self.op_id = -1
        self._stack = []

    def _begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self._stack.append(index)
        return index

    def _end(self, index):
        self._stack.pop()
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self, names=TRACED):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package
                                         or key.startswith(self.package + "."))]
        patched = []
        try:
            for name in names:
                module_name, fn_name = name.rsplit(".", 1)
                original = getattr(sys.modules[f"{self.package}.{module_name}"],
                                   fn_name)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def layer_totals(spans):
    """{name: [calls, total_s, self_s]} from a list of finished spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent, *_) in enumerate(spans):
        row = totals[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
    return dict(totals)
