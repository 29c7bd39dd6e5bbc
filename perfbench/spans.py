"""Spans and counters around the program's layer boundaries, recorded from
the benchmark's side by patching each name where its caller looks it up.

A span has a name, a start, an end and the index of its parent span; spans
live in memory and are written once, when the run ends. Self time is a
span's duration minus the durations of its children (one thread, so
children never overlap). Hot leaf calls (``Signal`` construction and the
numpy FFTs, about a million per pass) are counted without spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter

import numpy as np

import torusreg.bregman
import torusreg.cli
import torusreg.harness
import torusreg.solvers
from torusreg.functionals import EntropyPenalty, QuadraticPenalty
from torusreg.solvers import SolverConfig
from torusreg.torus import Signal

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")

# (metric, unit, better) for every per-layer metric, in report order
PER_LAYER = (
    ("torus.signals", "count", "lower"),
    ("torus.fft_calls", "count", "lower"),
    ("torus.fft_bytes_computed", "bytes", "lower"),
    ("config.load_s", "s", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.apply.busy_s", "s", "lower"),
    ("functionals.entropy_prox.calls", "count", "lower"),
    ("functionals.entropy_prox.busy_s", "s", "lower"),
    ("functionals.prox_fidelity.calls", "count", "lower"),
    ("functionals.prox_fidelity.busy_s", "s", "lower"),
    ("functionals.bregman.calls", "count", "lower"),
    ("functionals.bregman.busy_s", "s", "lower"),
    ("solvers.dr.solves", "count", "lower"),
    ("solvers.dr.iterations", "count", "lower"),
    ("solvers.dr.self_s", "s", "lower"),
    ("solvers.dr.us_per_iter", "us", "lower"),
    ("solvers.spectral.solves", "count", "lower"),
    ("solvers.spectral.busy_s", "s", "lower"),
    ("solvers.failures", "count", "lower"),
    ("bregman.chains", "count", "lower"),
    ("bregman.steps", "count", "lower"),
    ("bregman.self_s", "s", "lower"),
    ("harness.candidates", "count", "lower"),
    ("harness.useful_ratio", "ratio", "higher"),
    ("harness.self_s", "s", "lower"),
    ("harness.build_problem_s", "s", "lower"),
    ("reportio.write_s", "s", "lower"),
    ("reportio.bytes", "bytes", "lower"),
    ("svgplot.write_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _solver_span_name(args, kwargs) -> str:
    cfg = args[4] if len(args) > 4 else kwargs.get("cfg", SolverConfig())
    return "solvers.dr" if cfg.method == "dr" else "solvers.spectral_route"


class Tracer:
    """Records spans and counters for one traced pass at a time."""

    def __init__(self):
        self.passes = []  # (names, starts, ends, parents) per finished pass
        self.counts = Counter()  # cleared in place: the patches hold a reference
        self.reset()

    def reset(self) -> None:
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = [-1]
        self.counts.clear()

    def _span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(self.names)
            self.names.append(label)
            self.parents.append(self.stack[-1])
            self.ends.append(0.0)
            self.stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[label + ".errors"] += 1
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count_signal(self, fn):
        def wrapper(obj):
            self.counts["torus.signals"] += 1
            return fn(obj)

        return wrapper

    def _count_fft(self, fn):
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            self.counts["torus.fft_calls"] += 1
            self.counts["torus.fft_bytes_computed"] += np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    def _targets(self):
        """(owner, attribute, wrapper factory) for every patched name."""
        c = self.counts

        def dr_done(args, report):
            c["solvers.dr.iterations"] += report.iterations

        def steps_done(args, states):
            c["bregman.steps"] += len(states)

        def rows_done(args, rows):
            c["harness.rows"] += len(rows)

        def csv_done(args, _):
            c["reportio.bytes"] += os.path.getsize(args[1])

        def span(name, on_result=None):
            return lambda fn: self._span(name, fn, on_result)

        out = [
            (Signal, "__post_init__", self._count_signal),
            (torusreg.cli, "load_config", span("config.load")),
            (torusreg.cli, "calibrate_c", span("harness.calibrate")),
            (torusreg.harness, "calibrate_c", span("harness.calibrate")),
            (torusreg.cli, "rate_sweep", span("harness.sweep", rows_done)),
            (torusreg.harness, "rate_sweep", span("harness.sweep", rows_done)),
            (torusreg.cli, "approx_error_sweep", span("harness.sweep", rows_done)),
            (torusreg.cli, "build_problem", span("harness.build_problem")),
            (torusreg.harness, "build_problem", span("harness.build_problem")),
            (torusreg.harness, "_chain_metrics", span("harness.candidate")),
            (torusreg.cli, "bregman_iterate", span("bregman.iterate", steps_done)),
            (torusreg.harness, "bregman_iterate", span("bregman.iterate", steps_done)),
            (torusreg.bregman, "solve_generalized_dr", span(_solver_span_name, dr_done)),
            (torusreg.solvers, "solve_quadratic_spectral", span("solvers.spectral")),
            (torusreg.solvers, "prox_fidelity", span("functionals.prox_fidelity")),
            (EntropyPenalty, "prox", span("functionals.entropy_prox")),
            (EntropyPenalty, "bregman", span("functionals.bregman")),
            (QuadraticPenalty, "bregman", span("functionals.bregman")),
            (torusreg.cli, "write_sweep_csv", span("reportio.write", csv_done)),
            (torusreg.cli, "svg_loglog", span("svgplot.write")),
        ]
        for module in (torusreg.cli, torusreg.harness, torusreg.bregman, torusreg.solvers):
            out.append((module, "apply", span("operators.apply")))
        for fn in FFT_FUNCTIONS:
            out.append((np.fft, fn, self._count_fft))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, factory in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_pass(self, fn):
        """Run ``fn`` under a root span named ``pass``; return its result and
        the pass's per-layer metrics. Patches must be installed. The root
        span also covers the speed probes that run between segments."""
        self.reset()
        result = self._span("pass", fn)()
        return result, self._finish_pass()

    def _finish_pass(self) -> dict:
        names = np.array(self.names, dtype=object)
        starts, ends = np.array(self.starts), np.array(self.ends)
        parents = np.array(self.parents, dtype=int)
        self.passes.append((self.names, self.starts, self.ends, self.parents))
        dur = ends - starts
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child

        in_harness = np.array([n.startswith("harness.") for n in names], dtype=bool)

        def calls(name):
            return int(np.count_nonzero(names == name))

        def busy(name):
            return float(dur[names == name].sum())

        c = self.counts
        dr_iters = c["solvers.dr.iterations"]
        dr_busy = busy("solvers.dr")
        return {
            "torus.signals": c["torus.signals"],
            "torus.fft_calls": c["torus.fft_calls"],
            "torus.fft_bytes_computed": c["torus.fft_bytes_computed"],
            "config.load_s": busy("config.load"),
            "operators.apply.calls": calls("operators.apply"),
            "operators.apply.busy_s": busy("operators.apply"),
            "functionals.entropy_prox.calls": calls("functionals.entropy_prox"),
            "functionals.entropy_prox.busy_s": busy("functionals.entropy_prox"),
            "functionals.prox_fidelity.calls": calls("functionals.prox_fidelity"),
            "functionals.prox_fidelity.busy_s": busy("functionals.prox_fidelity"),
            "functionals.bregman.calls": calls("functionals.bregman"),
            "functionals.bregman.busy_s": busy("functionals.bregman"),
            "solvers.dr.solves": calls("solvers.dr"),
            "solvers.dr.iterations": dr_iters,
            "solvers.dr.self_s": float(self_time[names == "solvers.dr"].sum()),
            "solvers.dr.us_per_iter": 1e6 * dr_busy / dr_iters if dr_iters else 0.0,
            "solvers.spectral.solves": calls("solvers.spectral"),
            "solvers.spectral.busy_s": busy("solvers.spectral"),
            "solvers.failures": c["solvers.dr.errors"] + c["solvers.spectral_route.errors"],
            "bregman.chains": calls("bregman.iterate"),
            "bregman.steps": c["bregman.steps"],
            "bregman.self_s": float(self_time[names == "bregman.iterate"].sum()),
            "harness.candidates": calls("harness.candidate"),
            "harness.useful_ratio": c["harness.rows"] / c["bregman.steps"] if c["bregman.steps"] else 0.0,
            "harness.self_s": float(self_time[in_harness].sum()),
            "harness.build_problem_s": busy("harness.build_problem"),
            "reportio.write_s": busy("reportio.write"),
            "reportio.bytes": c["reportio.bytes"],
            "svgplot.write_s": busy("svgplot.write"),
        }

    def write(self, path: str) -> None:
        """Write every traced pass's spans as [name, start_s, end_s, parent] rows."""
        out = []
        for names, starts, ends, parents in self.passes:
            t0 = starts[0]
            out.append([[n, s - t0, e - t0, p] for n, s, e, p in zip(names, starts, ends, parents)])
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "passes": out}, handle)
