"""torusreg benchmark: one workload, untraced (end-to-end metrics) or traced
(per-layer metrics), on one thread in a closed loop with one client.

    python3 perfbench/run.py --workload entropy_worst_case --seed 0 --seconds 20 --trace 0

Starts back-to-back passes of the workload until ``--seconds`` have passed
(a pass is never cut, so a run ends within one pass after that), with
speed probes between its segments (see ``speedprobe.py``). Checks every pass
against the committed reference rows and the acceptance slope windows,
prints one ``name = value unit`` line per metric and, as the last line, a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. An operation is one solve; a pass that raises or fails the
check counts all its solves as failed, and any failure makes the exit code 1.

``--trace 1`` spends the first half of the budget on untraced passes and
the second half on traced ones, reports the per-layer metrics of the
traced passes and the tracing overhead, and writes the spans to
``.perfbench-out/<workload>/spans.json``. ``--tiny`` shrinks every workload
for a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the benchmark runs on one thread; set before numpy is imported
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5


class Pass(NamedTuple):
    rows: list | None  # None when the pass raised
    wall_s: float  # without the speed probes
    wall_ref_s: float  # at the reference speed, see speedprobe.py
    layers: dict | None  # per-layer metrics of a traced pass
    error: Exception | None = None


def run_passes(one_pass, budget: float, clock) -> list[Pass]:
    """Call ``one_pass(split)`` back to back while less than ``budget``
    seconds have passed; a pass is never cut, so the last one may end after
    the budget. ``one_pass`` returns ``(rows, layers)``."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < budget:
        clock.begin()
        try:
            rows, layers = one_pass(clock.split)
            error = None
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            rows, layers, error = None, None, exc
        clock.end()
        results.append(Pass(rows, clock.wall_s, clock.wall_ref_s, layers, error))
    return results


def setup_probe(args, workdir: str) -> tuple[float, float]:
    """Cold set-up time of the workload in a fresh interpreter, and the
    speed probe time right after it."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), args.workload, str(args.seed),
           "1" if args.tiny else "0", workdir]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup_s, probe_s = done.stdout.split()
    return float(setup_s), float(probe_s)


def check_passes(workloads, workload, passes, reference) -> list[list[str]]:
    """Correctness gate of every pass, plus pass-to-pass determinism: one
    list of problems per pass."""
    problems = []
    first = None
    for p in passes:
        if p.rows is None:
            problems.append([f"{type(p.error).__name__}: {p.error}"])
            continue
        found = workloads.check(workload, p.rows, reference)
        if first is None:
            first = p.rows
        elif p.rows != first:
            found.append("rows differ from the first pass on the same inputs")
        problems.append(found)
    return problems


def report(name: str, value, unit: str, note: str = "") -> dict:
    print(f"{name} = {value!r} {unit}{'  (' + note + ')' if note else ''}")
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)

    os.environ.update(ONE_THREAD)
    sys.path.insert(0, HERE)
    import workloads  # imports the program from this checkout
    from speedprobe import REFERENCE_PROBE_S, PassClock

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(ROOT, ".perfbench-out", args.workload)
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.tiny, workdir)
    reference = workloads.load_reference()
    print(f"workload={args.workload} seed={args.seed} variant={workload.variant} "
          f"tiny={args.tiny} trace={args.trace} seconds={args.seconds:g} threads=1 "
          f"solves_per_pass={workload.solves_per_pass()}")

    if args.trace == 0:
        probes = 1 if args.tiny else SETUP_PROBES
        if not args.tiny:
            setup_probe(args, workdir)  # warm the file cache and bytecode
        setups = [setup_probe(args, workdir) for _ in range(probes)]
    workload.setup()
    clock = PassClock()

    def untraced(split):
        return workload.run_pass(split), None

    metrics = {}
    if args.trace == 0:
        passes = run_passes(untraced, args.seconds, clock)
        problems = check_passes(workloads, workload, passes, reference)
        done = [p for p in passes if p.rows is not None]
        metrics["wall_ref_s"] = report(
            "wall_ref_s", statistics.median(p.wall_ref_s for p in done), "s",
            f"median of {len(done)} passes, at the reference speed")
        metrics["setup_s"] = report(
            "setup_s", statistics.median(s * REFERENCE_PROBE_S / p for s, p in setups), "s",
            f"median of {len(setups)} fresh interpreters, at the reference speed")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = report("peak_rss_mb", peak, "MB")
        ms = [1e3 * p.wall_s for p in done]
        report("wall_s", statistics.median(p.wall_s for p in done), "s", "median pass, raw")
        report("setup_raw_s", statistics.median(s for s, _ in setups), "s", "median, raw")
        report("probe_s", statistics.median(clock.probes_s), "s",
               f"median of {len(clock.probes_s)} speed probes")
        report("sweep_ms_p50", statistics.median(ms), "ms", f"{len(ms)} samples")
        report("sweep_ms_p90", statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
               "ms", f"{len(ms)} samples")
    else:
        import spans

        plain = run_passes(untraced, args.seconds / 2, clock)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_passes(lambda split: tracer.run_pass(lambda: workload.run_pass(split)),
                                args.seconds / 2, clock)
        tracer.write(os.path.join(workdir, "spans.json"))
        passes = plain + traced
        problems = check_passes(workloads, workload, passes, reference)
        ok_traced = [(found, p.layers) for found, p in zip(problems[len(plain):], traced)
                     if p.rows is not None]
        layers = [m for _, m in ok_traced]
        counts = [name for name, unit, _ in spans.PER_LAYER if unit in ("count", "bytes")]
        for found, m in ok_traced:
            found += [f"{name} {m[name]} differs from the first traced pass's {layers[0][name]}"
                      for name in counts if m[name] != layers[0][name]]
            solves = m["solvers.dr.solves"] + m["solvers.spectral.solves"]
            if solves != workload.solves_per_pass():
                found.append(f"traced {solves} solves, expected {workload.solves_per_pass()}")
        for name, unit, _ in spans.PER_LAYER:
            if name == "trace.overhead_frac":
                value = (statistics.median(p.wall_ref_s for p in traced if p.rows is not None)
                         / statistics.median(p.wall_ref_s for p in plain if p.rows is not None)
                         - 1.0)
            elif name in counts:
                value = layers[0][name]  # checked identical in every pass
            else:
                value = statistics.median(m[name] for m in layers)
            metrics[name] = report(name, value, unit)

    attempted = workload.solves_per_pass() * len(passes)
    failed = workload.solves_per_pass() * sum(1 for found in problems if found)
    if not args.tiny and passes[0].rows is not None:
        for w in workload.windows(passes[0].rows):
            print(f"slope {w.label} = {w.slope:.4f} (window {w.target:.4f} +- {w.width})"
                  f" {'ok' if w.ok else 'OUTSIDE'}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} solves)")
    for i, found in enumerate(problems):
        for msg in found:
            print(f"CHECK FAILED: pass {i}: {msg}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
