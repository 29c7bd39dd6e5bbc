"""Measure the benchmark over many seeds and write the baseline file.

    python3 perfbench/baseline.py --seeds 10 --sets 2 --out perfbench/baseline.json

For every set, every seed and every workload of BENCHMARK.json, runs
``run.py --trace 0`` for ``run_seconds`` (seed-major, so drift of the
machine spreads over all workloads), then one traced run per workload and
set. Per workload and metric it records the median and quartiles of each
set, the spread (q3 - q1) / median against the metric's bound, and the
ratio of each later set's median to the first. The traced runs' exact
counts must agree between sets. Machine facts go alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# per-layer counts that must repeat exactly for the same seed
EXACT_COUNTS = ("solvers.dr.iterations", "torus.fft_calls", "torus.signals",
                "harness.candidates", "bregman.steps")


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as handle:
            facts["cpu_model"] = next(line.split(":", 1)[1].strip() for line in handle
                                      if line.startswith("model name"))
        cache = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache)):
            def read(name):
                with open(os.path.join(cache, index, name)) as handle:
                    return handle.read().strip()
            if read("type") in ("Unified", "Data"):
                facts[f"L{read('level')}_{read('type').lower()}"] = read("size")
    except (OSError, StopIteration):
        pass  # facts this machine does not expose are left out
    return facts


def grid_sizes(names) -> dict:
    """Grid size n of every full-size workload."""
    sys.path.insert(0, HERE)
    import workloads

    return {name: workloads.make(name, 0, False, os.path.join(ROOT, ".perfbench-out", name)).n
            for name in names}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    # the declared metrics, plus the printed-only ones such as the raw wall_s
    printed = dict(line.split(" = ", 1) for line in lines[:-1] if " = " in line)
    values = {name: float(text.split()[0]) for name, text in printed.items()}
    values.update({name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()})
    return values


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = {"machine": machine_facts(), "grid_n": grid_sizes(names), "run_seconds": seconds,
           "seeds": list(range(args.seeds)), "sets": args.sets, "workloads": {}}
    runs = {name: [] for name in names}
    traced = {name: [] for name in names}
    for s in range(args.sets):
        for seed in range(args.seeds):
            for name in names:
                t0 = time.perf_counter()
                runs[name].append((s, run_once(name, seed, seconds, 0)))
                print(f"set {s} seed {seed} {name}: {runs[name][-1][1]} "
                      f"({time.perf_counter() - t0:.0f} s)", flush=True)
        for name in names:
            traced[name].append(run_once(name, 0, seconds, 1))

    ok = True
    for name in names:
        entry = {"end_to_end": {}, "traced_seed0": traced[name][0]}
        entry["raw_wall_s"] = [summary([m["wall_s"] for s, m in runs[name] if s == i])
                               for i in range(args.sets)]
        print(f"{name} raw wall_s: spreads {[round(st['spread'], 4) for st in entry['raw_wall_s']]}")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            sets = [summary([m[key] for s, m in runs[name] if s == i]) for i in range(args.sets)]
            ratios = [st["median"] / sets[0]["median"] for st in sets[1:]]
            steady = all(st["spread"] <= metric["bound"] / 3 for st in sets)
            agree = all(r - 1.0 <= metric["bound"] for r in ratios)
            ok &= agree and (steady or key == "setup_s")
            entry["end_to_end"][key] = {"unit": metric["unit"], "bound": metric["bound"],
                                        "sets": sets, "median_ratio_to_set0": ratios,
                                        "spread_below_third_of_bound": steady}
            print(f"{name} {key}: medians {[round(st['median'], 6) for st in sets]} "
                  f"spreads {[round(st['spread'], 4) for st in sets]} bound {metric['bound']}")
        for key in EXACT_COUNTS:
            values = [t[key] for t in traced[name]]
            if len(set(values)) > 1:
                ok = False
                print(f"{name} {key}: traced counts differ between sets: {values}")
        out["workloads"][name] = entry
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
