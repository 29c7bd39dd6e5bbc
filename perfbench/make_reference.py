"""Regenerate reference.json: the sweep rows of every workload, input variant
and size at the current commit, which the correctness gate compares against.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's outputs, and say
so in CHANGES.md; it prints the acceptance slopes of every full-size variant.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import ONE_THREAD, ROOT  # noqa: E402

os.environ.update(ONE_THREAD)
import workloads  # noqa: E402


def write(reference: dict, path: str) -> None:
    """JSON with one row per line, so a regenerated reference diffs by row."""
    lines = ["{"]
    for i, (name, variants) in enumerate(reference.items()):
        lines.append(f" {json.dumps(name)}: {{")
        for j, (key, rows) in enumerate(variants.items()):
            lines.append(f"  {json.dumps(key)}: [")
            lines += [f"   {json.dumps(row)}," for row in rows]
            lines[-1] = lines[-1].rstrip(",")
            lines.append("  ]" + ("," if j < len(variants) - 1 else ""))
        lines.append(" }" + ("," if i < len(reference) - 1 else ""))
    lines.append("}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def main() -> int:
    reference = {}
    outside = 0
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for tiny in (True, False):
            for variant in range(workloads.VARIANTS):
                workdir = os.path.join(ROOT, ".perfbench-out", name)
                os.makedirs(workdir, exist_ok=True)
                workload = workloads.make(name, variant, tiny, workdir)
                workload.setup()
                rows = workload.run_pass(lambda: None)
                reference[name][workloads.reference_key(workload)] = rows
                if tiny:
                    continue
                for w in workload.windows(rows):
                    outside += not w.ok
                    print(f"{name} variant {variant}: {w.label} {w.slope:.4f} "
                          f"(window {w.target:.4f} +- {w.width}) {'ok' if w.ok else 'OUTSIDE'}",
                          flush=True)
    write(reference, workloads.REFERENCE_PATH)
    print(f"wrote {workloads.REFERENCE_PATH}; {outside} slopes outside their windows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
