"""Time one cold set-up of a workload in a fresh interpreter, then run the
speed probe in the same interpreter, and print both times.

    python3 perfbench/setup_probe.py <workload> <seed> <tiny 0|1> <workdir>

Set-up is what a user pays before the first solve: importing the program
(numpy and scipy included), then the workload's config parse and problem
build. Input generation is the benchmark's own work and is not counted.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

_IMPORTED = time.perf_counter()


def main() -> None:
    name, seed, tiny, workdir = sys.argv[1:5]
    workload = workloads.make(name, int(seed), tiny == "1", workdir)
    t0 = time.perf_counter()
    workload.setup()
    setup_s = (_IMPORTED - _STARTED) + (time.perf_counter() - t0)
    from speedprobe import speed_probe

    print(repr(setup_s), repr(speed_probe()))


if __name__ == "__main__":
    main()
