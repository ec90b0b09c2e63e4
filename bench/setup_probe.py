"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD

Prints the seconds taken to import gbzeta (with mpmath) and fill the
caches the workload's operations use, the same set-up `run.py` performs
before its timed window, followed by the mean time of the speed probes
taken right after it.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from speed import setup_probe  # noqa: E402


def main() -> None:
    wl = workloads.WORKLOADS[sys.argv[1]]
    import gbzeta

    wl.warm(gbzeta)
    elapsed = time.perf_counter() - T_START
    print(elapsed, setup_probe())


if __name__ == "__main__":
    main()
