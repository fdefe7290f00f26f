"""Time one cold set-up of a workload in this fresh interpreter: import of
the package plus the workload's set-up.  Prints the seconds.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import run


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    run.prepare()
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].setup(seed)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
