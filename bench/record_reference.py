"""Record the reference values every benchmark job is checked against.

    python3 bench/record_reference.py

Runs each workload's set-up and one pass of its jobs at seed 0 and writes
``bench/reference.json``.  Run it only on a commit whose outputs are
trusted (the references in the repository come from the package as it was
when the benchmark was added); a change that moves a recorded value beyond
``workloads.ATOL`` is a change of results, not of speed.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.prepare()
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        state = workload.setup(0)
        done = {}
        reference[name] = {}
        for job in workload.jobs:
            done[job.name] = values = job.run(state, done)
            reference[name][job.name] = {
                k: v
                for k, v in values.items()
                if not k.startswith("_") and k not in workloads.NOT_RECORDED
            }
            print(f"{name} {job.name}: {sorted(reference[name][job.name])}")
    tmp = str(workloads.REFERENCE_PATH) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, workloads.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
