"""Set-up probe: a fresh interpreter's ``import cvq`` plus a workload's first op.

Run by ``run.py`` as ``python3 perfbench/first_op.py <workload> <seed> <work dir>``.
The clock starts before ``cvq`` is imported.  Prints one JSON line with
the set-up seconds and the sha256 of the op's output.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import cvq  # noqa: E402,F401

import workloads  # noqa: E402


def main(workload, seed, work_dir):
    op = workloads.plan(workload, int(seed), 1)[0]
    res = workloads.run_op(op, work_dir)
    seconds = time.perf_counter() - T0
    print(json.dumps({"setup_s": seconds, "error": res.error,
                      "sha256": workloads.digest_lines([res])}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
