"""One set-up sample in a fresh process: time ``import lcdeco`` and the
workload's warm-up ops, then print them as JSON.

    python3 perfbench/probe.py WORKLOAD WORK_DIR [--tiny]
"""

import json
import os
import sys
import time

from workloads import run_scenario_op, warmup_ops


def setup(workload, work_dir, tiny=False):
    """Import lcdeco and run the warm-up ops; returns (import_s,
    warmup_s)."""
    start = time.perf_counter()
    import lcdeco.cli  # noqa: F401  (the import is what is timed)
    imported = time.perf_counter()
    for i, op in enumerate(warmup_ops(workload, tiny)):
        run_scenario_op(op, os.path.join(work_dir, "warmup%d" % i))
    return imported - start, time.perf_counter() - imported


if __name__ == "__main__":
    import_s, warmup_s = setup(sys.argv[1], sys.argv[2],
                               "--tiny" in sys.argv[3:])
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
