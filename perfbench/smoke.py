"""Tiny-size smoke run of the benchmark harness, so it cannot rot.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced (fock-large at
a small size), and checks that each run exits 0, passes its output
checks and prints exactly the metrics BENCHMARK.json declares.  Then
checks that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.  Takes about
two minutes.  Kept out of the tier-1 pytest run on purpose (the file name
does not match test_*.py).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    failures = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            before = len(failures)
            proc = run(ROOT, w["name"], trace)
            label = "%s trace %d" % (w["name"], trace)
            if proc.returncode != 0:
                failures.append("%s: exit %d\n%s" % (label, proc.returncode,
                                                     proc.stderr[-2000:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, set(result)))
            if not result["correct"] or result["failed"]:
                failures.append("%s: failed ops\n%s" % (label,
                                                        proc.stderr[-2000:]))
            if set(result["metrics"]) != declared[trace]:
                failures.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (label, set(result["metrics"])
                                   ^ declared[trace]))
            print("%s %s" % ("ok" if len(failures) == before else "FAIL",
                             label))

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("bare directory: exit %d, stdout %r"
                            % (proc.returncode, proc.stdout[-200:]))
        else:
            print("ok bare directory refused (exit %d)" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
