"""lcdeco benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 \
        --trace 0

Workloads are described in workloads.py.  With ``--trace 0`` a run
reports the end-to-end metrics, measured with tracing off:

    op_p50_s     median op latency (an op is one CLI process in cli-cold,
                 one parse + run_scenario call otherwise)
    ops_per_s    completed ops / wall time of the timed phase
    setup_s      median of three set-ups: import lcdeco plus the
                 workload's warm-up, each in a fresh process
                 (cli-cold: launch-to-exit of ``lcdeco --version``)
    peak_rss_mb  peak resident memory: of the CLI child processes in
                 cli-cold, of the benchmark process otherwise

With ``--trace 1`` every op input runs twice, traced then untraced, and
the run reports per-layer metrics as means per traced op (see
BENCHMARK.json for the list; ``fock.eigh_dim_max`` is the largest matrix
order seen).  ``trace.overhead_s`` is the median of traced minus
untraced op wall time.  The cli.* metrics come from ``-X importtime``
of the traced CLI processes in cli-cold and of the set-up probes
otherwise.

Every op's outputs are checked (verify.py); a failed op is counted, never
retried.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it are a
readable table, including failed_ratio and, where a run has at least 100
ops, op_p90_s, and an environment record.  The same record, with the
spans of a traced run, is written under .perfbench/results/.
"""

import argparse
import glob
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from probe import setup as inprocess_setup
from spans import Tracer, layer_totals
from workloads import (BLAS_VARS, HERE, WORKLOADS, child_env, cli_argv,
                       cli_cycles, fock_large_ops, nproc, regime_ops,
                       run_process, run_scenario_op, threads_for)

SETUP_SAMPLES = 3


class SetupError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small fock-large op, for the smoke run")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# import breakdown from `python -X importtime`

def import_times(stderr_path):
    """(seconds importing lcdeco, seconds importing scipy.signal) from the
    importtime lines of one process."""
    lcdeco_us = signal_us = 0
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|", 2)
            if not cumulative.strip().isdigit():
                continue
            stripped = name.strip()
            depth = len(name) - len(name.lstrip()) - 1
            if depth == 0 and stripped.split(".")[0] == "lcdeco":
                lcdeco_us += int(cumulative)
            if stripped == "scipy.signal":
                signal_us += int(cumulative)
    return lcdeco_us * 1e-6, signal_us * 1e-6


# ---------------------------------------------------------------------------
# the two kinds of run

def pair_order(trace, done):
    """Untraced runs an op once.  Traced runs it twice, traced and
    untraced, alternating which goes first so that an order effect does
    not bias the overhead."""
    if not trace:
        return (False,)
    return (True, False) if done % 4 == 0 else (False, True)


def bench_cli(args, work, env):
    """cli-cold: each op is a fresh `python -m lcdeco.cli` process."""
    setup = []
    for i in range(SETUP_SAMPLES):
        code, wall, _, _, err = run_process(
            [sys.executable, "-m", "lcdeco.cli", "--version"], env,
            os.path.join(work, "setup%d" % i))
        if code != 0:
            raise SetupError("lcdeco --version exited %d (see %s)"
                             % (code, err))
        setup.append(wall)

    cycles = cli_cycles(random.Random(args.seed))
    records = []

    def one(op, traced):
        op_id = len(records) + 1
        out = os.path.join(work, "op%d" % op_id)
        spans_path = out + ".spans.json" if traced else None
        code, wall, rss, out_path, err_path = run_process(
            cli_argv(op, out, spans_path, op_id), env, out)
        records.append({"op": op, "id": op_id, "out": out, "code": code,
                        "wall": wall, "rss": rss, "stdout": out_path,
                        "stderr": err_path, "traced": traced,
                        "spans": spans_path})

    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for op in next(cycles):
            for traced in pair_order(args.trace, len(records)):
                one(op, traced)
    wall = time.perf_counter() - start
    peak = max(r["rss"] for r in records if not r["traced"])
    return records, wall, setup, peak


def bench_inprocess(args, work, env):
    """fock-large and regime-scan: ops call run_scenario in this process."""
    try:
        import_s, warmup_s = inprocess_setup(
            args.workload, os.path.join(work, "setup0"), args.tiny)
    except Exception as exc:
        raise SetupError("warm-up failed: %s: %s" % (type(exc).__name__,
                                                     exc))
    setup = [import_s + warmup_s]
    probes = []
    for i in range(1, SETUP_SAMPLES):
        argv = [sys.executable] + (["-X", "importtime"] if args.trace
                                   else [])
        argv += [os.path.join(HERE, "probe.py"), args.workload,
                 os.path.join(work, "setup%d" % i)]
        argv += ["--tiny"] if args.tiny else []
        code, wall, _, out_path, err_path = run_process(
            argv, env, os.path.join(work, "probe%d" % i))
        if code != 0:
            raise SetupError("set-up probe exited %d (see %s)"
                             % (code, err_path))
        with open(out_path, encoding="utf-8") as fh:
            sample = json.loads(fh.read().strip().splitlines()[-1])
        setup.append(sample["import_s"] + sample["warmup_s"])
        probes.append({"wall": wall, "stderr": err_path, **sample})

    if args.workload == "fock-large":
        ops = fock_large_ops(args.tiny)
    else:
        ops = regime_ops(random.Random(args.seed),
                         threads_for(args.workload)[0])
    tracer = Tracer() if args.trace else None
    records = []

    def one(op, traced):
        op_id = len(records) + 1
        out = os.path.join(work, "op%d" % op_id)
        error = None
        if traced:
            tracer.install()
        begin = time.perf_counter()
        try:
            if traced:
                with tracer.op(op_id):
                    run_scenario_op(op, out)
            else:
                run_scenario_op(op, out)
        except Exception as exc:  # a failed op is counted, not retried
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            elapsed = time.perf_counter() - begin
            if traced:
                tracer.uninstall()
        records.append({"op": op, "id": op_id, "out": out, "wall": elapsed,
                        "error": error, "traced": traced})

    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        op = next(ops)
        for traced in pair_order(args.trace, len(records)):
            one(op, traced)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, wall, setup, peak, (tracer.spans if tracer else []), \
        probes


# ---------------------------------------------------------------------------
# checking and metrics

def verify_records(records, cli):
    from verify import check_cli, check_scenario
    failures = []
    for r in records:
        try:
            if cli:
                if r["code"] != 0:
                    problems = ["exit code %d" % r["code"]]
                else:
                    with open(r["stdout"], "rb") as fh:
                        problems = check_cli(r["op"], r["out"], fh.read())
            elif r["error"] is not None:
                problems = [r["error"]]
            else:
                problems = check_scenario(r["op"]["text"], r["out"])
        except Exception as exc:  # unreadable or missing output
            problems = ["%s: %s" % (type(exc).__name__, exc)]
        if problems:
            failures.append({"op": r["id"], "name": r["op"]["name"],
                             "problems": problems})
    return failures


def end_to_end(records, wall, setup, peak, failures):
    lat = [r["wall"] for r in records]
    ok = len(records) - len(failures)
    metrics = {
        "op_p50_s": (statistics.median(lat), "s"),
        "ops_per_s": (ok / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    extra = {"ops": (len(lat), "count"),
             "failed_ratio": (len(failures) / len(records), "ratio")}
    if len(lat) >= 100:
        extra["op_p90_s"] = (statistics.quantiles(lat, n=10)[8], "s")
    return metrics, extra


def _pair_overhead(records):
    """Median of traced minus untraced wall over each op input (records
    come in consecutive pairs of one op)."""
    diffs = [(b["wall"] - a["wall"]) * (1 if b["traced"] else -1)
             for a, b in zip(records[0::2], records[1::2])]
    return statistics.median(diffs)


def per_layer(records, spans, cli_parts):
    """Per-layer metrics as means per traced op.  cli_parts gives, per
    sample, (import_s, import_scipy_signal_s, process_self_s)."""
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    named, layers = layer_totals(spans)

    def mean(key):
        return named.get(key, 0.0) / n

    imp = statistics.mean(p[0] for p in cli_parts)
    metrics = {
        "fock.eigh_s": (mean("fock.eigh_s"), "s"),
        "fock.eigh_calls": (mean("fock.eigh_calls"), "count"),
        "fock.eigh_dim_max": (named["fock.eigh_dim_max"], "count"),
        "fock.propagate_s": (mean("fock.propagate_s"), "s"),
        "fock.state_s": (mean("fock.state_s"), "s"),
        "fock.leak_s": (mean("fock.leak_s"), "s"),
        "fock.eigh_flop_computed": (mean("fock.eigh_flop_computed"),
                                    "flop"),
        "fock.propagate_bytes_computed": (
            mean("fock.propagate_bytes_computed"), "B"),
        "hamiltonians.build_s": (mean("hamiltonians.build_s"), "s"),
        "decoherence.closed_s": (mean("decoherence.closed_s"), "s"),
        "observables.current_numeric_self_s": (
            mean("observables.current_numeric_self_s"), "s"),
        "observables.envelope_s": (mean("observables.envelope_s"), "s"),
        "circuit.derive_s": (mean("circuit.derive_s"), "s"),
        "config.parse_s": (mean("config.parse_s"), "s"),
        "emit.csv_s": (mean("emit.csv_s"), "s"),
        "emit.svg_s": (mean("emit.svg_s"), "s"),
        "emit.manifest_s": (mean("emit.manifest_s"), "s"),
        "emit.files": (mean("emit.files"), "count"),
        "emit.bytes_written": (mean("emit.bytes_written"), "B"),
        "runner.self_s": (mean("runner.run_scenario_self_s")
                          + mean("runner.derive_report_self_s"), "s"),
        "cli.import_s": (imp, "s"),
        "cli.import_scipy_signal_s": (
            statistics.mean(p[1] for p in cli_parts), "s"),
        "cli.process_self_s": (
            statistics.mean(p[2] for p in cli_parts), "s"),
        "trace.overhead_s": (_pair_overhead(records), "s"),
        "trace.op_wall_s": (statistics.mean(r["wall"] for r in traced), "s"),
    }
    in_ops = sum(v for k, v in layers.items() if k != "bench") / n
    if any(r["op"]["kind"] == "cli" for r in traced):
        in_ops += imp
    metrics["trace.layer_self_sum_s"] = (in_ops, "s")
    extra = {
        "hamiltonians.sw_s": (mean("hamiltonians.sw_s"), "s"),
        "decoherence.gaussian_s": (mean("decoherence.gaussian_s"), "s"),
        "decoherence.fock_oracle_self_s": (
            mean("decoherence.fock_oracle_self_s"), "s"),
        "traced_ops": (n, "count"),
    }
    for layer, total in sorted(layers.items()):
        extra["layer.%s.self_s" % layer] = (total / n, "s")
    return metrics, extra


def cli_spans(records):
    """Spans of the traced CLI children, ids made unique across ops, and
    per traced op (import_s, import_scipy_signal_s, process_self_s)."""
    spans, parts = [], []
    for r in records:
        if not r["traced"] or r["code"] != 0:
            continue
        with open(r["spans"], encoding="utf-8") as fh:
            own = json.load(fh)
        base = r["id"] * 10 ** 7
        spans += [(s[0] + base, None if s[1] is None else s[1] + base)
                  + tuple(s[2:]) for s in own]
        main_s = sum(s[4] - s[3] for s in own if s[2] == "cli.main")
        imp, sig = import_times(r["stderr"])
        parts.append((imp, sig, r["wall"] - imp - main_s))
    return spans, parts


def probe_parts(probes):
    parts = []
    for p in probes:
        imp, sig = import_times(p["stderr"])
        parts.append((imp, sig, p["wall"] - p["import_s"] - p["warmup_s"]))
    return parts


# ---------------------------------------------------------------------------
# environment record

def _openblas_threads():
    import ctypes
    import numpy
    root = os.path.join(os.path.dirname(numpy.__file__), os.pardir)
    for lib in glob.glob(os.path.join(root, "numpy.libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _llc_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                             capture_output=True, text=True, check=True)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.CalledProcessError):
        return None


def environment(workload, blas_threads):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        vendor = "unknown"
    n, t = 2 * 1200, 4096
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "cpu": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_threads_requested": blas_threads,
        "blas_threads_reported": _openblas_threads(),
        "pool_threads": {w: threads_for(w)[0] for w in WORKLOADS},
        "llc_bytes": _llc_bytes(),
        "fock_large_arrays_bytes": {
            "V (2400 x 2400 complex128)": 16 * n * n,
            "phases (2400 x 4096 complex128)": 16 * n * t,
            "output grid (2400 x 4096 complex128)": 16 * n * t},
    }


# ---------------------------------------------------------------------------

def _table(workload, args, metrics, extra):
    lines = ["workload %s  seed %d  trace %d" % (workload, args.seed,
                                                 args.trace)]
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        lines.append("  %-36s %-16.6g %s" % (name, value, unit))
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "lcdeco", "cli.py"))
            and os.path.isdir("perfbench")):
        print("run from the root of an lcdeco checkout (src/lcdeco and "
              "perfbench/ not found in %s)" % os.getcwd(), file=sys.stderr)
        return 2
    pool, blas = threads_for(args.workload)
    env = child_env(blas)
    os.environ.update((var, env[var]) for var in BLAS_VARS)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    results = os.path.join(".perfbench", "results")
    work = os.path.join(".perfbench", "work", "%s-%d"
                        % (args.workload, os.getpid()))
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    try:
        if args.workload == "cli-cold":
            records, wall, setup, peak = bench_cli(args, work, env)
            spans, parts = cli_spans(records) if args.trace else ([], [])
        else:
            records, wall, setup, peak, spans, probes = bench_inprocess(
                args, work, env)
            parts = probe_parts(probes)
        failures = verify_records(records, args.workload == "cli-cold")
    except SetupError as exc:
        print("set-up failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(records, spans, parts)
        extra["failed_ratio"] = (len(failures) / len(records), "ratio")
    else:
        metrics, extra = end_to_end(records, wall, setup, peak, failures)
    env_record = environment(args.workload, blas)
    for f in failures[:20]:
        print("FAILED op %d (%s): %s" % (f["op"], f["name"],
                                          "; ".join(f["problems"][:3])),
              file=sys.stderr)
    stem = os.path.join(results, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env_record,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "extra": {k: v[0] for k, v in extra.items()},
                   "setup_samples_s": setup,
                   "ops": [{"name": r["op"]["name"], "wall_s": r["wall"],
                            "traced": r["traced"]} for r in records],
                   "failures": failures}, fh,
                  indent=2)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump([dict(zip(("id", "parent", "name", "start", "end",
                                 "op", "attrs"), s)) for s in spans], fh)

    print(_table(args.workload, args, metrics, extra))
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
