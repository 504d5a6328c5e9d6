"""The three workloads: what one op is, how ops are drawn from the seed,
and how one op is run.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.

* ``cli-cold`` launches a fresh ``python -m lcdeco.cli`` process per op
  over the pinned copies of the shipped configs plus ``lcdeco check`` and
  ``lcdeco derive``, in an order shuffled by the seed.  Import, config
  parsing and emission dominate; the Fock layer does little.
* ``fock-large`` repeats the fig4 scenario in process at α = 30,
  dim = 1200, samples = 4096, the paper's largest amplitude on the
  numeric path.  Dense ``eigh`` of the 2400-order joint matrix and grid
  propagation dominate; import plays no part.
* ``regime-scan`` runs, in process, fig2 and oracle-check scenarios over
  random valid regimes drawn from the seed (a Fock-route α ≤ 5 next to a
  Gaussian-only α = 30), with some small fig4 runs and built-in sw-check
  runs mixed in.  Many small ``eigh`` calls with short grids, so per-call
  overhead matters more than O(n³).  sw-check stays at its built-in
  regime (ω_a = 10, γ = 0.05), where its tolerance rows are defined.

Only the standard library is imported at module level, so a set-up probe
can import this module before it times ``import lcdeco``.
"""

import math
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "fock-large", "regime-scan")

# largest |alpha| routed through the truncated-Fock oracle by the runner
FOCK_ALPHA_MAX = 5.0


def nproc():
    return len(os.sched_getaffinity(0))


def threads_for(workload):
    """(pool threads, BLAS threads); their product stays <= nproc."""
    if workload == "regime-scan":
        return min(2, nproc()), 1
    return 1, nproc()


def pinned_config(name):
    with open(os.path.join(HERE, "configs", name + ".cfg"),
              encoding="utf-8") as fh:
        return fh.read()


def read_keys(text):
    """Flat {dotted key: raw value} view of a config, enough for the
    benchmark's own configs (no [device] values are needed)."""
    out, section = {}, ""
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").strip() + "."
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        out[section + key if section and "." not in key else key] = value
    return out


# ---------------------------------------------------------------------------
# cli-cold

CLI_COMMANDS = (
    ("fig2", ("run", "--config", "perfbench/configs/fig2.cfg")),
    ("fig4", ("run", "--config", "perfbench/configs/fig4.cfg")),
    ("oracle_check", ("run", "--config",
                      "perfbench/configs/oracle_check.cfg")),
    ("sw_check", ("run", "--config", "perfbench/configs/sw_check.cfg")),
    ("sweep", ("run", "--config", "perfbench/configs/sweep.cfg")),
    ("device_si", ("run", "--config", "perfbench/configs/device_si.cfg")),
    ("check", ("check",)),
    ("derive", ("derive", "--config", "perfbench/configs/device_si.cfg")),
)


def cli_cycles(rng):
    """Endless sequence of cycles; a cycle is every CLI command once, in an
    order shuffled by rng.  Runs end on a cycle boundary, so the mix of
    commands, and with it the median, is the same in every run."""
    while True:
        cycle = list(CLI_COMMANDS)
        rng.shuffle(cycle)
        yield [{"kind": "cli", "name": name, "argv": list(argv)}
               for name, argv in cycle]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(blas_threads):
    env = dict(os.environ)
    env.pop("LCDECO_OUT", None)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env.update((var, str(blas_threads)) for var in BLAS_VARS)
    return env


def run_process(argv, env, log_prefix):
    """Run argv to completion with stdout/stderr in files; returns
    (exit code, wall seconds, peak RSS in MB, stdout path, stderr path)."""
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path, \
        err_path


def cli_argv(op, out_dir, traced_spans=None, op_id=0):
    args = list(op["argv"])
    if args[0] in ("run", "check"):
        args += ["--out", out_dir]
    if traced_spans is None:
        return [sys.executable, "-m", "lcdeco.cli"] + args
    return [sys.executable, "-X", "importtime",
            os.path.join(HERE, "tracecli.py"), traced_spans, str(op_id)] \
        + args


# ---------------------------------------------------------------------------
# in-process workloads

def fig4_text(alpha, dim, samples, omega_a=8.0, g=0.35, threads=1):
    return ("scenario = fig4\n[model]\nomega_a = %r\ng = %r\nalpha = %r\n"
            "dim = %d\nsamples = %d\n[run]\nthreads = %d\n"
            % (omega_a, g, alpha, dim, samples, threads))


def fock_large_ops(tiny=False):
    text = fig4_text(3.0, 48, 4096) if tiny else fig4_text(30.0, 1200, 4096)
    while True:
        yield {"kind": "scenario", "name": "fig4", "text": text}


# built-in defaults of `lcdeco check`, with the pool size to fill in
ORACLE_BUILTIN = ("scenario = oracle-check\n[model]\nomega_a = 1.8\n"
                  "g = 0.05\nalpha = 2, 30\ndim = 64\nsamples = 200\n"
                  "[run]\nthreads = %d\n")
SW_BUILTIN = ("scenario = sw-check\n[model]\nomega_a = 10.0\ngamma = 0.05\n"
              "dim = 64\n[run]\nthreads = %d\n")


def _curve_text(scenario, omega_a, g, alphas, dim, samples, threads):
    return ("scenario = %s\n[model]\nomega_a = %r\ng = %r\nalpha = %s\n"
            "dim = %d\nsamples = %d\n[run]\nthreads = %d\n"
            % (scenario, omega_a, g, ", ".join(repr(a) for a in alphas),
               dim, samples, threads))


def _big_omega(omega_a, g):
    delta = omega_a - 1.0
    return math.sqrt(1.0 + 4.0 * g * g / delta)


def _adequate_dim(alpha, omega_a, g):
    """Truncation with headroom for the squeezed branch states: the
    conditioned evolution stretches a quadrature by up to 1/N_0 =
    √((Δ + 4g²)/Δ), so the coherent tail is taken at α/N_0."""
    from seedref import min_adequate_dim
    delta = omega_a - 1.0
    stretch = math.sqrt((delta + 4.0 * g * g) / delta)
    return int(1.25 * min_adequate_dim(alpha * stretch)) + 24


def _fig4_samples(omega_a, g):
    """Samples that meet the runner's sampling criterion over fig4's
    eight jump periods, with a small margin."""
    big = _big_omega(omega_a, g)
    return int(math.ceil(80.0 * max(omega_a, big) / big)) + 2


def regime_ops(rng, threads):
    """Endless sequence of regime-scan ops drawn from rng."""
    while True:
        u = rng.random()
        if u < 0.08:
            yield {"kind": "scenario", "name": "sw-check",
                   "text": SW_BUILTIN % threads}
            continue
        omega_a = rng.uniform(1.5, 12.0)
        g = rng.uniform(0.02, 0.15) * (omega_a - 1.0)
        if u < 0.16:
            alpha = round(rng.uniform(0.5, 3.0), 3)
            dim = _adequate_dim(alpha, omega_a, g)
            text = _curve_text("fig4", omega_a, g, [alpha], dim,
                               _fig4_samples(omega_a, g), threads)
            yield {"kind": "scenario", "name": "fig4", "text": text}
            continue
        alpha = round(rng.uniform(0.5, FOCK_ALPHA_MAX), 3)
        dim = _adequate_dim(alpha, omega_a, g)
        scenario = "fig2" if u < 0.58 else "oracle-check"
        text = _curve_text(scenario, omega_a, g, [alpha, 30.0], dim,
                           rng.randint(64, 256), threads)
        yield {"kind": "scenario", "name": scenario, "text": text}


def warmup_ops(workload, tiny=False):
    """Fixed ops run before timing starts, so lazy set-up (BLAS start-up,
    first-call costs, the .pyc cache) is paid outside the timed phase."""
    if workload == "fock-large":
        text = fig4_text(3.0, 48, 4096) if tiny else pinned_config("fig4")
        return [{"kind": "scenario", "name": "fig4", "text": text}]
    if workload == "regime-scan":
        pool, _ = threads_for(workload)
        return [
            {"kind": "scenario", "name": "fig2",
             "text": _curve_text("fig2", 8.0, 0.35, [2.0, 30.0], 40, 200,
                                 pool)},
            {"kind": "scenario", "name": "oracle-check",
             "text": ORACLE_BUILTIN % pool},
            {"kind": "scenario", "name": "fig4",
             "text": _curve_text("fig4", 4.0, 0.2, [2.0], 40,
                                 _fig4_samples(4.0, 0.2), pool)},
            {"kind": "scenario", "name": "sw-check",
             "text": SW_BUILTIN % pool},
        ]
    return []


def run_scenario_op(op, out_dir):
    """Parse the op's config and run it, as ``lcdeco run`` does.  The
    functions are looked up at call time so an installed tracer sees
    them."""
    import lcdeco.config
    import lcdeco.runner
    cfg = lcdeco.config.parse_config(op["text"])
    lcdeco.runner.run_scenario(cfg, out_dir=out_dir, config_text=op["text"])
