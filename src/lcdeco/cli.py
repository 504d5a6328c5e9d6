"""Command-line entry points.

Exit codes:
    0   success
    1   I/O error (an output file or directory could not be written or
        read back)
    2   configuration error (every problem is listed on stderr)
    3   numeric or regime error (truncation, invalid regime, sampling,
        a failed linear-algebra routine, an amplitude that overflows a
        float) or out of memory
    4   one or more recorded checks ended in FAIL

config and runner are imported by the commands that use them, so
--version, --help, a usage error and a config error load no numpy.

In a process that main starts before numpy is imported (`lcdeco`,
`python -m lcdeco.cli`), every BLAS library a command loads runs on one
thread, whatever the BLAS, and exit skips the last collection
(_cold_process).  A process that imported numpy before calling main
(tests, notebooks, in-process benchmarks) keeps its environment and its
exit; there fock._one_blas_thread limits every OpenBLAS library found.
"""

import argparse
import atexit
import gc
import os
import sys

from .errors import ConfigError, RegimeError, TruncationError
from .version import VERSION

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

# the thread-count variables of OpenBLAS, OpenMP builds, MKL and Accelerate
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lcdeco",
        description="simulator for progressive decoherence of a charge "
                    "qubit coupled to an LC oscillator")
    parser.add_argument("--version", action="version",
                        version="lcdeco " + VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario from a config")
    run.add_argument("--config", required=True, metavar="PATH")
    run.add_argument("--out", metavar="DIR", default=None,
                     help="output directory (default: run.out key, "
                          "then LCDECO_OUT, then ./out)")
    run.set_defaults(fn=_cmd_run)

    chk = sub.add_parser(
        "check", help="run oracle-check and sw-check with built-in defaults")
    chk.add_argument("--out", metavar="DIR", default=None)
    chk.set_defaults(fn=_cmd_check)

    der = sub.add_parser(
        "derive",
        help="print derived model parameters for a device config "
             "(both capacitance conventions); no files are written")
    der.add_argument("--config", required=True, metavar="PATH")
    der.set_defaults(fn=_cmd_derive)
    return parser


# the three calls a command makes into config and runner, looked up here
# at call time, so a test or the benchmark's span tracer can replace each

def parse_config(text):
    from . import config
    return config.parse_config(text)


def run_scenario(cfg, out_dir=None, config_text=None):
    from . import runner
    return runner.run_scenario(cfg, out_dir=out_dir, config_text=config_text)


def derive_report(cfg):
    from . import runner
    return runner.derive_report(cfg)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(["cannot read config %s: %s" % (path, exc)])
    return parse_config(text), text


def _print_checks(manifest):
    checks = manifest.get("checks") or []
    for c in checks:
        print("%-4s %-24s at=%-8g value=%-13.6g limit=%g"
              % (c["status"], c["name"], c["at"], c["value"], c["limit"]))
    if checks:
        n_bad = sum(1 for c in checks if c["status"] == "FAIL")
        print("%d check(s), %d failed" % (len(checks), n_bad))


def _cmd_run(args):
    cfg, text = _load_config(args.config)
    manifest, report = run_scenario(cfg, out_dir=args.out,
                                    config_text=text)
    from . import runner
    if report is not None:
        sys.stdout.write(report)
    _print_checks(manifest)
    out = runner.default_out_dir(cfg, args.out)
    print("scenario %s: wrote %d file(s) to %s (%.2f s)"
          % (manifest["scenario"], len(manifest["files"]), out,
             manifest["wall_time_s"]))
    return EXIT_CHECK if runner.failed_checks(manifest) else 0


def _cmd_check(args):
    from . import runner
    status = 0
    for tag, text in (("oracle", runner.BUILTIN_ORACLE_CONFIG),
                      ("sw", runner.BUILTIN_SW_CONFIG)):
        cfg = parse_config(text)
        out = os.path.join(runner.default_out_dir(cfg, args.out),
                           "check-" + tag)
        manifest, _ = run_scenario(cfg, out_dir=out, config_text=text)
        print("[%s]" % cfg.scenario)
        _print_checks(manifest)
        if runner.failed_checks(manifest):
            status = EXIT_CHECK
    return status


def _cmd_derive(args):
    cfg, _ = _load_config(args.config)
    if cfg.device is None:
        raise ConfigError(["derive needs a [device] section in %s"
                           % args.config])
    text, _, _ = derive_report(cfg)
    sys.stdout.write(text)
    return 0


def _cold_process():
    """In a process with no BLAS library loaded yet, pin every BLAS
    library a command loads to one thread, and freeze the objects still
    alive at exit.

    A BLAS library reads its thread count once, as it loads, so this
    must precede the first import of numpy.  On a two-vCPU Xeon with the
    host at two threads, numpy's and scipy's OpenBLAS each started a
    spinning worker that lcdeco never uses (its eigensolves and
    evolutions run on one thread, see fock._one_blas_thread): a fresh
    `lcdeco derive` used 0.31 s of CPU against 0.15 s with the pin, and
    a fig4 run 0.34 s against 0.18 s (medians of 15 alternated
    processes).  The exit freeze (gc.freeze at atexit) spares
    finalization a cyclic collection of everything numpy and lcdeco
    loaded, about 18 ms there; every file is closed by its `with`, and
    stdout is flushed at exit regardless.
    """
    if "numpy" in sys.modules:
        return
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    atexit.register(gc.freeze)


def main(argv=None):
    _cold_process()
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print("config error: %s" % problem, file=sys.stderr)
        return EXIT_CONFIG
    except (RegimeError, TruncationError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:   # overflow, e.g. |alpha|^2 at 1e200
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print("error: out of memory (%s); lower model.alpha, model.dim or "
              "model.samples" % (str(exc) or "allocation failed"),
              file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
