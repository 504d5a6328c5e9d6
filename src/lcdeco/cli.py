"""Command-line entry points.

Exit codes:
    0   success
    1   I/O error (an output file or directory could not be written)
    2   configuration error (every problem is listed on stderr)
    3   numeric or regime error (truncation, invalid regime, sampling,
        a failed linear-algebra routine, an amplitude that overflows a
        float) or out of memory
    4   one or more recorded checks ended in FAIL
"""

import argparse
import os
import sys

from .config import parse_config
from .errors import ConfigError, RegimeError, TruncationError
from .runner import (BUILTIN_ORACLE_CONFIG, BUILTIN_SW_CONFIG, derive_report,
                     default_out_dir, failed_checks, run_scenario)
from .version import VERSION

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4


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
    if report is not None:
        sys.stdout.write(report)
    _print_checks(manifest)
    out = default_out_dir(cfg, args.out)
    print("scenario %s: wrote %d file(s) to %s (%.2f s)"
          % (manifest["scenario"], len(manifest["files"]), out,
             manifest["wall_time_s"]))
    return EXIT_CHECK if failed_checks(manifest) else 0


def _cmd_check(args):
    status = 0
    for tag, text in (("oracle", BUILTIN_ORACLE_CONFIG),
                      ("sw", BUILTIN_SW_CONFIG)):
        cfg = parse_config(text)
        out = os.path.join(default_out_dir(cfg, args.out), "check-" + tag)
        manifest, _ = run_scenario(cfg, out_dir=out, config_text=text)
        print("[%s]" % cfg.scenario)
        _print_checks(manifest)
        if failed_checks(manifest):
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


def main(argv=None):
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
        print("error: out of memory (%s); lower model.dim or model.samples"
              % (str(exc) or "allocation failed"), file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
