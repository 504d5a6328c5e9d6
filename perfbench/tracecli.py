"""``lcdeco`` CLI entry point with the span tracer installed.

    python -X importtime perfbench/tracecli.py SPANS_JSON OP_ID ARGS...

Runs ``lcdeco.cli.main(ARGS)`` as ``python -m lcdeco.cli ARGS`` would,
under a root span ``cli.main``, writes the spans to SPANS_JSON and exits
with main's exit code.  The parent reads the import breakdown from the
``-X importtime`` lines on stderr.
"""

import json
import sys

from spans import Tracer


def main():
    spans_path, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import lcdeco.cli
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(op_id, name="cli.main"):
            code = lcdeco.cli.main(args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
