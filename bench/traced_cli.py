"""Run one fpsop command with layer spans recorded, as its own process.

    python bench/traced_cli.py --spans FILE --request-id ID -- COMMAND ARGS...

The report goes to standard output exactly as ``python -m fpsop COMMAND
ARGS...`` prints it, and the exit code is the same.  The spans, including one
around ``import fpsop.cli``, and the counts go to FILE as JSON.
"""

from __future__ import annotations

import argparse
import sys

from tracing import Tracer, install


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--request-id", required=True)
    parser.add_argument("fpsop_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    fpsop_args = args.fpsop_args[1:] if args.fpsop_args[:1] == ["--"] else args.fpsop_args

    tracer = Tracer()
    with tracer.request(args.request_id):
        with tracer.span("import"):
            import fpsop.cli
        install(tracer)
        code = fpsop.cli.main(fpsop_args)
    sys.stdout.flush()
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
