"""A traced `qstrange` CLI call: python perfbench/cli_probe.py ARGS...

Behaves like `python -m qstrange.cli ARGS...` with the same stdout and exit
code, but wraps the library's public functions first and prints the
recorded spans as one JSON line on stderr after the call.
"""

import io
import json
import sys
from contextlib import redirect_stdout

import qstrange.cli

import spans


def main():
    tracer = spans.Tracer()
    missing = spans.install(tracer)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = qstrange.cli.run(sys.argv[1:])
    sys.stdout.write(buf.getvalue())
    sys.stdout.flush()
    print(json.dumps({"missing": missing, "trace": tracer.dump()},
                     separators=(",", ":")), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
