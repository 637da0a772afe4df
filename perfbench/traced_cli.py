"""Run one qcdistort CLI command with the span tracer installed.

Usage: python traced_cli.py SPANS.json ARGS...

ARGS are the arguments of ``python -m qcdistort.cli``.  The import of
``qcdistort.cli`` in this fresh interpreter is recorded as the ``cli.import``
span; every span is written to SPANS.json when the command returns.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import qcdistort.cli as cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
