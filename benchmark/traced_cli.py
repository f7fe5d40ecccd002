"""Run one ``amalgsep`` command with every public function traced.

    python benchmark/traced_cli.py COUNTERS.json --out report.json witness ...

The counters (calls, self time, distinct arguments) are written to the
first argument, and the spans next to it with a ``.spans`` suffix, when
the command ends, whatever its exit code.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    counters, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    from amalgsep import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(counters, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write(counters + ".spans")


if __name__ == "__main__":
    sys.exit(main())
