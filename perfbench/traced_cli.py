"""One `ewflab` invocation with spans around calls into each module.

Usage: python3 perfbench/traced_cli.py TRACE_OUT.json <ewflab arguments>

Behaves as the `ewflab` command (same output, same exit code) and writes the
span totals to TRACE_OUT.json on the way out.  The traced cli-mix run starts
this in place of the console script.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import ewflab.cli

    tracer = spans.Tracer()
    tracer.start_run()
    spans.install(tracer)
    try:
        return tracer.call("cli.main", ewflab.cli.main, argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.run.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
