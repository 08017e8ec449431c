"""Run one ``ncgroupoid`` command with the CLI's calls into the other layers traced.

Usage: ``python3 perfbench/cli_child.py SPAN_FILE ARGS...`` with the
checkout's ``src`` on ``PYTHONPATH``.  Behaves like ``ncgroupoid ARGS...``
(same outputs, same exit code) and writes its spans as JSON to SPAN_FILE.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer, instrument_cli


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import ncgroupoid.cli as cli
    instrument_cli(tracer, cli)
    with tracer.span("cli.run"):
        code = cli.run(argv)
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
