"""Run one qdiscrim CLI command with every layer's public functions traced.

    python traced_cli.py SPANS_JSON ARG...

Behaves as `python -m qdiscrim.cli ARG...`, exit code and tracebacks
included, and writes the recorded spans to SPANS_JSON when the command
ends, also when it raises.
"""

from __future__ import annotations

import importlib
import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    cli = importlib.import_module("qdiscrim.cli")
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    raise SystemExit(main())
