"""Traced stand-in for `python -m frameopt.cli`, used by the traced CLI run.

    python3 perfbench/cli_child.py SPANS_FILE [frameopt arguments ...]

It installs the tracer, runs ``frameopt.cli.main`` on the arguments, and
writes the recorded spans and counters to SPANS_FILE, then exits with the
CLI's exit code.  PYTHONPATH must point at the checkout's ``src``.
"""

import json
import sys

import frameopt.cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return frameopt.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, handle)


if __name__ == "__main__":
    sys.exit(main())
