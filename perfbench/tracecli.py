"""Run one ``rhodf`` command with spans around its layer calls.

Usage: ``python3 perfbench/tracecli.py SPANS.json close graph.rnt``.
Everything after the span file goes to ``rhodf.cli.main`` unchanged;
the spans are written to the span file when the command ends, whether
it returned or raised.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from rhodf import cli

    try:
        return cli.main(argv)
    finally:
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
