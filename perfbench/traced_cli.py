"""``codag`` command line with span recording installed before it starts.

Usage: python3 traced_cli.py SPAN_DIR CODAG_ARGS...

Wrappers go in before ``cli.main`` runs, so forked ``--jobs`` workers
inherit them; every process writes its own ``spans-<pid>.jsonl`` into
SPAN_DIR.
"""

import sys

import spans


def main() -> int:
    span_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer(span_dir)
    spans.install(tracer)
    from codag import cli

    try:
        return cli.main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
