"""Run one CLI command in this fresh interpreter, with or without the layer tracer.

    python3 bench/cli_traced.py SPANS_OUT ARGS...
    python3 bench/cli_traced.py - ARGS...

Imports ``contextuality.cli`` from the checkout's ``src`` and the tracer,
then calls ``contextuality.cli.main(ARGS)`` as one op.  With SPANS_OUT it
first wraps the public functions of every loaded ``contextuality`` module
and writes that op's spans and counters to SPANS_OUT; with ``-`` it runs
the same start-up without the wrappers, so that the two differ only by
tracing.  The exit code is the CLI's.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import contextuality.cli  # noqa: E402  (loads every layer the CLI uses)
from tracer import Tracer  # noqa: E402


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    if out == "-":
        return contextuality.cli.main(args)
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(" ".join(args))
    try:
        return contextuality.cli.main(args)
    finally:
        tracer.end_op()
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
