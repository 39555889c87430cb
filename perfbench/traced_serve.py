"""``repro serve`` with the layer wrappers of :mod:`tracer` installed.

Usage: ``python perfbench/traced_serve.py --cache-dir DIR --trace-out FILE``
with the program's ``src`` on ``PYTHONPATH``.  Runs the real command line
(``repro.cli.main.main(["serve", ...])``) over standard input.  The trace
window opens when the first query line is read (the set-up ``ping`` has
been answered) and closes when the next ``op`` line arrives (every query
has been answered), so it matches the client's timed window.  The totals of
that window are written to FILE as JSON when input ends.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracer as tracing
from repro.cli.main import main as cli_main


class _Window:
    """Standard input that resets and snapshots the tracer at the window edges."""

    def __init__(self, stream, tracer: tracing.Tracer):
        self.stream = stream
        self.tracer = tracer
        self.opened = False
        self.snapshot: dict | None = None

    def __iter__(self):
        for line in self.stream:
            is_op = line.strip().startswith("{") and "op" in json.loads(line)
            if not is_op and not self.opened:
                self.tracer.reset()
                self.opened = True
            elif is_op and self.opened and self.snapshot is None:
                self.snapshot = self.tracer.snapshot()
            yield line


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    window = _Window(sys.stdin, tracing.install())
    sys.stdin = window
    code = cli_main(["serve", "--cache-dir", args.cache_dir])
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        json.dump(window.snapshot, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
