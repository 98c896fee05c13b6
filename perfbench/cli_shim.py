"""Traced stand-in for ``python -m chevalley_chow.cli``.

Usage: ``python perfbench/cli_shim.py <summary.json> <cli arguments...>``

Installs the span recorder and tracemalloc, runs the CLI's ``main`` with
the given arguments, and writes the per-layer summary of this process to
``summary.json``.  Standard output and the exit code are the CLI's own.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

from chevalley_chow import cli

import spans


def main(argv):
    out_path, args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.requests = 1
    tracemalloc.start()
    try:
        return cli.main(args)
    finally:
        summary = spans.summarize(tracer)
        summary["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        with open(out_path, "w") as f:
            json.dump(summary, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
