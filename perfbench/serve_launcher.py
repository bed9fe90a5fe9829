"""Start the program's HTTP server for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py --report out.json [--trace spans.jsonl] \\
        -- http --model DIR --port 0 ...

Everything after ``--`` goes to ``repro.serve.cli.main`` unchanged.  Before
calling it, the launcher wraps the program's public functions: with
``--trace`` every layer's spans (written to that file on exit), otherwise only
the corpus-index memo counter.  On exit it writes ``--report``: the exit code,
the process's peak resident memory and the counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: serve_launcher.py --report PATH [--trace PATH] -- <serve args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv[:split])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.layers import install_counters, install_spans
    from perfbench.spans import Tracer
    from repro.serve.cli import main as serve_main

    tracer = Tracer()
    (install_spans if args.trace is not None else install_counters)(tracer)
    code = 1
    try:
        code = serve_main(argv[split + 1:])
    finally:
        tracer.restore()
        if args.trace is not None:
            tracer.write(args.trace)
        args.report.write_text(json.dumps({
            "exit_code": code,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "counts": dict(tracer.counts),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
