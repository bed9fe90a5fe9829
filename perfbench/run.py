"""Benchmark of the risk-analysis stack: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload triage_cold --seed 0 --seconds 10 --trace 0

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs it untraced and traced over the same work and
reports the per-layer metrics.  Both check the program's outputs.  The run
prints an environment/input block, the workload's own metrics by name with
units, an output digest, and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See ``README.md`` here
for the workloads and the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("triage_cold", "online_resolve", "http_mixed")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import fixture, workloads
    from perfbench.layers import PER_LAYER

    runs = ROOT / ".perfbench"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        model_dir = workdir / "model"
        ctx = workloads.Context(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace), root=ROOT,
            workdir=workdir, model_dir=model_dir,
            **fixture.fit_in_child(args.seed, model_dir, bool(args.trace)),
        )
        if args.workload == "http_mixed":
            from perfbench.http_mixed import http_mixed as run_workload
        else:
            run_workload = getattr(workloads, args.workload)
        outcome = run_workload(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.tracer is not None:
        outcome.tracer.write(runs / f"spans-{args.workload}-seed{args.seed}.jsonl")

    units = PER_LAYER if args.trace else workloads.END_TO_END
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# environment " + json.dumps(_environment(), sort_keys=True))
    print("# inputs " + json.dumps(outcome.info, sort_keys=True))
    for name, (value, unit) in outcome.detail.items():
        print(f"{args.workload}.{name} = {value:.6g} {unit}")
    print(f"{args.workload}.failed_share = {outcome.failed / outcome.attempted:.6g} ratio")
    print(f"# digest {args.workload} {outcome.digest}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
