"""Multi-worker sharded scoring: throughput and speedup versus worker count.

The :mod:`repro.parallel` engine exists to turn cores into throughput without
changing a single output bit.  This benchmark measures both halves of that
claim on one workload:

* **throughput** — ``StagedPipeline.analyse_batches`` over a fixed pair
  stream, once per worker count of the grid (default 1, 2, 4; a process
  pool above one worker), deterministic ordered merge included;
* **determinism** — every worker count's concatenated risk scores are
  compared bitwise against the single-worker reference; a single differing
  ulp fails the run.

The recorded ``speedup`` is honest wall-clock: on a single-core container the
pool *loses* to serial (process startup + IPC with no parallel compute to pay
for it) and the JSON says so — the ``cpu_count`` and ``start_method`` fields
qualify every number.  Each grid pass runs under a
:class:`repro.obs.MetricsRegistry`, so the report also carries per-worker
chunk timings and pipeline-rebuild costs straight from the engine's own merge
telemetry.
The ``--smoke`` CI mode asserts the determinism contract unconditionally
(process pools of 2 and 4 workers, uneven chunks, the service path) and
asserts the ≥2x speedup at 4 workers only where ≥4 cores are actually
available, recording
``speedup_check: "skipped (N cores)"`` otherwise.

Run directly (``python benchmarks/bench_parallel_scoring.py``), at a custom
scale (``--pairs 100000 --workers-grid 1,2,4,8``), or as the CI guard
(``python benchmarks/bench_parallel_scoring.py --smoke``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from repro.compose import PipelineSpec, build_pipeline
from repro.data import load_dataset, split_workload
from repro.data.sources import InMemorySource
from repro.data.workload import Workload
from repro.obs import MetricsRegistry, Stopwatch, use_recorder
from repro.parallel import ExecutionConfig

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel_scoring.json"

SPEC_VALUES = {
    "classifier": {"kind": "logistic", "params": {"epochs": 40}},
    "risk_features": {
        "kind": "onesided_tree",
        "params": {"tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 32}},
    },
    "training": {"epochs": 60},
    "seed": 0,
}


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolved_start_method(start_method: str | None) -> str:
    """The process start method a run actually uses (platform default resolved)."""
    return start_method or multiprocessing.get_start_method()


def build_fitted_pipeline(scale: float):
    workload = load_dataset("DS", scale=scale)
    split = split_workload(workload, ratio=(3, 2, 5), seed=0)
    pipeline = build_pipeline(PipelineSpec.from_dict(SPEC_VALUES))
    pipeline.fit(split.train, split.validation)
    return pipeline, split


def scoring_workload(split, n_pairs: int) -> Workload:
    """A scoring stream of exactly ``n_pairs``: seeded resample of the test part."""
    rng = np.random.default_rng(7)
    pool = split.test.pairs
    indices = rng.integers(0, len(pool), size=n_pairs)
    return Workload(
        f"bench-{n_pairs}",
        [pool[int(index)] for index in indices],
        split.test.left_table,
        split.test.right_table,
    )


def worker_breakdown(registry: MetricsRegistry) -> dict:
    """Per-worker chunk timings, read back from the engine's merge telemetry.

    The engine records one ``parallel.worker.<name>.chunk_seconds`` histogram
    per pool worker; this collapses each into chunks / total seconds / p95,
    which is enough to see load imbalance at a glance.  Empty for serial
    passes (no pool, no workers).
    """
    prefix, suffix = "parallel.worker.", ".chunk_seconds"
    detail: dict[str, dict] = {}
    for name, stats in sorted(registry.snapshot()["histograms"].items()):
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        worker = name[len(prefix):-len(suffix)]
        detail[worker] = {
            "chunks": int(stats["count"]),
            "seconds": round(stats["sum"], 4),
            "p95_chunk_seconds": round(stats["p95"], 4),
        }
    return detail


def run_grid(
    pipeline,
    workload: Workload,
    workers_grid: list[int],
    chunk_size: int,
    start_method: str | None,
) -> dict:
    """Time every worker count on the same stream; verify bitwise parity."""
    results: dict = {}
    reference: np.ndarray | None = None
    baseline_seconds: float | None = None
    for workers in workers_grid:
        execution = ExecutionConfig(workers=workers, start_method=start_method)
        registry = MetricsRegistry()
        with use_recorder(registry), Stopwatch() as watch:
            scores = np.concatenate([
                report.risk_scores
                for report in pipeline.analyse_batches(
                    workload, batch_size=chunk_size, execution=execution
                )
            ]) if len(workload) else np.zeros(0)
        seconds = watch.seconds
        if reference is None:
            reference, baseline_seconds = scores, seconds
        bit_identical = bool(np.array_equal(scores, reference))
        rebuild = registry.histogram("parallel.worker_rebuild_seconds")
        results[str(workers)] = {
            "seconds": round(seconds, 4),
            "pairs_per_second": round(len(workload) / seconds, 1) if seconds else 0.0,
            "speedup_vs_workers_1": round(baseline_seconds / seconds, 3) if seconds else 0.0,
            "bit_identical_to_workers_1": bit_identical,
            "worker_rebuild_seconds": round(rebuild.total, 4) if rebuild else 0.0,
            "per_worker": worker_breakdown(registry),
        }
        if not bit_identical:
            raise AssertionError(
                f"workers={workers} diverged bitwise from the serial reference"
            )
    return results


def run_smoke(args: argparse.Namespace) -> dict:
    """CI guard: parity always, speedup only where the cores exist."""
    pipeline, split = build_fitted_pipeline(scale=0.12)
    workload = scoring_workload(split, n_pairs=min(args.pairs, 600))
    serial = np.concatenate([
        report.risk_scores
        for report in pipeline.analyse_batches(workload, batch_size=args.chunk_size)
    ])

    checks: dict = {}
    # Parity across worker counts and uneven chunkings — always on.
    for workers in (2, 4):
        for chunk in (args.chunk_size, 1 + args.chunk_size // 3):
            execution = ExecutionConfig(workers=workers)
            scores = np.concatenate([
                report.risk_scores
                for report in pipeline.analyse_batches(
                    workload, batch_size=chunk, execution=execution
                )
            ])
            key = f"process-w{workers}-c{chunk}"
            checks[key] = bool(np.array_equal(scores, serial))
            assert checks[key], f"smoke parity failed: {key}"
    # CLI path parity: the source streamed through the service must match too.
    source = InMemorySource(workload, name="smoke")
    from repro.serve import RiskService

    service = RiskService(pipeline, max_batch_size=args.chunk_size, cache_size=0)
    parallel_rows = [
        scored.risk_score
        for scored in service.score_source(
            source, chunk_size=args.chunk_size,
            execution=ExecutionConfig(workers=2),
        )
    ]
    checks["service-process-w2"] = bool(np.array_equal(np.asarray(parallel_rows), serial))
    assert checks["service-process-w2"], "service parity failed"

    cores = available_cores()
    if cores >= 4:
        # Best of two attempts: a wall-clock gate on a shared CI runner can
        # lose one run to a noisy neighbor without any code defect.
        timing_workload = scoring_workload(split, 20_000)
        speedup = 0.0
        for _ in range(2):
            grid = run_grid(
                pipeline, timing_workload, [1, 4], args.chunk_size, args.start_method,
            )
            speedup = max(speedup, grid["4"]["speedup_vs_workers_1"])
            if speedup >= 2.0:
                break
        assert speedup >= 2.0, f"4-worker speedup {speedup:.2f}x < 2x on {cores} cores"
        speedup_check = f"passed ({speedup:.2f}x on {cores} cores)"
    else:
        speedup_check = f"skipped ({cores} core(s) available)"
    return {
        "benchmark": "parallel_scoring",
        "mode": "smoke",
        "n_pairs": len(workload),
        "chunk_size": args.chunk_size,
        "cpu_count": cores,
        "start_method": resolved_start_method(args.start_method),
        "parity_checks": checks,
        "speedup_check": speedup_check,
    }


def run_full(args: argparse.Namespace) -> dict:
    pipeline, split = build_fitted_pipeline(scale=args.scale)
    workload = scoring_workload(split, args.pairs)
    grid = run_grid(
        pipeline, workload, args.workers_grid, args.chunk_size, args.start_method
    )
    return {
        "benchmark": "parallel_scoring",
        "mode": "full",
        "dataset": "DS (seeded resample)",
        "n_pairs": len(workload),
        "chunk_size": args.chunk_size,
        "start_method": resolved_start_method(args.start_method),
        "cpu_count": available_cores(),
        "workers": grid,
    }


def _parse_grid(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pairs", type=int, default=100_000,
                        help="pairs in the scoring stream (default 100000)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="DS dataset scale used for fitting (default 0.2)")
    parser.add_argument("--workers-grid", type=_parse_grid, default=[1, 2, 4],
                        help="comma-separated worker counts (default 1,2,4)")
    parser.add_argument("--chunk-size", type=int, default=512)
    parser.add_argument("--start-method", choices=("fork", "spawn", "forkserver"),
                        default=None)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"result JSON path (default {DEFAULT_OUTPUT.name})")
    parser.add_argument("--smoke", action="store_true",
                        help="small run asserting parity (and speedup when cores allow)")
    args = parser.parse_args(argv)

    results = run_smoke(args) if args.smoke else run_full(args)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
