"""Rule-coverage engine: legacy per-rule loop vs the compiled RuleKernel.

The membership matrix ``membership[i, j] = rule j covers pair i`` is the
scoring hot path of the whole system (Section 7.6 of the paper argues risk
scoring must stay cheap for LearnRisk to scale).  This benchmark measures the
legacy per-rule Python loop (:func:`repro.risk._oracle.legacy_rule_matrix`,
exactly what ``GeneratedRiskFeatures.rule_matrix`` used to do) against the
compiled :class:`repro.risk.engine.RuleKernel` over a grid of workload sizes,
asserts the two are value-identical on every cell (including NaN metric
values), and writes the measurements to ``BENCH_rule_engine.json`` at the
repository root — the first point of the repo's performance trajectory.

The synthetic rule sets mirror what :class:`OneSidedTreeBuilder` produces: a
forest of shallow trees whose leaf paths share split prefixes, so conditions
repeat across rules the way they do in real generated rule sets.

Run directly (``python benchmarks/bench_rule_engine.py``), at a custom grid
(``--pairs 100000 --rules 300``), or as the CI guard
(``python benchmarks/bench_rule_engine.py --smoke``) that checks kernel/legacy
parity and a minimum speedup on a laptop-sized grid in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.obs import MetricsRegistry
from repro.risk._oracle import legacy_rule_matrix
from repro.risk.engine import RuleKernel
from repro.risk.rules import Condition, RiskRule

DEFAULT_PAIRS = (10_000, 50_000, 200_000)
DEFAULT_RULES = (50, 200)
SMOKE_PAIRS = (2_000, 5_000)
SMOKE_RULES = (50,)
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_rule_engine.json"
#: The acceptance bar: kernel speedup over the legacy loop at 50k x 200.
TARGET_SPEEDUP = 5.0
TARGET_CELL = (50_000, 200)


def forest_rules(
    n_rules: int, n_metrics: int, rng: np.random.Generator,
    max_extra_depth: int = 3, leaves_per_tree: int = 8,
) -> list[RiskRule]:
    """Synthetic one-sided rules with forest structure (shared split prefixes)."""
    rules: list[RiskRule] = []
    while len(rules) < n_rules:
        root = Condition(
            metric_index=int(rng.integers(0, n_metrics)), metric_name="m",
            threshold=float(rng.random()), is_leq=bool(rng.integers(0, 2)),
        )
        for _ in range(leaves_per_tree):
            conditions = [root]
            for _ in range(int(rng.integers(0, max_extra_depth))):
                conditions.append(Condition(
                    metric_index=int(rng.integers(0, n_metrics)), metric_name="m",
                    threshold=round(float(rng.random()), 2), is_leq=bool(rng.integers(0, 2)),
                ))
            rules.append(RiskRule(conditions=tuple(conditions), label=1))
    return rules[:n_rules]


def metric_matrix(n_pairs: int, n_metrics: int, rng: np.random.Generator,
                  nan_fraction: float = 0.01) -> np.ndarray:
    """A dense metric matrix with a sprinkle of NaN (missing attribute values)."""
    matrix = rng.random((n_pairs, n_metrics))
    matrix[rng.random((n_pairs, n_metrics)) < nan_fraction] = np.nan
    return matrix


def run_cell(n_pairs: int, n_rules: int, n_metrics: int, repeats: int,
             seed: int) -> dict[str, float | int | bool]:
    """Measure one (n_pairs, n_rules) grid cell; returns timings and parity."""
    rng = np.random.default_rng(seed)
    rules = forest_rules(n_rules, n_metrics, rng)
    matrix = metric_matrix(n_pairs, n_metrics, rng)
    kernel = RuleKernel(rules)

    legacy = legacy_rule_matrix(rules, matrix)
    fused = kernel.membership(matrix)
    packed = kernel.membership_packed(matrix)
    parity = bool(np.array_equal(legacy, fused))
    packed_parity = bool(np.array_equal(packed.unpack(float), legacy))

    # Best-of-N timing on the repo's own observability primitives: each run is
    # timed into a streaming histogram, whose `minimum` is exact (not a
    # bucketed estimate) — same semantics as min(timeit.repeat(...)).
    registry = MetricsRegistry()
    for _ in range(repeats):
        with registry.timer("legacy"):
            legacy_rule_matrix(rules, matrix)
        with registry.timer("kernel"):
            kernel.membership(matrix)
    legacy_seconds = registry.histogram("legacy").minimum
    kernel_seconds = registry.histogram("kernel").minimum
    return {
        "n_pairs": n_pairs,
        "n_rules": n_rules,
        "n_conditions": kernel.n_conditions,
        "n_unique_conditions": kernel.n_unique_conditions,
        "legacy_seconds": legacy_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": legacy_seconds / kernel_seconds if kernel_seconds else float("inf"),
        "parity": parity,
        "packed_parity": packed_parity,
        "packed_bytes": packed.nbytes,
        "dense_bytes": int(fused.nbytes),
    }


def run_grid(pairs: tuple[int, ...], rules: tuple[int, ...], n_metrics: int,
             repeats: int, seed: int) -> list[dict]:
    cells = []
    for n_pairs in pairs:
        for n_rules in rules:
            cell = run_cell(n_pairs, n_rules, n_metrics, repeats, seed)
            print(format_cell(cell))
            cells.append(cell)
    return cells


def format_cell(cell: dict) -> str:
    return (
        f"  {cell['n_pairs']:>7} pairs x {cell['n_rules']:>3} rules "
        f"({cell['n_conditions']} conds, {cell['n_unique_conditions']} unique): "
        f"legacy {cell['legacy_seconds'] * 1000:8.1f}ms  "
        f"kernel {cell['kernel_seconds'] * 1000:7.1f}ms  "
        f"speedup {cell['speedup']:5.1f}x  "
        f"parity={'ok' if cell['parity'] and cell['packed_parity'] else 'FAIL'}"
    )


def write_report(cells: list[dict], output: Path, smoke: bool) -> dict:
    """Assemble and write the JSON report; returns the report dict."""
    target = next(
        (c for c in cells if (c["n_pairs"], c["n_rules"]) == TARGET_CELL), None
    )
    report = {
        "benchmark": "rule_engine",
        "mode": "smoke" if smoke else "full",
        "target_cell": {"n_pairs": TARGET_CELL[0], "n_rules": TARGET_CELL[1],
                        "target_speedup": TARGET_SPEEDUP,
                        "speedup": None if target is None else round(target["speedup"], 2)},
        "all_parity": all(c["parity"] and c["packed_parity"] for c in cells),
        "max_speedup": round(max(c["speedup"] for c in cells), 2),
        "cells": [
            {key: (round(value, 6) if isinstance(value, float) else value)
             for key, value in cell.items()}
            for cell in cells
        ],
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, nargs="+", default=None,
                        help=f"pair counts to measure (default {DEFAULT_PAIRS})")
    parser.add_argument("--rules", type=int, nargs="+", default=None,
                        help=f"rule counts to measure (default {DEFAULT_RULES})")
    parser.add_argument("--metrics", type=int, default=20,
                        help="metric-matrix columns (default 20)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per cell, best-of (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: small grid, assert parity (and that "
                             "the kernel is not slower than the legacy loop)")
    args = parser.parse_args(argv)

    pairs = tuple(args.pairs) if args.pairs else (SMOKE_PAIRS if args.smoke else DEFAULT_PAIRS)
    rules = tuple(args.rules) if args.rules else (SMOKE_RULES if args.smoke else DEFAULT_RULES)
    repeats = 3 if args.smoke and args.repeats == 5 else args.repeats

    print(f"rule-engine benchmark: pairs={pairs} rules={rules} metrics={args.metrics}")
    cells = run_grid(pairs, rules, args.metrics, repeats, args.seed)
    report = write_report(cells, args.output, smoke=args.smoke)

    if not report["all_parity"]:
        print("FAILURE: kernel membership diverges from the legacy per-rule loop")
        return 1
    if args.smoke:
        # CI sizes are too small for the full-grid speedup bar; just require
        # the kernel to win, and parity (asserted above) to hold everywhere.
        if report["max_speedup"] <= 1.0:
            print("SMOKE FAILURE: kernel is slower than the legacy loop")
            return 1
        print("smoke ok")
    elif report["target_cell"]["speedup"] is not None:
        status = "ok" if report["target_cell"]["speedup"] >= TARGET_SPEEDUP else "BELOW TARGET"
        print(f"target cell {TARGET_CELL}: {report['target_cell']['speedup']:.1f}x "
              f"(target {TARGET_SPEEDUP}x) {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
