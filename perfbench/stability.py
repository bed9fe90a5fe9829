"""Run one workload over several seeds and print each metric's median and spread.

Usage, from the repository root::

    python3 perfbench/stability.py --workload triage_cold --seeds 0-9 --seconds 12

The spread is the interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), the figure a metric's ``bound`` in
``BENCHMARK.json`` is compared against; each bounded metric's line shows its
bound beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _bounds() -> dict[str, float]:
    path = HERE.parent / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {metric["name"]: metric["bound"]
            for metric in json.loads(path.read_text())["end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-4"))
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True,
                                   check=False)
        elapsed = time.perf_counter() - started
        if completed.returncode != 0:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return 1
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:  # the workload's own lines: "<workload>.<name> = v unit"
            if line.startswith(f"{args.workload}.") and " = " in line:
                name, rest = line.split(" = ", 1)
                values.setdefault("raw " + name.split(".", 1)[1], []).append(float(rest.split()[0]))
        print(f"seed {seed} ({elapsed:.0f}s): correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{name}={metric['value']:.4g}"
                         for name, metric in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = _bounds()
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) >= 2 else 0.0
        bound = f"  bound {bounds[name]:.2f}" if name in bounds else ""
        print(f"{name:36s} median {statistics.median(series):12.6g}  spread {spread:7.2%}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
