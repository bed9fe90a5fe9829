"""Pure arithmetic of the benchmark: percentiles, load schedules, backlog tests.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` exercise these helpers without a fitted model.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a timing may be reported at, lowest first.  The list stops at
#: p95: a faster program takes more samples in a time-boxed run, and the
#: reported percentile must not climb with them.
PERCENTILES = (50.0, 75.0, 90.0, 95.0)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median lacks that support (fewer than 20 samples).
    """
    supported = [q for q in PERCENTILES if n * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9]
    return supported[-1] if supported else None


def summarize(values: Sequence[float]) -> dict:
    """Median plus the highest supported tail percentile, with the sample count.

    A sample too small for any supported percentile reports its maximum (q = 100).
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    q = tail_percentile(n) or 100.0
    return {"n": n, "p50": percentile(values, 50.0), "tail_q": q, "tail": percentile(values, q)}


# ------------------------------------------------------------------ open loop
def open_loop_schedule(rungs: Sequence[tuple[float, float]]) -> list[tuple[float, int]]:
    """Due times of an open-loop ladder: ``[(seconds from start, rung index), ...]``.

    Each rung ``(rate, duration)`` sends ``round(rate * duration)`` requests
    evenly spaced ``1 / rate`` apart, starting where the previous rung ended.
    The schedule is fixed in advance, so a slow server never slows the arrivals.
    """
    schedule: list[tuple[float, int]] = []
    start = 0.0
    for index, (rate, duration) in enumerate(rungs):
        if rate <= 0.0 or duration <= 0.0:
            raise ValueError(f"rung {index} needs a positive rate and duration")
        count = int(round(rate * duration))
        schedule.extend((start + k / rate, index) for k in range(count))
        start += duration
    return schedule


def backlog_growing(lateness: Sequence[float], interval: float) -> bool:
    """Whether a rung's send lateness grew: the queue gained two requests or more.

    ``lateness`` holds, in send order, how many seconds after its due time each
    request went out; ``interval`` is the rung's ``1 / rate``.  Below capacity
    lateness stays flat; above it, every request starts later than the last, so
    the median of the last quarter exceeds that of the first quarter by the
    accumulated queue.
    """
    if len(lateness) < 8:
        return False
    quarter = len(lateness) // 4
    first = statistics.median(lateness[:quarter])
    last = statistics.median(lateness[-quarter:])
    return last - first > 2.0 * interval


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the stability figure)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
