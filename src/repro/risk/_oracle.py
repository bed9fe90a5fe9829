"""Reference implementations kept only as parity oracles (not public API).

:func:`legacy_rule_matrix` is the per-rule Python loop that computed rule
membership before :class:`~repro.risk.engine.RuleKernel` existed.  Tests
assert the kernel is bit-identical to it, and
``benchmarks/bench_rule_engine.py`` measures the kernel's speedup against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .rules import RiskRule


def legacy_rule_matrix(rules: Sequence[RiskRule], metric_matrix: np.ndarray) -> np.ndarray:
    """The pre-kernel per-rule loop: a float ``(n_pairs, n_rules)`` membership matrix."""
    metric_matrix = np.asarray(metric_matrix, dtype=float)
    if not rules:
        return np.zeros((len(metric_matrix), 0), dtype=float)
    columns = [rule.coverage(metric_matrix).astype(float) for rule in rules]
    return np.column_stack(columns)
