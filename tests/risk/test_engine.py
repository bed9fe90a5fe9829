"""Tests for the vectorised rule-coverage engine (repro.risk.engine).

The central guarantee is parity: the compiled kernel must produce exactly the
membership the legacy per-rule Python loop produced, for every rule shape the
generated forest contains and for every degenerate input the scoring paths
can see (NaN metric values, empty rule sets, empty batches, single rows).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.risk._oracle import legacy_rule_matrix
from repro.risk.engine import PackedMembership, RuleKernel
from repro.risk.portfolio import aggregate_portfolio
from repro.risk.rules import Condition, RiskRule


def make_rule(conds: list[tuple[int, float, bool]], label: int = 1) -> RiskRule:
    return RiskRule(
        conditions=tuple(
            Condition(metric_index=i, metric_name=f"m{i}", threshold=t, is_leq=leq)
            for i, t, leq in conds
        ),
        label=label,
    )


@pytest.fixture
def mixed_rules() -> list[RiskRule]:
    """Single-condition, multi-condition, duplicate-condition and deep rules."""
    return [
        make_rule([(0, 0.5, True)]),
        make_rule([(0, 0.5, False)]),
        make_rule([(1, 0.25, True), (2, 0.75, False)]),
        make_rule([(0, 0.5, True), (1, 0.25, True), (2, 0.9, True), (3, 0.1, False)]),
        # shares its first condition with the rules above (dedup path)
        make_rule([(0, 0.5, True), (3, 0.6, False)]),
    ]


@pytest.fixture
def random_matrix() -> np.ndarray:
    rng = np.random.default_rng(7)
    matrix = rng.random((500, 5))
    matrix[rng.random((500, 5)) < 0.05] = np.nan
    return matrix


class TestKernelParity:
    def test_mixed_rule_shapes(self, mixed_rules, random_matrix):
        kernel = RuleKernel(mixed_rules)
        np.testing.assert_array_equal(
            kernel.membership(random_matrix), legacy_rule_matrix(mixed_rules, random_matrix)
        )

    def test_each_rule_individually(self, mixed_rules, random_matrix):
        # Per-rule parity localises a failure to one rule shape.
        for rule in mixed_rules:
            kernel = RuleKernel([rule])
            np.testing.assert_array_equal(
                kernel.membership(random_matrix),
                legacy_rule_matrix([rule], random_matrix),
                err_msg=rule.describe(),
            )

    def test_nan_satisfies_no_condition(self):
        rules = [make_rule([(0, 0.5, True)]), make_rule([(0, 0.5, False)])]
        matrix = np.array([[np.nan], [0.2], [0.8]])
        membership = RuleKernel(rules).membership(matrix)
        np.testing.assert_array_equal(membership, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(membership, legacy_rule_matrix(rules, matrix))

    def test_threshold_boundary_is_exact(self):
        # <= must include the threshold, > must exclude it — bit-exact.
        rules = [make_rule([(0, 0.5, True)]), make_rule([(0, 0.5, False)])]
        matrix = np.array([[0.5], [np.nextafter(0.5, 1.0)]])
        np.testing.assert_array_equal(
            RuleKernel(rules).membership(matrix), [[1.0, 0.0], [0.0, 1.0]]
        )

    def test_generated_forest_parity(self, prepared_ds):
        """Every rule shape the real generator produces, on real metric data."""
        features = prepared_ds.risk_features
        assert len(features.rules) > 0
        matrix = prepared_ds.test.features
        np.testing.assert_array_equal(
            features.rule_matrix(matrix), legacy_rule_matrix(features.rules, matrix)
        )

    def test_generated_forest_parity_with_nans(self, prepared_ds):
        features = prepared_ds.risk_features
        matrix = np.array(prepared_ds.test.features, dtype=float)
        rng = np.random.default_rng(11)
        matrix[rng.random(matrix.shape) < 0.1] = np.nan
        np.testing.assert_array_equal(
            features.rule_matrix(matrix), legacy_rule_matrix(features.rules, matrix)
        )

    def test_chunked_evaluation_matches_unchunked(self, mixed_rules, random_matrix):
        chunked = RuleKernel(mixed_rules, chunk_rows=7)
        whole = RuleKernel(mixed_rules, chunk_rows=10_000)
        np.testing.assert_array_equal(
            chunked.membership(random_matrix), whole.membership(random_matrix)
        )


class TestKernelEdgeCases:
    def test_empty_rule_set(self, random_matrix):
        kernel = RuleKernel([])
        membership = kernel.membership(random_matrix)
        assert membership.shape == (len(random_matrix), 0)
        np.testing.assert_array_equal(membership, legacy_rule_matrix([], random_matrix))

    def test_empty_batch(self, mixed_rules):
        membership = RuleKernel(mixed_rules).membership(np.zeros((0, 5)))
        assert membership.shape == (0, len(mixed_rules))

    def test_single_row(self, mixed_rules, random_matrix):
        row = random_matrix[:1]
        np.testing.assert_array_equal(
            RuleKernel(mixed_rules).membership(row), legacy_rule_matrix(mixed_rules, row)
        )

    def test_condition_free_rule_covers_everything(self, random_matrix):
        rules = [RiskRule(conditions=(), label=1), make_rule([(0, 0.5, True)])]
        membership = RuleKernel(rules).membership(random_matrix)
        np.testing.assert_array_equal(membership[:, 0], 1.0)
        np.testing.assert_array_equal(membership, legacy_rule_matrix(rules, random_matrix))

    def test_rejects_non_matrix_input(self, mixed_rules):
        with pytest.raises(ConfigurationError):
            RuleKernel(mixed_rules).membership(np.zeros(5))

    def test_rejects_bad_chunk_rows(self, mixed_rules):
        with pytest.raises(ConfigurationError):
            RuleKernel(mixed_rules, chunk_rows=0)

    def test_bool_dtype(self, mixed_rules, random_matrix):
        kernel = RuleKernel(mixed_rules)
        mask = kernel.membership_bool(random_matrix)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask.astype(float), kernel.membership(random_matrix))

    def test_condition_dedup(self, mixed_rules):
        kernel = RuleKernel(mixed_rules)
        assert kernel.n_unique_conditions < kernel.n_conditions


class TestPackedMembership:
    def test_round_trip(self, mixed_rules, random_matrix):
        kernel = RuleKernel(mixed_rules)
        packed = kernel.membership_packed(random_matrix)
        assert isinstance(packed, PackedMembership)
        assert packed.shape == (len(random_matrix), len(mixed_rules))
        assert len(packed) == len(random_matrix)
        assert packed.nbytes < kernel.membership(random_matrix).nbytes
        np.testing.assert_array_equal(
            packed.unpack(float), kernel.membership(random_matrix)
        )

    def test_empty_rules(self, random_matrix):
        packed = RuleKernel([]).membership_packed(random_matrix)
        assert packed.unpack(float).shape == (len(random_matrix), 0)

    def test_aggregate_portfolio_accepts_packed(self, mixed_rules, random_matrix):
        kernel = RuleKernel(mixed_rules)
        n_rules = len(mixed_rules)
        weights = np.linspace(0.5, 1.5, n_rules)
        means = np.linspace(0.1, 0.9, n_rules)
        stds = np.full(n_rules, 0.1)
        dense = aggregate_portfolio(kernel.membership(random_matrix), weights, means, stds)
        packed = aggregate_portfolio(kernel.membership_packed(random_matrix), weights, means, stds)
        np.testing.assert_array_equal(dense.means, packed.means)
        np.testing.assert_array_equal(dense.variances, packed.variances)

    def test_aggregate_portfolio_packed_chunking_is_exact(self, mixed_rules, random_matrix,
                                                          monkeypatch):
        # The packed path unpacks in bounded chunks; chunking must not change
        # a single bit of the aggregate.
        import repro.risk.portfolio as portfolio_module

        kernel = RuleKernel(mixed_rules)
        n_rules = len(mixed_rules)
        weights = np.linspace(0.5, 1.5, n_rules)
        means = np.linspace(0.1, 0.9, n_rules)
        stds = np.full(n_rules, 0.1)
        dense = aggregate_portfolio(kernel.membership(random_matrix), weights, means, stds)
        monkeypatch.setattr(portfolio_module, "_PACKED_CHUNK_ROWS", 17)
        packed = aggregate_portfolio(kernel.membership_packed(random_matrix), weights, means, stds)
        np.testing.assert_array_equal(dense.means, packed.means)
        np.testing.assert_array_equal(dense.variances, packed.variances)


class TestFeaturesKernelCache:
    def test_kernel_is_reused_across_calls(self, prepared_ds):
        features = prepared_ds.risk_features
        assert features.kernel is features.kernel

    def test_kernel_invalidated_when_rules_rebound(self, prepared_ds):
        features = prepared_ds.risk_features
        before = features.kernel
        features.rules = list(features.rules)
        after = features.kernel
        assert after is not before
        # restore the fixture's shared state
        features.invalidate_kernel()

    def test_rebound_equal_length_rules_change_membership(self):
        # Regression: keying the cache on id(rules) served a stale kernel when
        # CPython reused the freed list's id for an equal-length replacement.
        from repro.risk.feature_generation import GeneratedRiskFeatures

        features = GeneratedRiskFeatures(rules=[make_rule([(0, 0.5, True)])], vectorizer=None)
        matrix = np.array([[0.9]])
        assert features.rule_matrix(matrix)[0, 0] == 0.0
        features.rules = [make_rule([(0, 0.99, True)])]
        assert features.rule_matrix(matrix)[0, 0] == 1.0

    def test_explicit_invalidation(self, prepared_ds):
        features = prepared_ds.risk_features
        before = features.kernel
        features.invalidate_kernel()
        assert features.kernel is not before

    def test_state_round_trip_rebuilds_kernel(self, prepared_ds):
        from repro.risk.feature_generation import GeneratedRiskFeatures

        features = prepared_ds.risk_features
        features.kernel  # ensure the original has a live kernel
        restored = GeneratedRiskFeatures.from_state(features.to_state())
        matrix = prepared_ds.test.features
        np.testing.assert_array_equal(
            restored.rule_matrix(matrix), features.rule_matrix(matrix)
        )

    def test_membership_packed_flag(self, prepared_ds):
        features = prepared_ds.risk_features
        matrix = prepared_ds.test.features
        packed = features.membership(matrix, packed=True)
        assert isinstance(packed, PackedMembership)
        np.testing.assert_array_equal(packed.unpack(float), features.membership(matrix))
