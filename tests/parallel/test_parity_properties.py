"""Seeded property-based parity suite: parallel scoring ≡ serial scoring.

The contract of :mod:`repro.parallel` is absolute: for ANY workload, ANY
worker count and ANY chunk size — including chunk size 1, uneven trailing
chunks and the empty source — multi-worker scoring must be **byte-identical**
to the serial path: same risk scores, same classifier outputs, same per-chunk
rankings, same portfolio aggregates, same pair order.  This suite generates
randomized workloads from a seeded RNG (plus Hypothesis-driven shapes, also
derandomized) and asserts exactly that.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.sources import InMemorySource
from repro.data.workload import Workload

#: Worker counts the issue pins for the parity grid.
WORKERS_GRID = (1, 2, 4)

#: Chunk sizes covering the degenerate single-pair chunk, a size that leaves
#: an uneven trailing chunk on every workload size used below, and a size
#: larger than most sources (single-chunk case).
CHUNK_SIZES = (1, 7, 64, 1000)


def make_random_workload(parallel_split, seed: int, size: int) -> Workload:
    """A randomized scoring workload: seeded resample of the held-out pairs."""
    rng = np.random.default_rng(seed)
    pool = parallel_split.test.pairs
    indices = rng.integers(0, len(pool), size=size)
    return Workload(
        f"random-{seed}-{size}",
        [pool[int(index)] for index in indices],
        parallel_split.test.left_table,
        parallel_split.test.right_table,
    )


def collect_reports(pipeline, workload, chunk_size: int, workers: int):
    """Reports of ``workers`` (a process pool when > 1) at ``chunk_size``."""
    return list(pipeline.analyse_batches(workload, batch_size=chunk_size, workers=workers))


def assert_reports_identical(expected, actual):
    """Byte-level equality of two report streams (scores, features, order)."""
    assert len(actual) == len(expected)
    for left, right in zip(expected, actual):
        assert [pair.pair_id for pair in left.pairs] == [pair.pair_id for pair in right.pairs]
        assert np.array_equal(left.machine_probabilities, right.machine_probabilities)
        assert np.array_equal(left.machine_labels, right.machine_labels)
        assert np.array_equal(left.risk_scores, right.risk_scores)
        assert np.array_equal(left.ranking, right.ranking)
        assert left.auroc == right.auroc
        assert left.explanations == right.explanations


class TestRandomizedParityGrid:
    """Seeded random workloads × workers × chunk sizes, vs the serial path."""

    @pytest.mark.parametrize("seed,size", [(0, 5), (1, 37), (2, 100), (3, 50)])
    @pytest.mark.parametrize("workers", WORKERS_GRID)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_process_pool_matches_serial(
        self, fitted_pipeline, parallel_split, seed, size, workers, chunk_size
    ):
        workload = make_random_workload(parallel_split, seed, size)
        serial = list(fitted_pipeline.analyse_batches(workload, batch_size=chunk_size))
        parallel = collect_reports(fitted_pipeline, workload, chunk_size, workers)
        assert_reports_identical(serial, parallel)

    def test_explanations_survive_the_pool(self, fitted_pipeline, parallel_split):
        workload = make_random_workload(parallel_split, seed=4, size=60)
        serial = list(fitted_pipeline.analyse_batches(workload, batch_size=25, explain_top=3))
        parallel = list(fitted_pipeline.analyse_batches(
            workload, batch_size=25, explain_top=3, workers=2
        ))
        assert any(report.explanations for report in serial)
        assert_reports_identical(serial, parallel)


class TestDegenerateShapes:
    def test_empty_source_yields_no_reports(self, fitted_pipeline):
        source = InMemorySource([], name="empty")
        for workers in WORKERS_GRID:
            reports = collect_reports(fitted_pipeline, source, 8, workers)
            assert reports == []

    def test_single_pair_source(self, fitted_pipeline, parallel_split):
        workload = make_random_workload(parallel_split, seed=5, size=1)
        serial = list(fitted_pipeline.analyse_batches(workload, batch_size=4))
        parallel = collect_reports(fitted_pipeline, workload, 4, 4)
        assert_reports_identical(serial, parallel)

    def test_uneven_trailing_chunk(self, fitted_pipeline, parallel_split):
        # 23 pairs at chunk size 5 → four full chunks and a trailing 3.
        workload = make_random_workload(parallel_split, seed=6, size=23)
        serial = list(fitted_pipeline.analyse_batches(workload, batch_size=5))
        assert [len(report.pairs) for report in serial] == [5, 5, 5, 5, 3]
        parallel = collect_reports(fitted_pipeline, workload, 5, 3)
        assert_reports_identical(serial, parallel)

    def test_sources_with_empty_chunks_are_skipped(self, fitted_pipeline, parallel_split):
        class GappySource(InMemorySource):
            """A source that (legally) interleaves empty chunks into the stream."""

            def iter_chunks(self, chunk_size=1024):
                for chunk in super().iter_chunks(chunk_size):
                    yield []
                    yield chunk
                yield []

        workload = make_random_workload(parallel_split, seed=7, size=20)
        serial = list(fitted_pipeline.analyse_batches(workload, batch_size=6))
        gappy = GappySource(workload.pairs, name="gappy")
        parallel = collect_reports(fitted_pipeline, gappy, 6, 2)
        assert_reports_identical(serial, parallel)


class TestAggregateParity:
    """Concatenated streams and portfolio aggregates, not just per-chunk views."""

    @pytest.mark.parametrize("workers,chunk_size", [(2, 9), (4, 1), (4, 33)])
    def test_concatenated_scores_match_eager_analyse(
        self, fitted_pipeline, parallel_split, workers, chunk_size
    ):
        workload = make_random_workload(parallel_split, seed=8, size=71)
        eager = fitted_pipeline.analyse(workload)
        reports = collect_reports(fitted_pipeline, workload, chunk_size, workers)
        assert np.array_equal(
            np.concatenate([report.risk_scores for report in reports]), eager.risk_scores
        )
        assert np.array_equal(
            np.concatenate([report.machine_probabilities for report in reports]),
            eager.machine_probabilities,
        )
        assert np.array_equal(
            np.concatenate([report.machine_labels for report in reports]),
            eager.machine_labels,
        )

    def test_portfolio_aggregates_match_eager(self, fitted_pipeline, parallel_split):
        # The per-pair portfolio distribution (the paper's Eq. 9 aggregate)
        # computed chunk by chunk must equal the eager one bit for bit — this
        # is the repro.numerics batch-invariance the engine builds on.
        workload = make_random_workload(parallel_split, seed=9, size=41)
        vectorizer = fitted_pipeline.vectorizer
        model = fitted_pipeline.risk_model
        matrix = vectorizer.transform(workload.pairs)
        probabilities, _ = fitted_pipeline.classify_matrix(matrix)
        eager = model.distribution(matrix, probabilities)

        means, variances = [], []
        for start in range(0, len(workload.pairs), 6):
            chunk_matrix = vectorizer.transform(workload.pairs[start:start + 6])
            chunk_probabilities, _ = fitted_pipeline.classify_matrix(chunk_matrix)
            chunk_distribution = model.distribution(chunk_matrix, chunk_probabilities)
            means.append(chunk_distribution.means)
            variances.append(chunk_distribution.variances)
        assert np.array_equal(np.concatenate(means), eager.means)
        assert np.array_equal(np.concatenate(variances), eager.variances)

    def test_risk_feature_membership_matches_eager(self, fitted_pipeline, parallel_split):
        workload = make_random_workload(parallel_split, seed=10, size=29)
        features = fitted_pipeline.risk_features
        matrix = fitted_pipeline.vectorizer.transform(workload.pairs)
        eager = features.rule_matrix(matrix)
        chunked = np.vstack([
            features.rule_matrix(
                fitted_pipeline.vectorizer.transform(workload.pairs[start:start + 4])
            )
            for start in range(0, len(workload.pairs), 4)
        ])
        assert np.array_equal(chunked, eager)


class TestHypothesisShapes:
    """Derandomized Hypothesis sweep over (size, chunk size, workers)."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        size=st.integers(min_value=0, max_value=48),
        chunk_size=st.integers(min_value=1, max_value=50),
        workers=st.sampled_from(WORKERS_GRID),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_any_shape_is_bit_identical(
        self, fitted_pipeline, parallel_split, size, chunk_size, workers, seed
    ):
        workload = make_random_workload(parallel_split, seed, size)
        serial = list(fitted_pipeline.analyse_batches(workload, batch_size=chunk_size))
        parallel = collect_reports(fitted_pipeline, workload, chunk_size, workers)
        assert_reports_identical(serial, parallel)
