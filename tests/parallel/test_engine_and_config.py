"""Unit tests of ExecutionConfig, the engine lifecycle, and stack wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compose import PipelineSpec, build_pipeline
from repro.data.sources import InMemorySource
from repro.exceptions import ConfigurationError, NotFittedError
from repro.parallel import ExecutionConfig, ParallelScoringEngine
from repro.serve import RiskService, load_staged_pipeline, save_pipeline


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.workers == 1
        assert config.chunk_size is None
        assert config.start_method is None
        assert config.window == 2
        assert ExecutionConfig(workers=3).window == 6

    def test_exactly_three_fields(self):
        assert list(ExecutionConfig().to_dict()) == ["workers", "chunk_size", "start_method"]

    @pytest.mark.parametrize("values", [
        {"workers": 0},
        {"chunk_size": 0},
        {"start_method": "teleport"},
    ])
    def test_validation(self, values):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(**values)

    @pytest.mark.parametrize("values", [
        {"workers": 2.7},
        {"workers": 2.0},
        {"workers": "3"},
        {"workers": True},
        {"workers": None},
        {"chunk_size": 3.9},
        {"chunk_size": "64"},
        {"chunk_size": False},
        {"workers": 2.7, "chunk_size": 3.9},
    ])
    def test_non_integer_counts_are_rejected_not_coerced(self, values):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            ExecutionConfig.from_dict(values)

    @pytest.mark.parametrize("key,value", [
        ("backend", "auto"),
        ("min_process_pairs", 4096),
        ("max_pending", 2),
    ])
    def test_removed_keys_are_rejected_by_name(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            ExecutionConfig.from_dict({"workers": 2, key: value})
        with pytest.raises(ConfigurationError, match=key):
            PipelineSpec.from_dict({"execution": {"workers": 2, key: value}})

    def test_round_trip(self):
        config = ExecutionConfig(workers=4, chunk_size=256, start_method="spawn")
        assert ExecutionConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown execution config keys"):
            ExecutionConfig.from_dict({"workers": 2, "threads": 8})

    def test_coerce(self):
        assert ExecutionConfig.coerce(None) is None
        config = ExecutionConfig(workers=2)
        assert ExecutionConfig.coerce(config) is config
        assert ExecutionConfig.coerce({"workers": 2}) == config
        with pytest.raises(ConfigurationError):
            ExecutionConfig.coerce(3)

    def test_with_workers(self):
        config = ExecutionConfig(workers=2, start_method="spawn")
        assert config.with_workers(None) is config
        assert config.with_workers(2) is config
        bumped = config.with_workers(8)
        assert bumped.workers == 8 and bumped.start_method == "spawn"

    def test_resolve_chunk_size(self):
        assert ExecutionConfig().resolve_chunk_size(512) == 512
        assert ExecutionConfig(chunk_size=64).resolve_chunk_size(512) == 64


class TestSpecIntegration:
    def test_spec_round_trips_execution(self):
        spec = PipelineSpec(execution={"workers": 4, "chunk_size": 128})
        values = spec.to_dict()
        assert values["execution"]["workers"] == 4
        restored = PipelineSpec.from_dict(values)
        assert restored.execution == spec.execution
        assert PipelineSpec.from_json(spec.to_json()).execution == spec.execution

    def test_spec_omits_execution_when_unset(self):
        assert "execution" not in PipelineSpec().to_dict()

    def test_build_pipeline_carries_execution(self):
        pipeline = build_pipeline(PipelineSpec(execution={"workers": 3}))
        assert pipeline.execution == ExecutionConfig(workers=3)

    def test_execution_survives_save_load(self, fitted_pipeline, tmp_path):
        from repro.serve import load_pipeline

        fitted_pipeline.spec.execution = ExecutionConfig(workers=2, chunk_size=64)
        try:
            directory = save_pipeline(fitted_pipeline, tmp_path / "model")
            loaded = load_staged_pipeline(directory)
            assert loaded.execution == ExecutionConfig(workers=2, chunk_size=64)
            assert loaded.spec.execution == fitted_pipeline.spec.execution
            # The legacy facade loader (what `load_pipeline` and the CLI use)
            # rebinds the saved spec after construction; the execution default
            # must be re-derived with it, not left at the constructor's None.
            facade = load_pipeline(directory)
            assert facade.execution == ExecutionConfig(workers=2, chunk_size=64)
        finally:
            fitted_pipeline.spec.execution = None
            fitted_pipeline.execution = None

    @pytest.mark.parametrize("key,value", [
        ("backend", "thread"),
        ("min_process_pairs", 4096),
        ("max_pending", 2),
    ])
    def test_saved_model_with_removed_key_fails_to_load(
        self, fitted_pipeline, tmp_path, key, value
    ):
        from repro.serve import load_pipeline
        from repro.serve.persistence import save_state

        state = fitted_pipeline.to_state()
        state["spec"]["execution"] = {"workers": 2, key: value}
        directory = save_state(state, tmp_path / "model")
        with pytest.raises(ConfigurationError, match=key):
            load_staged_pipeline(directory)
        with pytest.raises(ConfigurationError, match=key):
            load_pipeline(directory)


class TestEngineLifecycle:
    def test_requires_fitted_pipeline(self):
        with pytest.raises(NotFittedError):
            ParallelScoringEngine(build_pipeline(), ExecutionConfig(workers=2))

    def test_closed_engine_rejects_new_work(self, fitted_pipeline, parallel_split):
        engine = ParallelScoringEngine(fitted_pipeline, ExecutionConfig(workers=2))
        engine.close()
        engine.close()  # idempotent
        chunks = [parallel_split.test.pairs[:3]]
        with pytest.raises(ConfigurationError, match="closed"):
            list(engine.map_chunks(chunks))

    def test_serial_resolution_uses_parent_pipeline(self, fitted_pipeline, parallel_split):
        # workers=1 never builds a pool.
        engine = ParallelScoringEngine(fitted_pipeline, ExecutionConfig(workers=1))
        with engine:
            results = list(engine.map_chunks([parallel_split.test.pairs[:4]]))
        assert engine._executor is None
        assert len(results) == 1 and len(results[0][1]) == 4

    def test_worker_errors_propagate(self, fitted_pipeline):
        engine = ParallelScoringEngine(fitted_pipeline, ExecutionConfig(workers=2))
        with engine, pytest.raises(AttributeError):
            # A poisoned chunk: scoring ints instead of record pairs is a
            # worker-side failure that must surface to the consumer (at the
            # failed chunk's position), not hang or vanish.
            list(engine.map_chunks([[0, 1, 2]]))

    def test_results_arrive_in_source_order(self, fitted_pipeline, parallel_split):
        pairs = parallel_split.test.pairs[:30]
        chunks = [[pair] for pair in pairs]  # 30 single-pair chunks, 4 workers
        engine = ParallelScoringEngine(fitted_pipeline, ExecutionConfig(workers=4))
        with engine:
            ordered = [chunk[0].pair_id for chunk, _ in engine.map_chunks(chunks)]
        assert ordered == [pair.pair_id for pair in pairs]

    def test_abandoned_stream_leaves_the_pool_usable(self, fitted_pipeline, parallel_split):
        # A consumer that stops early closes the stream with chunks still in
        # flight; their futures are cancelled and the next stream on the same
        # warmed pool gets exactly its own results.
        chunks = [[pair] for pair in parallel_split.test.pairs[:12]]
        with ParallelScoringEngine(fitted_pipeline, ExecutionConfig(workers=2)) as engine:
            stream = engine.map_chunks(chunks)
            first_chunk, _ = next(stream)
            stream.close()
            assert first_chunk == chunks[0]
            again = [chunk for chunk, _ in engine.map_chunks(chunks[:3])]
        assert again == chunks[:3]

    def test_pool_kind_depends_on_workers_alone(self, fitted_pipeline, parallel_split):
        # workers=2 on a tiny 10-pair stream still builds a process pool (no
        # size heuristic); workers=1 builds no pool at all.  Same numbers.
        from concurrent.futures import ProcessPoolExecutor

        chunks = [parallel_split.test.pairs[:6], parallel_split.test.pairs[6:10]]
        with ParallelScoringEngine(fitted_pipeline, ExecutionConfig(workers=2)) as engine:
            pooled = [scores.risk_scores for _, scores in engine.map_chunks(chunks)]
            assert isinstance(engine._executor, ProcessPoolExecutor)
        with ParallelScoringEngine(fitted_pipeline, ExecutionConfig(workers=1)) as engine:
            serial = [scores.risk_scores for _, scores in engine.map_chunks(chunks)]
            assert engine._executor is None
        assert len(pooled) == len(serial) == 2
        for left, right in zip(pooled, serial):
            assert np.array_equal(left, right)

    def test_engine_reusable_across_map_calls(self, fitted_pipeline, parallel_split):
        chunks = [parallel_split.test.pairs[:5], parallel_split.test.pairs[5:9]]
        with ParallelScoringEngine(fitted_pipeline, ExecutionConfig(workers=2)) as engine:
            first = [scores.risk_scores for _, scores in engine.map_chunks(chunks)]
            executor = engine._executor
            second = [scores.risk_scores for _, scores in engine.map_chunks(chunks)]
            assert engine._executor is executor  # warmed pool kept
        for left, right in zip(first, second):
            assert np.array_equal(left, right)


class TestServiceIntegration:
    def test_score_source_parallel_matches_serial(self, fitted_pipeline, parallel_split):
        source = InMemorySource(parallel_split.test.pairs[:64], name="svc")
        service = RiskService(fitted_pipeline, max_batch_size=16, cache_size=0)
        serial = list(service.score_source(source, chunk_size=16))
        parallel = list(service.score_source(
            source, chunk_size=16, workers=2,
            execution=ExecutionConfig(workers=2),
        ))
        assert [scored.pair.pair_id for scored in parallel] == \
            [scored.pair.pair_id for scored in serial]
        assert [scored.risk_score for scored in parallel] == \
            [scored.risk_score for scored in serial]
        assert [scored.probability for scored in parallel] == \
            [scored.probability for scored in serial]
        assert [scored.machine_label for scored in parallel] == \
            [scored.machine_label for scored in serial]

    def test_score_workload_parallel_matches_serial(self, fitted_pipeline, parallel_split):
        workload = parallel_split.test
        service = RiskService(fitted_pipeline, max_batch_size=32, cache_size=0)
        serial = service.score_workload(workload)
        parallel = service.score_workload(
            workload, execution=ExecutionConfig(workers=2)
        )
        assert [scored.risk_score for scored in parallel] == \
            [scored.risk_score for scored in serial]

    def test_parallel_pass_updates_stats(self, fitted_pipeline, parallel_split):
        source = InMemorySource(parallel_split.test.pairs[:20], name="stats")
        service = RiskService(fitted_pipeline, max_batch_size=8, cache_size=4096)
        list(service.score_source(
            source, chunk_size=8, workers=2,
            execution=ExecutionConfig(workers=2),
        ))
        stats = service.stats.snapshot()
        assert stats["pairs_scored"] == 20.0
        assert stats["batches"] == 3.0
        # Workers vectorise out of process: the parent cache is never
        # consulted, so the pairs count as bypassed — not as misses, which
        # would dilute the hit rate of lookups the cache actually served.
        assert stats["cache_hits"] == 0.0
        assert stats["cache_misses"] == 0.0
        assert stats["cache_bypassed"] == 20.0

    def test_parallel_engine_is_reused_across_passes(self, fitted_pipeline, parallel_split):
        source = InMemorySource(parallel_split.test.pairs[:12], name="reuse")
        config = ExecutionConfig(workers=2)
        with RiskService(fitted_pipeline, max_batch_size=4, cache_size=0) as service:
            list(service.score_source(source, chunk_size=4, execution=config))
            first_engine = service._engines[config]
            list(service.score_source(source, chunk_size=4, execution=config))
            assert service._engines[config] is first_engine  # warmed pool kept
            # A different config gets its own engine — the first one stays
            # alive, so a concurrent stream on it could never be torn down.
            other = ExecutionConfig(workers=3)
            list(service.score_source(source, chunk_size=4, execution=other))
            assert service._engines[config] is first_engine
            assert service._engines[other] is not first_engine
        assert service._engines == {}  # context exit closed them
        service.close()  # idempotent

    def test_interleaved_streams_with_different_configs(self, fitted_pipeline, parallel_split):
        # Two concurrently-open streams with different configs: starting the
        # second must not kill the first mid-iteration.
        source = InMemorySource(parallel_split.test.pairs[:20], name="interleave")
        service = RiskService(fitted_pipeline, max_batch_size=4, cache_size=0)
        serial = [s.risk_score for s in service.score_source(source, chunk_size=4)]
        try:
            stream_a = service.score_source(
                source, chunk_size=4, execution=ExecutionConfig(workers=2)
            )
            collected_a = [next(stream_a).risk_score for _ in range(6)]
            stream_b = service.score_source(
                source, chunk_size=4, execution=ExecutionConfig(workers=3)
            )
            collected_b = [s.risk_score for s in stream_b]
            collected_a += [s.risk_score for s in stream_a]
            assert collected_a == serial
            assert collected_b == serial
        finally:
            service.close()

    def test_lazy_source_backed_view_is_never_materialised(
        self, fitted_pipeline, parallel_split
    ):
        from repro.data.workload import Workload

        class NoMaterialize(InMemorySource):
            """Unknown length; materialisation is a contract violation."""

            @property
            def length(self):
                return None

            def materialize(self, name=None):
                raise AssertionError("streaming path must never materialise the source")

        source = NoMaterialize(parallel_split.test.pairs[:10], name="lazy")
        view = Workload.from_source(source)
        reports = list(fitted_pipeline.analyse_batches(
            view, batch_size=4, workers=2,
            execution=ExecutionConfig(workers=2),
        ))
        assert sum(len(report.pairs) for report in reports) == 10
        assert not view.is_materialized
        service = RiskService(fitted_pipeline, max_batch_size=4, cache_size=0)
        scored = list(service.score_source(
            view, chunk_size=4, execution=ExecutionConfig(workers=2)
        ))
        assert len(scored) == 10
        assert not view.is_materialized

    def test_chunk_size_default_comes_from_execution_config(
        self, fitted_pipeline, parallel_split
    ):
        source = InMemorySource(parallel_split.test.pairs[:10], name="cfg")
        service = RiskService(fitted_pipeline, max_batch_size=256, cache_size=0)
        config = ExecutionConfig(workers=2, chunk_size=4)
        list(service.score_source(source, execution=config))
        assert service.stats.batches == 3  # 4 + 4 + 2, not one 10-pair batch


class TestAnalyseBatchesWiring:
    def test_batch_size_none_uses_execution_chunk_size(self, fitted_pipeline, parallel_split):
        config = ExecutionConfig(workers=1, chunk_size=6)
        reports = list(fitted_pipeline.analyse_batches(
            parallel_split.test, execution=config
        ))
        assert all(len(report.pairs) == 6 for report in reports[:-1])
        assert 0 < len(reports[-1].pairs) <= 6

    def test_invalid_batch_size_rejected(self, fitted_pipeline, parallel_split):
        with pytest.raises(ConfigurationError):
            list(fitted_pipeline.analyse_batches(parallel_split.test, batch_size=0))

    def test_spec_execution_is_the_default(self, parallel_split):
        values = {
            "classifier": {"kind": "logistic", "params": {"epochs": 25}},
            "risk_features": {
                "kind": "onesided_tree",
                "params": {"tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 24}},
            },
            "training": {"epochs": 30},
            "seed": 0,
            "execution": {"workers": 2, "chunk_size": 5},
        }
        pipeline = build_pipeline(PipelineSpec.from_dict(values))
        pipeline.fit(parallel_split.train, parallel_split.validation)
        serial = list(pipeline.analyse_batches(parallel_split.test, workers=1))
        spec_driven = list(pipeline.analyse_batches(parallel_split.test))
        assert [len(report.pairs) for report in spec_driven] == \
            [len(report.pairs) for report in serial]
        for left, right in zip(serial, spec_driven):
            assert np.array_equal(left.risk_scores, right.risk_scores)
