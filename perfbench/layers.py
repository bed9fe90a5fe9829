"""Which program functions the benchmark wraps, and the per-layer metrics.

:func:`install_spans` wraps the public entry points of every layer with
:class:`~perfbench.spans.Tracer` spans (the traced run); :func:`install_counters`
installs only the corpus-index memo counter, which reads no clock, so an
untimed-overhead count of the memo share is available in every run.
:func:`layer_metrics` turns spans and counts into the ``per_layer`` metrics
of ``BENCHMARK.json``.
"""

from __future__ import annotations

from .spans import Tracer, coverage, layer_busy, layer_self, self_times

#: Registry metric short name -> kernel family reported by the traced run.
KERNEL_FAMILY = {
    "edit": "char_trio",
    "lcs": "char_trio",
    "jaro_winkler": "char_trio",
    "cosine_tfidf": "tfidf_cosine",
    "jaccard": "token_set",
    "overlap": "token_set",
    "dice": "token_set",
}
KERNEL_FAMILIES = ("char_trio", "tfidf_cosine", "token_set", "other")

#: Every per-layer metric: name -> unit (the ``per_layer`` list, in order).
PER_LAYER = {
    "blocking.busy_s": "s",
    "blocking.candidates": "count",
    "blocking.precision": "ratio",
    "vectorize.busy_s": "s",
    "vectorize.calls": "count",
    "vectorize.pairs_per_call": "pairs",
    "vectorize.kernel.char_trio_s": "s",
    "vectorize.kernel.tfidf_cosine_s": "s",
    "vectorize.kernel.token_set_s": "s",
    "vectorize.kernel.other_s": "s",
    "vectorize.kernel_value_share": "ratio",
    "classify.busy_s": "s",
    "risk.score_s": "s",
    "risk.explain_s": "s",
    "fit.vectorizer_s": "s",
    "fit.classifier_s": "s",
    "fit.risk_features_s": "s",
    "fit.risk_model_s": "s",
    "service.busy_s": "s",
    "service.self_s": "s",
    "service.cache_hit_rate": "ratio",
    "service.mean_batch": "pairs",
    "http.server_s": "s",
    "http.wire_s": "s",
    "coalesce.mean_fill": "pairs",
    "coalesce.linger_s": "s",
    "loadgen.late_ms": "ms",
    "online.decide_s": "s",
    "cluster.busy_s": "s",
    "journal.busy_s": "s",
    "online.pairs_per_record": "pairs",
    "online.merges": "count",
    "online.splits": "count",
    "online.escalations": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def _wrap_kernels(tracer: Tracer, timed: bool) -> None:
    """Count the value pairs each batch kernel is asked for and computes; optionally time it."""
    from repro.text.batch.interner import AttributeView

    def factory(original):
        def memoized_scores(view, metric, kernel, dedup, context):
            name = "kernel." + KERNEL_FAMILY.get(metric, "other")

            def counted_kernel(owner, left_ids, right_ids, kernel_context):
                tracer.count("kernel.computed", len(left_ids))
                if not timed:
                    return kernel(owner, left_ids, right_ids, kernel_context)
                with tracer.span(name):
                    return kernel(owner, left_ids, right_ids, kernel_context)

            tracer.count("kernel.requested", len(dedup.inverse))
            return original(view, metric, counted_kernel, dedup, context)

        return memoized_scores

    tracer.replace(AttributeView, "memoized_scores", factory)


def install_counters(tracer: Tracer) -> None:
    """Count value pairs requested from and computed by the batch kernels."""
    _wrap_kernels(tracer, timed=False)


class _TracedClusterStore:
    """A :class:`~repro.online.ClusterStore` whose public calls are spans.

    Wrapping the instance rather than the class keeps the store's own internal
    calls (``members`` calls ``find`` once per key) out of the trace.
    """

    def __init__(self, store, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer

    def __contains__(self, key) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    def __getattr__(self, attr):
        value = getattr(self._store, attr)
        if attr.startswith("_") or not callable(value):
            return value
        tracer = self._tracer

        def call(*args, **kwargs):
            with tracer.span("cluster"):
                return value(*args, **kwargs)

        self.__dict__[attr] = call
        return call


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions with spans (the traced run)."""
    from repro.blocking import BlockingPairSource
    from repro.blocking.index import InvertedIndex
    from repro.compose.staged import StagedPipeline
    from repro.features.vectorizer import PairVectorizer
    from repro.online import EventLog, OnlineResolver, record_key
    from repro.online import resolver as resolver_module
    from repro.risk.model import LearnRiskModel
    from repro.serve.service import RiskService

    tracer.wrap_generator(BlockingPairSource, "iter_chunks", "blocking")
    tracer.wrap(
        InvertedIndex, "candidates", "blocking",
        after=lambda result, *args: tracer.count("blocking.candidates", len(result)),
    )
    tracer.wrap(InvertedIndex, "add", "blocking")

    def count_vectorize(matrix, *args) -> None:
        tracer.count("vectorize.calls")
        tracer.count("vectorize.pairs", len(matrix))

    tracer.wrap(PairVectorizer, "transform", "vectorize", after=count_vectorize)

    _wrap_kernels(tracer, timed=True)
    tracer.wrap(StagedPipeline, "classify_matrix", "classify")
    tracer.wrap(LearnRiskModel, "score", "risk.score")
    tracer.wrap(LearnRiskModel, "explain_pairs", "risk.explain")
    for stage, name in (
        ("fit_vectorizer", "fit.vectorizer"),
        ("fit_classifier", "fit.classifier"),
        ("generate_risk_features", "fit.risk_features"),
        ("fit_risk_model", "fit.risk_model"),
    ):
        tracer.wrap(StagedPipeline, stage, name)

    tracer.wrap(RiskService, "score_pairs", "service")
    tracer.wrap(RiskService, "explain_pairs", "service")
    tracer.wrap_generator(RiskService, "score_source", "service")

    tracer.wrap(
        OnlineResolver, "add_record", "online",
        ident=lambda resolver, record: record_key(record),
    )
    tracer.wrap(EventLog, "append", "journal")
    tracer.replace(
        resolver_module, "replay_events",
        lambda original: lambda events: _TracedClusterStore(original(events), tracer),
    )


def memo_share(counts) -> float:
    """Share of requested kernel value pairs that a kernel actually computed."""
    requested = counts.get("kernel.requested", 0)
    return counts.get("kernel.computed", 0) / requested if requested else 0.0


def layer_metrics(tracer: Tracer, wall: float, supplied: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the tracer, then from ``supplied``.

    ``supplied`` carries what the spans cannot see: counters the program keeps
    itself (service cache, coalescer), the workload's decision mix, and the
    traced-minus-untraced overhead.  Layers a workload never enters read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    counts = tracer.counts
    calls = counts.get("vectorize.calls", 0)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "blocking.busy_s": layer_busy(spans, "blocking"),
        "blocking.candidates": float(counts.get("blocking.candidates", 0)),
        "vectorize.busy_s": layer_busy(spans, "vectorize"),
        "vectorize.calls": float(calls),
        "vectorize.pairs_per_call": counts.get("vectorize.pairs", 0) / calls if calls else 0.0,
        "vectorize.kernel_value_share": memo_share(counts),
        "classify.busy_s": layer_busy(spans, "classify"),
        "risk.score_s": layer_busy(spans, "risk.score"),
        "risk.explain_s": layer_busy(spans, "risk.explain"),
        "service.busy_s": layer_busy(spans, "service"),
        "service.self_s": layer_self(spans, "service", selfs),
        "online.decide_s": layer_self(spans, "online", selfs),
        "cluster.busy_s": layer_busy(spans, "cluster"),
        "journal.busy_s": layer_busy(spans, "journal"),
        "trace.coverage": coverage(selfs, wall),
    })
    for family in KERNEL_FAMILIES:
        metrics[f"vectorize.kernel.{family}_s"] = layer_busy(spans, f"kernel.{family}")
    for stage in ("vectorizer", "classifier", "risk_features", "risk_model"):
        metrics[f"fit.{stage}_s"] = layer_busy(spans, f"fit.{stage}")
    metrics.update(supplied)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return metrics
