"""The in-process workloads: ``triage_cold`` and ``online_resolve``.

Each workload is a *pass* function run by :func:`measure`: untraced for the
timed run, or — for ``--trace 1`` — once untraced and once traced over exactly
the same units of work, so the difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import statistics
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import fixture, hostspeed
from .layers import install_counters, install_spans, layer_metrics, memo_share
from .spans import Tracer
from .stats import summarize

#: Every end-to-end metric (the ``end_to_end`` list), with its unit.  Each
#: workload fills each one; README.md gives the per-workload meaning.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fit_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "risk_auroc": "ratio",
}

#: Times the workload's set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Host-speed probes before, between and after the set-ups.
SETUP_PROBES = 16

#: Base entities per held-out triage wave (about 1800 records, 20-24k blocked
#: pairs), so a wave's index-build stall stays in its first chunk, beyond p95.
TRIAGE_ENTITIES = 600
#: Waves one fresh service streams in an epoch.  The corpus index grows with
#: every wave it sees, so a run repeats equal epochs rather than streaming
#: longer: a faster program must not pay for a longer history, nor look bigger.
TRIAGE_EPOCH_WAVES = 2
#: Pairs per streamed chunk (the service's micro-batch); one latency sample each.
TRIAGE_CHUNK = 256
#: Every n-th chunk is re-scored through ``StagedPipeline.score_chunk``.
TRIAGE_CHECK_EVERY = 8
#: Epochs every run completes.  One epoch gives about 170 chunk samples, too
#: few for a p95, so a host slow enough to finish one epoch in the seconds
#: would otherwise report a lower tail percentile than a fast one.
TRIAGE_MIN_EPOCHS = 2

#: One online episode: a fresh resolver fed one wave of this many base entities
#: (about 90 records and 1300 decisions).  Many small episodes vary less from
#: seed to seed than a few large ones for the same work.
ONLINE_ENTITIES = 30
#: Episodes every run completes; ``risk_auroc`` covers exactly these.
QUALITY_EPISODES = 3


@dataclass
class Context:
    """What every workload gets: the run's arguments and the fitted fixture."""

    seed: int
    seconds: float
    trace: bool
    root: Path
    workdir: Path
    model_dir: Path
    fit_seconds: list[float]  # calibrated seconds of each timed fit (none when traced)
    fit_wall_seconds: list[float]  # the same, as wall seconds
    fit_layers: dict[str, float]


@dataclass
class Outcome:
    """A workload's results, before printing."""

    metrics: dict[str, float]  # the BENCHMARK.json metrics (end_to_end or per_layer)
    detail: dict[str, tuple[float, str]]  # the workload's own metric names, with units
    info: dict
    attempted: int
    failed: int
    digest: str
    tracer: Tracer | None = None  # the traced run's spans, written out by run.py


@dataclass
class PassResult:
    wall: float  # seconds on the clock
    speed: hostspeed.HostSpeed  # the probes taken between the pass's units
    units: int
    data: dict

    @property
    def scaled(self) -> float:
        """The wall seconds calibrated to the reference host speed."""
        return self.wall * self.speed.factor


def timed_setups(setup: Callable[[], object]) -> tuple[float, float]:
    """Median calibrated and median wall seconds of :data:`SETUP_REPEATS` set-ups."""
    speed = hostspeed.HostSpeed()
    wall = []
    for _ in range(SETUP_REPEATS):
        speed.probe(SETUP_PROBES)
        started = time.perf_counter()
        setup()
        wall.append(time.perf_counter() - started)
    speed.probe(SETUP_PROBES)
    return statistics.median(wall) * speed.factor, statistics.median(wall)


def measure(ctx: Context, run_pass: Callable[..., PassResult]) -> tuple[PassResult, Tracer, float]:
    """The timed pass, or the untraced + traced pair of a ``--trace 1`` run.

    Returns the pass whose outputs are checked and reported, its tracer and
    the tracing overhead in seconds (0 for an untraced run).
    """
    if not ctx.trace:
        tracer = Tracer()
        install_counters(tracer)
        try:
            return run_pass(budget=ctx.seconds, tracer=tracer), tracer, 0.0
        finally:
            tracer.restore()
    plain = run_pass(budget=ctx.seconds / 2.0)
    tracer = Tracer()
    install_spans(tracer)
    try:
        traced = run_pass(units=plain.units, tracer=tracer)
    finally:
        tracer.restore()
    return traced, tracer, traced.scaled - plain.scaled


def wall_detail(ctx: Context, setup_wall_s: float) -> dict[str, tuple[float, str]]:
    """The uncalibrated set-up and fit seconds, as the workload's own lines."""
    detail = {"setup_wall_s": (setup_wall_s, "s")}
    if ctx.fit_wall_seconds:  # a traced run times no fit
        detail["fit_wall_s"] = (min(ctx.fit_wall_seconds), "s")
    return detail


def _off_trace(tracer: Tracer | None):
    """Keep an output check's own calls out of the run's spans and counts."""
    return tracer.excluded() if tracer is not None else contextlib.nullcontext()


def _done(wall: float, units: int, budget: float | None, target: int | None) -> bool:
    if target is not None:
        return units >= target
    return wall >= budget


def _load_service(ctx: Context, cache_size: int):
    from repro.serve import RiskService, load_pipeline

    pipeline = load_pipeline(ctx.model_dir)
    pipeline.warm_kernel()
    return RiskService(pipeline, cache_size=cache_size)


# ------------------------------------------------------------------ triage_cold
def triage_cold(ctx: Context) -> Outcome:
    """Block held-out waves and score every candidate once, serially; rank by risk."""
    import numpy as np
    from repro.blocking import BlockingPairSource, InvertedIndexBlocker, TableCorpus
    from repro.serve import load_staged_pipeline

    # Every pair is distinct, so the LRU vector cache is bypassed (size 0).
    setup_s, setup_wall_s = timed_setups(lambda: _load_service(ctx, cache_size=0))
    pipeline = load_staged_pipeline(ctx.model_dir)  # the reference the checks compare with

    def check_wave(acc: dict, wave, scored: list, ranking, first: bool) -> None:
        """Off the clock: parity with ``score_chunk``, distinctness, quality inputs."""
        acc["records"] += wave.n_records
        repeated = len(scored) - len({one.pair.pair_id for one in scored})
        acc["repeated"] += repeated  # a repeated pair breaks the cold premise
        acc["failed"] += repeated
        acc["pairs"] += len(scored)
        acc["emitted_matches"] += sum(one.pair.ground_truth for one in scored)
        if first:  # the quality figures cover the first epoch: fixed work per seed
            acc["first_matches"] += len(wave.matches)
            for one in scored:
                acc["truths"].append(one.pair.ground_truth)
                acc["labels"].append(one.machine_label)
                acc["risks"].append(one.risk_score)
        digest = acc["digest"]
        for one in scored:
            digest.update(f"{one.pair.pair_id}|{one.probability!r}|{one.risk_score!r}\n".encode())
        digest.update(ranking.tobytes())
        for start in range(0, len(scored), TRIAGE_CHUNK * TRIAGE_CHECK_EVERY):
            chunk = scored[start:start + TRIAGE_CHUNK]
            reference = pipeline.score_chunk([one.pair for one in chunk])
            acc["checked"] += len(chunk)
            for position, one in enumerate(chunk):
                if (one.probability != float(reference.probabilities[position])
                        or one.machine_label != int(reference.machine_labels[position])
                        or one.risk_score != float(reference.risk_scores[position])):
                    acc["failed"] += 1

    def run_epoch(acc: dict, epoch: int, tracer, speed) -> float:
        """Stream one epoch's waves through a fresh service; the seconds on the clock.

        Each chunk is timed on its own, so the host-speed probes ``speed``
        takes between chunks stay off the clock.
        """
        service = _load_service(ctx, cache_size=0)
        waves = fixture.corpus(
            ctx.seed + 1 + epoch * TRIAGE_EPOCH_WAVES, f"triage{epoch}",
            TRIAGE_ENTITIES, TRIAGE_EPOCH_WAVES,
        ).waves()
        wall = 0.0
        for number, wave in enumerate(waves):  # each wave is generated off the clock
            source = BlockingPairSource(
                TableCorpus(wave.left, wave.right, wave.matches, name=f"triage{epoch}.{number}"),
                [InvertedIndexBlocker(fixture.BLOCK_ATTRIBUTES, min_shared=fixture.MIN_SHARED)],
                ensure_matches=False,
            )
            if tracer is not None:
                tracer.root_ident = f"epoch{epoch}.wave{number}"
            scored = []
            last = time.perf_counter()
            for index, one in enumerate(service.score_source(source), start=1):
                scored.append(one)
                if index % TRIAGE_CHUNK == 0:
                    seconds = time.perf_counter() - last
                    wall += seconds
                    acc["chunk_seconds"].append(seconds)
                    speed.tick(seconds)
                    last = time.perf_counter()
            ranking = np.argsort(-np.array([one.risk_score for one in scored]), kind="stable")
            seconds = time.perf_counter() - last  # the last, partial chunk and the ranking
            wall += seconds
            speed.tick(seconds)
            with _off_trace(tracer):
                check_wave(acc, wave, scored, ranking, first=epoch == 0)
        snapshot = service.stats.snapshot()
        for name in ("cache_hits", "cache_misses", "pairs_scored", "batches"):
            acc[name] += snapshot[name]
        return wall

    def run_pass(budget=None, units=None, tracer=None) -> PassResult:
        acc = {"chunk_seconds": [], "truths": array("b"), "labels": array("b"),
               "risks": array("d"), "digest": hashlib.sha256(), "peak_rss_mb": 0.0}
        for name in ("records", "pairs", "emitted_matches", "first_matches",
                     "checked", "failed", "repeated", "cache_hits", "cache_misses",
                     "pairs_scored", "batches"):
            acc[name] = 0
        wall, count = 0.0, 0
        speed = hostspeed.HostSpeed()
        speed.probe()
        fixture.reset_peak_rss()
        while count < TRIAGE_MIN_EPOCHS or not _done(wall, count, budget, units):
            wall += run_epoch(acc, count, tracer, speed)
            count += 1
            if count == 1:
                acc["peak_rss_mb"] = fixture.peak_rss_mb()
        return PassResult(wall, speed, count, acc)

    result, tracer, overhead = measure(ctx, run_pass)
    acc = result.data
    pairs = acc["pairs"]
    auroc = fixture.risk_auroc(acc["labels"], acc["truths"], acc["risks"])
    chunks = summarize(acc["chunk_seconds"])
    factor = result.speed.factor
    lookups = acc["cache_hits"] + acc["cache_misses"]
    info = {
        "entities_per_wave": TRIAGE_ENTITIES,
        "waves_per_epoch": TRIAGE_EPOCH_WAVES,
        "epochs": result.units,
        "records": acc["records"],
        "pairs": pairs,
        "distinct_pairs": pairs - acc["repeated"],
        "pairs_checked_against_score_chunk": acc["checked"],
        "memory_read_after_epochs": 1,
        "quality_read_over_epochs": 1,
        "service_cache_hits": acc["cache_hits"],
        "corpus_index_memo_share": 1.0 - memo_share(tracer.counts),
        "chunk_latency_samples": chunks["n"],
        **result.speed.info(),
    }
    detail = {
        "pairs_per_s": (pairs / result.wall, "pairs/s"),
        "risk_auroc": (auroc, "ratio"),
        "blocking_recall": (sum(acc["truths"]) / acc["first_matches"], "ratio"),
        "chunk_p50_ms": (chunks["p50"] * 1e3, "ms"),
        f"chunk_p{chunks['tail_q']:g}_ms": (chunks["tail"] * 1e3, "ms"),
        **wall_detail(ctx, setup_wall_s),
    }
    if ctx.trace:
        metrics = layer_metrics(tracer, result.wall, {
            **ctx.fit_layers,
            "blocking.precision": acc["emitted_matches"] / pairs,
            "service.cache_hit_rate": acc["cache_hits"] / lookups if lookups else 0.0,
            "service.mean_batch": acc["pairs_scored"] / acc["batches"],
            "trace.overhead_s": overhead,
        })
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": acc["peak_rss_mb"],
            "fit_s": min(ctx.fit_seconds),
            "throughput_per_s": pairs / result.scaled,
            "latency_p50_ms": chunks["p50"] * 1e3 * factor,
            "latency_tail_ms": chunks["tail"] * 1e3 * factor,
            "risk_auroc": auroc,
        }
    return Outcome(metrics, detail, info, pairs, acc["failed"], acc["digest"].hexdigest(),
                   tracer if ctx.trace else None)


# --------------------------------------------------------------- online_resolve
def online_resolve(ctx: Context) -> Outcome:
    """Feed fresh multi-record episodes through an audited ``OnlineResolver``."""
    from repro.online import EventLog, OnlineResolver, ResolutionPolicy, replay_events

    # The resolver's defaults: explanations on, a 4096-entry service cache.
    policy = ResolutionPolicy(attributes=fixture.BLOCK_ATTRIBUTES, min_shared=fixture.MIN_SHARED)
    log_paths = (ctx.workdir / f"events-{n}.jsonl" for n in itertools.count())

    def setup():
        return OnlineResolver(
            _load_service(ctx, cache_size=4096), policy, event_log=EventLog(next(log_paths))
        )

    setup_s, setup_wall_s = timed_setups(setup)

    def check_episode(acc: dict, resolver, records: list, matches: set, quality: bool) -> None:
        """Off the clock: replay identity of the live and the on-disk log; the decision mix."""
        live = resolver.state_dict()
        on_disk = EventLog(resolver.log.path).events()
        if (replay_events(resolver.log.events()).to_dict() != live
                or replay_events(on_disk).to_dict() != live
                or len(on_disk) != len(resolver.log)):
            acc["failed"] += len(records)
        acc["records"] += len(records)
        acc["events"] += len(on_disk)
        acc["log_bytes"] += resolver.log.path.stat().st_size
        acc["digest"].update(resolver.log.path.read_bytes())
        service = resolver.service.stats.snapshot()
        for name in ("cache_hits", "cache_misses", "pairs_scored", "batches"):
            acc[name] += service[name]
        for event in on_disk:
            acc[event.decision] += 1
            truth = int(frozenset((event.left_key, event.right_key)) in matches)
            acc["event_matches"] += truth
            if quality:  # the quality figure covers fixed work per seed
                acc["labels"].append(event.machine_label)
                acc["truths"].append(truth)
                acc["risks"].append(event.risk_score)
        resolver.log.path.unlink()

    def run_pass(budget=None, units=None, tracer=None) -> PassResult:
        acc = {"latencies": [], "peak_rss_mb": 0.0, "truths": array("b"), "labels": array("b"), "risks": array("d"),
               "digest": hashlib.sha256(), "merge": 0, "split": 0, "escalate": 0}
        for name in ("failed", "records", "events", "event_matches", "log_bytes", "cache_hits",
                     "cache_misses", "pairs_scored", "batches"):
            acc[name] = 0
        wall, count = 0.0, 0
        speed = hostspeed.HostSpeed()
        speed.probe()
        fixture.reset_peak_rss()
        while count < QUALITY_EPISODES or not _done(wall, count, budget, units):
            wave = next(fixture.corpus(
                ctx.seed + 1 + count, f"online{count}", ONLINE_ENTITIES, 1
            ).waves())
            records = list(wave.left) + list(wave.right)
            resolver = setup()
            for record in records:  # each record timed on its own: probes stay off the clock
                begun = time.perf_counter()
                resolver.add_record(record)
                seconds = time.perf_counter() - begun
                wall += seconds
                acc["latencies"].append(seconds)
                speed.tick(seconds)
            count += 1
            if count == 1:
                acc["peak_rss_mb"] = fixture.peak_rss_mb()
            with _off_trace(tracer):
                check_episode(acc, resolver, records, fixture.match_keys(wave),
                              quality=count <= QUALITY_EPISODES)
        return PassResult(wall, speed, count, acc)

    result, tracer, overhead = measure(ctx, run_pass)
    acc = result.data
    records, events = acc["records"], acc["events"]
    auroc = fixture.risk_auroc(acc["labels"], acc["truths"], acc["risks"])
    latency = summarize(acc["latencies"])
    factor = result.speed.factor
    lookups = acc["cache_hits"] + acc["cache_misses"]
    info = {
        "entities_per_episode": ONLINE_ENTITIES,
        "episodes": result.units,
        "records": records,
        "decisions": events,
        "distinct_pairs": events,
        "service_cache_hits": acc["cache_hits"],
        "corpus_index_memo_share": 1.0 - memo_share(tracer.counts),
        "decision_latency_samples": latency["n"],
        "memory_read_after_episodes": 1,
        "quality_read_over_episodes": QUALITY_EPISODES,
        **result.speed.info(),
    }
    detail = {
        "records_per_s": (records / result.wall, "rec/s"),
        "decision_p50_ms": (latency["p50"] * 1e3, "ms"),
        f"decision_p{latency['tail_q']:g}_ms": (latency["tail"] * 1e3, "ms"),
        "log_bytes_per_decision": (acc["log_bytes"] / events, "B"),
        "risk_auroc": (auroc, "ratio"),
        "merges": (acc["merge"], "count"),
        "splits": (acc["split"], "count"),
        "escalations": (acc["escalate"], "count"),
        **wall_detail(ctx, setup_wall_s),
    }
    if ctx.trace:
        metrics = layer_metrics(tracer, result.wall, {
            **ctx.fit_layers,
            "blocking.precision": acc["event_matches"] / events,
            "service.cache_hit_rate": acc["cache_hits"] / lookups if lookups else 0.0,
            "service.mean_batch": acc["pairs_scored"] / acc["batches"] if acc["batches"] else 0.0,
            "online.pairs_per_record": events / records,
            "online.merges": float(acc["merge"]),
            "online.splits": float(acc["split"]),
            "online.escalations": float(acc["escalate"]),
            "trace.overhead_s": overhead,
        })
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": acc["peak_rss_mb"],
            "fit_s": min(ctx.fit_seconds),
            "throughput_per_s": records / result.scaled,
            "latency_p50_ms": latency["p50"] * 1e3 * factor,
            "latency_tail_ms": latency["tail"] * 1e3 * factor,
            "risk_auroc": auroc,
        }
    return Outcome(metrics, detail, info, records, acc["failed"], acc["digest"].hexdigest(),
                   tracer if ctx.trace else None)
