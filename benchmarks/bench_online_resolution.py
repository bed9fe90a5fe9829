"""Online incremental resolution: throughput, decision latency, parity.

The :mod:`repro.online` layer resolves a record stream one arrival at a
time — live blocking index, kernel-warm risk scoring, threshold-driven
merge/split/escalate with an append-only audit log — instead of collecting
the whole corpus and scoring one giant candidate batch.  This benchmark
quantifies what that costs and pins what it must preserve, on a generated
bibliographic corpus:

* **online leg** — stream the corpus through an
  :class:`~repro.online.OnlineResolver` (explanations off: the throughput
  mode) and report records/sec, pairs scored/sec, decision-latency
  mean/p95/p99 from the ``online.decision_seconds`` histogram, the decision
  mix, and the :mod:`tracemalloc` peak;
* **batch control** — ingest the same records, materialise every pair the
  online run scored as one list and score it through a fresh
  :class:`~repro.serve.service.RiskService` in a single batched call, with
  its own peak measured around the whole ingest+materialise+score block;
* **parity** — every event's ``(probability, machine_label, risk_score)``
  must equal the batch control's output **exactly** (the service's
  batch-invariant kernels make online scores bit-identical to batch);
* **replay** — ``replay_events(log)`` must reproduce the live resolver's
  exported cluster state bit for bit.

The ``--smoke`` CI mode shrinks the corpus and turns the contract into exit
codes: score parity, replay bit-identity, a second resolver run over the
same stream producing a byte-identical event log, and the online peak
allocation staying below the materialise-everything batch peak.

Run directly (``python benchmarks/bench_online_resolution.py``), at a custom
scale (``--entities-per-wave 1000 --waves 4``), or as the CI guard
(``python benchmarks/bench_online_resolution.py --smoke``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

from repro.blocking import GeneratedCorpus
from repro.data.generators import GenerationConfig
from repro.data.records import Record, RecordPair
from repro.obs import MetricsRegistry, Stopwatch, use_recorder
from repro.online import EventLog, OnlineResolver, ResolutionPolicy, record_key, replay_events
from repro.serve import RiskService, load_pipeline
from repro.serve.cli import main as serve_cli

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_online_resolution.json"


def make_corpus(args: argparse.Namespace) -> GeneratedCorpus:
    return GeneratedCorpus(
        args.domain,
        GenerationConfig(n_base_entities=args.entities_per_wave),
        n_waves=args.waves,
        name="bench-online",
        seed=args.seed,
    )


def make_policy(args: argparse.Namespace) -> ResolutionPolicy:
    # min_shared=2 keeps the live index's candidate fan-out proportional to
    # genuine token overlap; max_postings bounds hot-token postings on long
    # streams.  Explanations off: this is the throughput mode.
    return ResolutionPolicy(
        attributes=("title", "authors"),
        merge_threshold=args.merge_threshold,
        split_threshold=args.split_threshold,
        min_shared=2,
        max_postings=args.max_postings,
        explain=False,
    )


def fit_spec(seed: int) -> dict:
    """A PipelineSpec document fitting the scorer on a blocked generated corpus."""
    return {
        "classifier": {"kind": "logistic", "params": {"epochs": 60}},
        "training": {"epochs": 30},
        "source": {
            "kind": "blocked",
            "params": {
                "corpus": {"kind": "generator", "domain": "bibliographic",
                           "config": {"n_base_entities": 250}, "n_waves": 1,
                           "name": "bench-online-fit"},
                "blockers": [{"kind": "inverted",
                              "params": {"attributes": ["title", "authors"],
                                         "min_shared": 2,
                                         "max_token_frequency": 0.1}}],
            },
        },
        "seed": seed,
    }


def fit_model(directory: Path, seed: int) -> Path:
    model_dir = directory / "model"
    spec_file = directory / "spec.json"
    spec_file.write_text(json.dumps(fit_spec(seed)))
    if serve_cli(["fit", "--spec", str(spec_file), "--output", str(model_dir)]) != 0:
        raise RuntimeError("serve fit --spec failed")
    return model_dir


def run_online(args: argparse.Namespace, model_dir: Path, events_path: Path) -> dict:
    """Stream the corpus through the resolver; everything stays incremental."""
    metrics = MetricsRegistry()
    tracemalloc.start()
    with use_recorder(metrics), Stopwatch() as watch:
        service = RiskService(load_pipeline(model_dir), max_batch_size=256, cache_size=0)
        resolver = OnlineResolver(service, make_policy(args), event_log=EventLog(events_path))
        summary = resolver.resolve_corpus(make_corpus(args))
    seconds = watch.seconds
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    latency = metrics.histogram("online.decision_seconds")
    replay_ok = replay_events(resolver.log.events()).to_dict() == resolver.state_dict()
    return {
        "measure": {
            "records": summary.records,
            "pairs_scored": summary.pairs_scored,
            "merges": summary.merges,
            "splits": summary.splits,
            "escalations": summary.escalations,
            "seconds": seconds,
            "records_per_second": summary.records / seconds if seconds else float("inf"),
            "pairs_per_second": summary.pairs_scored / seconds if seconds else float("inf"),
            "decision_latency_mean": latency.mean if latency else 0.0,
            "decision_latency_p95": latency.quantile(0.95) if latency else 0.0,
            "decision_latency_p99": latency.quantile(0.99) if latency else 0.0,
            "peak_bytes": peak,
            "replay_bit_identical": replay_ok,
        },
        "resolver": resolver,
    }


def run_batch_control(
    args: argparse.Namespace, model_dir: Path, events, events_path: Path
) -> dict:
    """The batch control: ingest everything, score one materialised pair list.

    The pair list is exactly the pairs the online run scored (rebuilt from
    the audit log), so the comparison isolates *how* the work is held in
    memory — all at once versus one arrival at a time — from *what* work is
    done.  The control journals the same audited decisions and exports the
    same cluster state (auditability is part of the deliverable, not an
    online-only tax); its extra peak is the materialised pair + score lists
    the online path never holds.
    """
    tracemalloc.start()
    with Stopwatch() as watch:
        records: dict[str, Record] = {}
        for wave in make_corpus(args).waves():
            for record in list(wave.left) + list(wave.right):
                records[record_key(record)] = record
        pairs = [
            RecordPair(records[f"{e.left_source}:{e.left_id}"],
                       records[f"{e.right_source}:{e.right_id}"])
            for e in events
        ]
        service = RiskService(load_pipeline(model_dir), max_batch_size=256, cache_size=0)
        scored = service.score_pairs(pairs)
        log = EventLog(events_path)
        for event, one in zip(events, scored):
            log.append(
                decision=event.decision,
                left_id=event.left_id, left_source=event.left_source,
                right_id=event.right_id, right_source=event.right_source,
                reason=event.reason,
                probability=one.probability,
                machine_label=one.machine_label,
                risk_score=one.risk_score,
                threshold=event.threshold,
                explanation=event.explanation,
                cluster_before_left=event.cluster_before_left,
                cluster_before_right=event.cluster_before_right,
                cluster_after=event.cluster_after,
            )
        store = replay_events(log.events())
        store.to_dict()
    seconds = watch.seconds
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    parity = all(
        event.probability == one.probability
        and event.machine_label == one.machine_label
        and event.risk_score == one.risk_score
        for event, one in zip(events, scored)
    )
    return {
        "pairs_scored": len(pairs),
        "seconds": seconds,
        "pairs_per_second": len(pairs) / seconds if seconds else float("inf"),
        "peak_bytes": peak,
        "score_parity": parity,
    }


def check_determinism(args: argparse.Namespace, model_dir: Path, events_path: Path) -> bool:
    """A second resolver over the same stream journals byte-identical events."""
    rerun_path = events_path.parent / "events-rerun.jsonl"
    service = RiskService(load_pipeline(model_dir), max_batch_size=256, cache_size=0)
    resolver = OnlineResolver(
        service, make_policy(args), event_log=EventLog(rerun_path)
    )
    resolver.resolve_corpus(make_corpus(args))
    return rerun_path.read_bytes() == events_path.read_bytes()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", default="bibliographic",
                        help="generator domain for the corpus (default bibliographic)")
    parser.add_argument("--entities-per-wave", type=int, default=150,
                        help="base entities per corpus wave (default 150)")
    parser.add_argument("--waves", type=int, default=3,
                        help="corpus waves (default 3)")
    parser.add_argument("--merge-threshold", type=float, default=0.2,
                        help="auto-merge risk ceiling (default 0.2)")
    parser.add_argument("--split-threshold", type=float, default=0.2,
                        help="auto-split risk ceiling (default 0.2)")
    parser.add_argument("--max-postings", type=int, default=256,
                        help="live-index postings cap per token (default 256)")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: small corpus, assert score parity, replay "
                             "bit-identity, rerun determinism and bounded peak memory")
    args = parser.parse_args(argv)

    if args.smoke:
        args.entities_per_wave, args.waves = 60, 2

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        model_dir = fit_model(directory, args.seed)
        events_path = directory / "events.jsonl"

        online = run_online(args, model_dir, events_path)
        measure, resolver = online["measure"], online["resolver"]
        print(f"online resolution benchmark: {args.domain} corpus, "
              f"{measure['records']} records in {args.waves} wave(s), seed {args.seed}")
        print("Online leg — one record at a time, audited")
        print(f"  records/sec           : {measure['records_per_second']:.0f}")
        print(f"  pairs scored          : {measure['pairs_scored']} "
              f"({measure['pairs_per_second']:.0f}/sec)")
        print(f"  decisions             : {measure['merges']} merge / "
              f"{measure['splits']} split / {measure['escalations']} escalate")
        print(f"  decision latency      : mean {measure['decision_latency_mean'] * 1e3:.2f} ms, "
              f"p95 {measure['decision_latency_p95'] * 1e3:.2f} ms, "
              f"p99 {measure['decision_latency_p99'] * 1e3:.2f} ms")
        print(f"  peak alloc            : {measure['peak_bytes'] / 1e6:.2f} MB")
        print(f"  replay bit-identity   : "
              f"{'ok' if measure['replay_bit_identical'] else 'FAIL'}")

        events = [e for e in resolver.events() if e.decision != "revert"]
        batch = run_batch_control(args, model_dir, events,
                                  directory / "events-batch.jsonl")
        print("Batch control — same pairs, one materialised scoring call")
        print(f"  pairs/sec             : {batch['pairs_per_second']:.0f}")
        print(f"  peak alloc            : {batch['peak_bytes'] / 1e6:.2f} MB")
        ratio = (measure["peak_bytes"] / batch["peak_bytes"]
                 if batch["peak_bytes"] else float("inf"))
        print(f"  peak ratio (on/batch) : {ratio:.2f}")
        print(f"  score parity          : {'ok' if batch['score_parity'] else 'FAIL'}")

        deterministic = check_determinism(args, model_dir, events_path)
        print(f"  rerun determinism     : {'ok' if deterministic else 'FAIL'}")

    report = {
        "benchmark": "online_resolution",
        "mode": "smoke" if args.smoke else "full",
        "domain": args.domain,
        "entities_per_wave": args.entities_per_wave,
        "waves": args.waves,
        "policy": make_policy(args).to_dict(),
        "online": {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in measure.items()
        },
        "batch_control": {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in batch.items()
        },
        "peak_ratio_online_vs_batch": round(ratio, 4),
        "rerun_deterministic": deterministic,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not batch["score_parity"]:
        print("FAILURE: online event scores diverge from the batch control")
        return 1
    if not measure["replay_bit_identical"]:
        print("FAILURE: replaying the event log diverges from the live cluster state")
        return 1
    if not deterministic:
        print("FAILURE: a rerun over the same stream journalled different events")
        return 1
    if args.smoke:
        if measure["pairs_scored"] < 1:
            print("SMOKE FAILURE: the corpus produced no scored pairs")
            return 1
        if measure["peak_bytes"] >= batch["peak_bytes"]:
            print("SMOKE FAILURE: online peak allocation not below the "
                  "materialise-everything batch peak")
            return 1
        print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
