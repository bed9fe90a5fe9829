"""Inputs every workload shares: the fitted model, generated corpora, truth, memory.

Every input comes from ``--seed`` through ``GeneratedCorpus("bibliographic",
...)``; the program only ever receives the generated records and pairs.

The model is fitted in a child process (:func:`fit_in_child`, which runs this
file), so the process that runs a workload never holds a fit's memory::

    python3 perfbench/fixture.py --seed 0 --model-dir DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Corpus domain of every workload.
DOMAIN = "bibliographic"
#: Record attributes blocking and online resolution tokenise.
BLOCK_ATTRIBUTES = ("title", "authors")
#: Shared-token threshold of every blocker and live index.
MIN_SHARED = 2
#: Seed of the labelled wave a timed run fits besides its own.  It is the same
#: in every run, because one wave's fit time varies by about 15% with its
#: data: the seed's own fit makes the model but is not timed.
FIT_TIMING_SEED = 100_003
#: Timed fits of that wave; ``fit_s`` is the fastest, so one fit slowed by
#: something the host-speed probes missed does not count.
FIT_REPEATS = 2
#: Host-speed probes just before and just after each timed fit (it is also
#: probed while it runs).
FIT_PROBES = 4


def fit_spec(seed: int) -> dict:
    """The model recipe (the same document ``benchmarks/bench_online_resolution.py`` fits).

    Logistic classifier, 30 risk-training epochs, trained on one blocked
    250-entity bibliographic wave generated from ``seed``.
    """
    return {
        "classifier": {"kind": "logistic", "params": {"epochs": 60}},
        "training": {"epochs": 30},
        "source": {
            "kind": "blocked",
            "params": {
                "corpus": {"kind": "generator", "domain": DOMAIN,
                           "config": {"n_base_entities": 250}, "n_waves": 1,
                           "name": "bench-online-fit"},
                "blockers": [{"kind": "inverted",
                              "params": {"attributes": list(BLOCK_ATTRIBUTES),
                                         "min_shared": MIN_SHARED,
                                         "max_token_frequency": 0.1}}],
            },
        },
        "seed": seed,
    }


def _labelled_fit(seed: int):
    """A pipeline built from :func:`fit_spec` and the split of its labelled wave.

    Generating and blocking the wave is input preparation, done here.
    """
    from repro.compose import PipelineSpec, build_pipeline
    from repro.compose.registries import create_source
    from repro.data.workload import split_workload

    spec = PipelineSpec.from_dict(fit_spec(seed))
    workload = create_source(spec.source.kind, spec.source.params, spec.seed).materialize()
    return build_pipeline(spec), split_workload(workload, ratio=(3.0, 2.0, 5.0), seed=spec.seed)


def fit_model(seed: int, model_dir: Path, timed: bool) -> tuple[list[float], list[float]]:
    """Fit the seed's model, save it to ``model_dir`` and, if ``timed``, time more fits.

    A timed run then times ``StagedPipeline.fit`` :data:`FIT_REPEATS` times on
    the wave of :data:`FIT_TIMING_SEED`.  Returns their seconds, each
    calibrated by the host-speed probes taken before, during and after that
    fit, and their wall seconds (both empty when not ``timed``).
    """
    from perfbench import hostspeed
    from repro.serve import save_pipeline

    pipeline, split = _labelled_fit(seed)
    pipeline.fit(split.train, split.validation)
    save_pipeline(pipeline, model_dir)
    scaled, wall = [], []
    for _ in range(FIT_REPEATS if timed else 0):
        pipeline, split = _labelled_fit(FIT_TIMING_SEED)
        speed = hostspeed.HostSpeed()
        speed.probe(FIT_PROBES)
        with speed.sampling() as probing:
            started = time.perf_counter()
            pipeline.fit(split.train, split.validation)
            seconds = time.perf_counter() - started
        seconds -= probing[0]
        speed.probe(FIT_PROBES)
        wall.append(seconds)
        scaled.append(seconds * speed.factor)
    return scaled, wall


def fit_in_child(seed: int, model_dir: Path, trace: bool) -> dict:
    """Fit the fixture in a child process: the timed fits' seconds or, traced, the ``fit.*`` layers.

    A timed run also times the fits of :data:`FIT_TIMING_SEED`; a traced run
    traces the model's own fit instead.  Workloads load the model from
    ``model_dir``.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
               "--model-dir", str(model_dir)]
    if trace:
        command.append("--trace")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"fitting the model fixture failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def corpus(seed: int, name: str, entities: int, waves: int | None):
    """A generated bibliographic corpus (``waves=None`` streams without end)."""
    from repro.blocking import GeneratedCorpus
    from repro.data.generators import GenerationConfig

    return GeneratedCorpus(
        DOMAIN, GenerationConfig(n_base_entities=entities), n_waves=waves, name=name, seed=seed
    )


def match_keys(wave) -> set[frozenset]:
    """The wave's true matches as unordered pairs of online record keys."""
    left_source = next(iter(wave.left)).source
    right_source = next(iter(wave.right)).source
    return {
        frozenset((f"{left_source}:{left_id}", f"{right_source}:{right_id}"))
        for left_id, right_id in wave.matches
    }


def risk_auroc(machine_labels, truths, risk_scores) -> float:
    """AUROC of the risk ranking against the true mislabels (the paper's measure)."""
    from repro.evaluation.roc import auroc_score, mislabel_indicator

    return auroc_score(mislabel_indicator(machine_labels, truths), risk_scores)


def reset_peak_rss() -> None:
    """Start this process's peak-memory count afresh (Linux ``clear_refs``; elsewhere a no-op)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size, in MB, of this process or of ``pid`` (``VmHWM``).

    Without ``/proc`` (not Linux) this process falls back to ``ru_maxrss``, the
    peak since it started, and another process reads 0.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fit the benchmark's model fixture.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--model-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import install_spans, layer_metrics
    from perfbench.spans import Tracer

    tracer = Tracer()
    if args.trace:
        install_spans(tracer)
    try:
        scaled, wall = fit_model(args.seed, args.model_dir, timed=not args.trace)
    finally:
        tracer.restore()
    fit_layers = {}
    if args.trace:
        fit_layers = {name: value
                      for name, value in layer_metrics(tracer, 1.0, {}).items()
                      if name.startswith("fit.")}
    print(json.dumps({"fit_seconds": scaled, "fit_wall_seconds": wall, "fit_layers": fit_layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
