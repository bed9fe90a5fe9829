"""Multi-worker sharded scoring (`repro.parallel`).

The execution subsystem of the stack: :class:`ExecutionConfig` describes *how*
scoring work is fanned out (worker count, chunk size, process start method),
:class:`ParallelScoringEngine` does the fanning — a process pool when
``workers > 1``, the serial loop otherwise — and merges the per-chunk
:class:`ChunkScores` back **in deterministic source order**, bit-identical to
the serial path at any worker count and chunk size.

Entry points higher up the stack accept the same knobs directly:

* ``StagedPipeline.analyse_batches(source, workers=4)``
* ``RiskService.score_source(source, workers=4)``
* ``python -m repro.serve score --chunk-size 256 --workers 4``
* ``PipelineSpec(execution={"workers": 4})`` → rides along in saved models

See ``benchmarks/bench_parallel_scoring.py`` for the measured scaling and
``tests/parallel/`` for the parity guarantees.
"""

from .chunks import ChunkScores
from .config import START_METHODS, ExecutionConfig
from .engine import ParallelScoringEngine

__all__ = [
    "START_METHODS",
    "ChunkScores",
    "ExecutionConfig",
    "ParallelScoringEngine",
]
