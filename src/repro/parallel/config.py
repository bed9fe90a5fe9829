"""Execution configuration of the sharded scoring engine.

:class:`ExecutionConfig` is the one knob surface for parallel scoring: how
many workers, how large the streamed chunks are and how pool processes are
started.  It is a plain JSON-serialisable dataclass so it can ride along in a
:class:`~repro.compose.spec.PipelineSpec` (the ``execution`` field) and
round-trip through ``build_pipeline`` exactly like the component specs.

The pool rule is a single one: ``workers > 1`` scores on a
:class:`~concurrent.futures.ProcessPoolExecutor` (each worker process rebuilds
the pipeline once from its picklable state and keeps it warm), and
``workers == 1`` scores serially in the calling thread with the calling
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from ..exceptions import ConfigurationError

#: Process start methods a config may pin (``None`` keeps the platform default).
START_METHODS = ("fork", "spawn", "forkserver")

#: In-flight chunks per worker: the engine keeps at most
#: ``workers * MAX_PENDING`` chunks submitted ahead of the consumer, so
#: parent-side memory stays bounded while the pool never starves.
MAX_PENDING = 2


def _require_positive_int(name: str, value: Any) -> None:
    """Reject anything but a real ``int`` >= 1 (no float/str/bool coercion)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        )
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ExecutionConfig:
    """How scoring work is fanned out (see module docstring).

    Attributes
    ----------
    workers:
        Number of pool worker processes.  ``1`` means serial execution.
    chunk_size:
        Pairs per streamed chunk when the caller does not pass an explicit
        batch/chunk size of its own; ``None`` defers to the call site's
        default.  Output is bit-identical at any chunk size, so this is a
        throughput knob, never a correctness knob.
    start_method:
        Multiprocessing start method for the worker pool (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` keeps the platform default.
        Scores are bit-identical under every start method — workers rebuild
        the pipeline from explicit state, never from inherited lazy caches.
    """

    workers: int = 1
    chunk_size: int | None = None
    start_method: str | None = None

    def __post_init__(self) -> None:
        _require_positive_int("workers", self.workers)
        if self.chunk_size is not None:
            _require_positive_int("chunk_size", self.chunk_size)
        if self.start_method is not None and self.start_method not in START_METHODS:
            raise ConfigurationError(
                f"unknown start_method {self.start_method!r}; "
                f"expected one of {', '.join(START_METHODS)} or null"
            )

    # --------------------------------------------------------------- resolution
    def with_workers(self, workers: int | None) -> "ExecutionConfig":
        """This config with ``workers`` overridden (``None`` keeps the current value)."""
        if workers is None or workers == self.workers:
            return self
        return replace(self, workers=workers)

    @property
    def window(self) -> int:
        """Maximum chunks in flight (submitted but not yet yielded)."""
        return self.workers * MAX_PENDING

    def resolve_chunk_size(self, default: int) -> int:
        """The chunk size to stream with when the caller passed none of its own."""
        return default if self.chunk_size is None else self.chunk_size

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "start_method": self.start_method,
        }

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]) -> "ExecutionConfig":
        """Build a config from a mapping, rejecting unknown keys loudly."""
        if not isinstance(values, Mapping):
            raise ConfigurationError(
                f"execution config must be a mapping, got {type(values).__name__}"
            )
        known = {config_field.name for config_field in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigurationError(
                f"unknown execution config keys {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**dict(values))

    @classmethod
    def coerce(cls, value: "ExecutionConfig | Mapping[str, Any] | None") -> "ExecutionConfig | None":
        """Accept a config, its ``to_dict`` mapping, or ``None`` (passes through)."""
        if value is None or isinstance(value, ExecutionConfig):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise ConfigurationError(
            f"execution must be an ExecutionConfig or a mapping, "
            f"got {type(value).__name__}"
        )
