"""Thread-safe registry of named, versioned pipelines with hot-swap.

A production deployment serves more than one model: one per dataset, plus new
candidate versions rolled out next to the version currently taking traffic.
:class:`ModelRegistry` owns that mapping:

* every :meth:`register` (or :meth:`load` from disk) stores a pipeline under a
  ``(name, version)`` key, auto-incrementing the version when none is given;
* each name has one *active* version that :meth:`get` and :meth:`service`
  resolve by default — registering with ``activate=True`` (the default) is a
  hot-swap: the next ``service(name)`` call serves the new version while
  in-flight scoring on the old service finishes undisturbed;
* :meth:`service` lazily builds and memoises one :class:`RiskService` per
  version, so repeated lookups share the service's vectorisation cache.

All operations take a single registry lock; scoring itself happens on the
returned service outside the registry lock.
"""

from __future__ import annotations

import threading
from pathlib import Path

from ..exceptions import ConfigurationError
from ..compose.staged import StagedPipeline
from .persistence import load_pipeline
from .service import RiskService


class ModelRegistry:
    """Named, versioned pipelines behind one thread-safe facade.

    Parameters
    ----------
    max_batch_size, cache_size:
        Forwarded to every :class:`RiskService` the registry builds.  Each
        service counts its own traffic in its private ``stats``; a
        registry-wide view comes from the recorder installed with
        :func:`repro.obs.use_recorder` around the scoring calls.
    """

    def __init__(self, *, max_batch_size: int = 256, cache_size: int = 4096) -> None:
        self._service_options = {"max_batch_size": max_batch_size, "cache_size": cache_size}
        self._lock = threading.RLock()
        self._models: dict[str, dict[int, StagedPipeline]] = {}
        self._active: dict[str, int] = {}
        #: Per name, the version that was active before the last swap — what
        #: :meth:`rollback` restores.  Two consecutive rollbacks toggle.
        self._previous: dict[str, int] = {}
        self._services: dict[tuple[str, int], RiskService] = {}

    # --------------------------------------------------------------- mutation
    def register(
        self,
        name: str,
        pipeline: StagedPipeline,
        version: int | None = None,
        activate: bool = True,
    ) -> int:
        """Store ``pipeline`` under ``name``; returns the assigned version.

        With ``activate=True`` (default) the new version becomes the one
        :meth:`get` / :meth:`service` resolve — a hot-swap when the name was
        already serving an older version.
        """
        if not name:
            raise ConfigurationError("model name must be non-empty")
        with self._lock:
            versions = self._models.setdefault(name, {})
            if version is None:
                version = max(versions, default=0) + 1
            version = int(version)
            if version < 1:
                raise ConfigurationError("model version must be >= 1")
            if version in versions:
                raise ConfigurationError(
                    f"model {name!r} already has a version {version}; "
                    f"register a new version instead of overwriting"
                )
            versions[version] = pipeline
            if activate or name not in self._active:
                self._swap_active(name, version)
            return version

    def load(
        self,
        name: str,
        directory: str | Path,
        version: int | None = None,
        activate: bool = True,
    ) -> int:
        """Load a saved pipeline from ``directory`` and register it."""
        return self.register(name, load_pipeline(directory), version=version, activate=activate)

    def _swap_active(self, name: str, version: int) -> None:
        """Point ``name`` at ``version``, remembering the outgoing active version."""
        current = self._active.get(name)
        if current is not None and current != version:
            self._previous[name] = current
        self._active[name] = int(version)

    def activate(self, name: str, version: int) -> None:
        """Make ``version`` the one served for ``name`` (manual hot-swap)."""
        with self._lock:
            if version not in self._models.get(name, {}):
                raise ConfigurationError(f"model {name!r} has no version {version}")
            self._swap_active(name, int(version))

    def rollback(self, name: str) -> int:
        """Restore the version that was active before the last swap of ``name``.

        Returns the version now serving.  The rolled-back-from version stays
        registered (and becomes the new "previous", so a second rollback
        swaps forward again).  Raises
        :class:`~repro.exceptions.ConfigurationError` when ``name`` was never
        swapped or its previous version has been unregistered since.
        """
        with self._lock:
            versions = self._require_name(name)
            previous = self._previous.get(name)
            if previous is None or previous not in versions:
                raise ConfigurationError(
                    f"model {name!r} has no previous version to roll back to"
                )
            self._swap_active(name, previous)
            return previous

    def unregister(self, name: str, version: int | None = None) -> None:
        """Remove one version of ``name`` (or all of them when ``version`` is None)."""
        with self._lock:
            versions = self._require_name(name)
            if version is None:
                removed = list(versions)
            else:
                if version not in versions:
                    raise ConfigurationError(f"model {name!r} has no version {version}")
                removed = [int(version)]
            for item in removed:
                del versions[item]
                self._services.pop((name, item), None)
            if self._previous.get(name) in removed:
                self._previous.pop(name, None)
            if not versions:
                self._models.pop(name, None)
                self._active.pop(name, None)
                self._previous.pop(name, None)
            elif self._active.get(name) in removed:
                # The outgoing active version no longer exists, so it must not
                # become the rollback target — assign directly.
                self._active[name] = max(versions)
                if self._previous.get(name) == self._active[name]:
                    # Rolling back to the version already serving is a no-op;
                    # drop the degenerate history instead of offering it.
                    self._previous.pop(name, None)

    # ----------------------------------------------------------------- lookup
    def _require_name(self, name: str) -> dict[int, StagedPipeline]:
        versions = self._models.get(name)
        if not versions:
            raise ConfigurationError(
                f"unknown model {name!r}; registered models: {sorted(self._models)}"
            )
        return versions

    def _resolve(self, name: str, version: int | None) -> tuple[int, StagedPipeline]:
        versions = self._require_name(name)
        if version is None:
            version = self._active[name]
        if version not in versions:
            raise ConfigurationError(f"model {name!r} has no version {version}")
        return int(version), versions[version]

    def get(self, name: str, version: int | None = None) -> StagedPipeline:
        """Return the pipeline for ``name`` (the active version by default)."""
        with self._lock:
            return self._resolve(name, version)[1]

    def service(self, name: str, version: int | None = None) -> RiskService:
        """Return the memoised :class:`RiskService` for ``name``/``version``."""
        with self._lock:
            resolved_version, pipeline = self._resolve(name, version)
            key = (name, resolved_version)
            if key not in self._services:
                self._services[key] = RiskService(pipeline, **self._service_options)
            return self._services[key]

    # ------------------------------------------------------------- inspection
    def names(self) -> list[str]:
        """Registered model names, sorted."""
        with self._lock:
            return sorted(self._models)

    def versions(self, name: str) -> list[int]:
        """Registered versions of ``name``, ascending."""
        with self._lock:
            return sorted(self._require_name(name))

    def active_version(self, name: str) -> int:
        """The version currently served for ``name``."""
        with self._lock:
            self._require_name(name)
            return self._active[name]

    def previous_version(self, name: str) -> int | None:
        """The version :meth:`rollback` would restore (``None`` when there is none)."""
        with self._lock:
            versions = self._require_name(name)
            previous = self._previous.get(name)
            return previous if previous in versions else None

    def describe(self) -> dict[str, dict[str, object]]:
        """Snapshot of every model's versions and active version."""
        with self._lock:
            return {
                name: {
                    "versions": sorted(versions),
                    "active": self._active.get(name),
                    "previous": (
                        self._previous[name]
                        if self._previous.get(name) in versions else None
                    ),
                }
                for name, versions in self._models.items()
            }
