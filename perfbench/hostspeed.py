"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of a core swings by up to 1.7x, over seconds and
over minutes (a busy neighbour on the same physical core), while the
process's CPU time grows just as fast as its wall time, so CPU time does not
help.  The benchmark therefore times a fixed probe between units
of work, off the clock, and scales the run's wall seconds by
``REFERENCE_PROBE_S / mean probe``: the seconds the work would have taken on a
host where the probe takes :data:`REFERENCE_PROBE_S`.

Work that runs as one long call (a fit) is probed while it runs:
:meth:`HostSpeed.sampling` takes a probe from a ``SIGALRM`` handler every
:data:`SAMPLE_INTERVAL_S` and counts the seconds the probes took, which the
caller takes off its clock.  Probes only before and after a call of seconds
miss the swings that happen during it.

The probe does three fixed pieces of work of similar size:
character-trigram sets of fixed strings (the program's text kernels), a
dictionary-of-floats loop (its Python bookkeeping) and a stable argsort with
cumulative sums over a fixed array (its numpy rule search).  Host slowdowns do
not hit the three alike: over fourteen processes of two fits each, the
fits' wall seconds over the trigram probe alone spread 5.7% (interquartile
over median), over this probe 3.6%.  One probe is noisy (it also sees fast
swings that the work averages out), so a run uses the mean of all its probes.
The probe is the benchmark's own code, so no change to the program moves it.
Raw wall figures are printed beside the calibrated ones.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

#: The probe's fixed inputs: 100 strings of six pseudo-words, and 4000 scores
#: with 0/1 labels from a fixed generator.
PROBE_TEXTS = tuple(
    " ".join(f"w{(row * 7919 + column * 104729) % 1000}" for column in range(6))
    for row in range(100)
)
_PROBE_RANDOM = np.random.default_rng(0)
PROBE_SCORES = _PROBE_RANDOM.random(4000)
PROBE_LABELS = (_PROBE_RANDOM.random(4000) > 0.5).astype(float)
#: Probe seconds of the reference host (about a quiet 2-core Xeon VM).
REFERENCE_PROBE_S = 1.5e-3
#: Seconds of work between two probes of :meth:`HostSpeed.tick`.
PROBE_INTERVAL_S = 0.1
#: Wall seconds between two probes of :meth:`HostSpeed.sampling`.
SAMPLE_INTERVAL_S = 0.05


def _trigrams() -> None:
    trigrams: set[str] = set()
    for text in PROBE_TEXTS:
        trigrams.update(text[start:start + 3] for start in range(len(text) - 2))


def _float_dict() -> None:
    totals: dict[int, float] = {}
    for step in range(3000):
        totals[step % 97] = totals.get(step % 97, 0.0) + step * 1.5
    [value for value in totals.values() if value > 10.0]


def _sorted_sums() -> None:
    for offset in range(2):
        order = np.argsort(PROBE_SCORES[offset:], kind="stable")
        np.maximum.accumulate(np.cumsum(PROBE_LABELS[offset:][order]))


def probe_seconds() -> float:
    """Seconds of the fixed probe: each piece's faster of two tries, summed."""
    total = 0.0
    for piece in (_trigrams, _float_dict, _sorted_sums):
        best = math.inf
        for _ in range(2):
            started = time.perf_counter()
            piece()
            best = min(best, time.perf_counter() - started)
        total += best
    return total


class HostSpeed:
    """Probes taken between units of work; :attr:`factor` scales wall to reference seconds."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._work = 0.0

    def probe(self, count: int = 1) -> None:
        """Take ``count`` probes now (the caller keeps them off its clock)."""
        self.probes.extend(probe_seconds() for _ in range(count))
        self._work = 0.0

    def tick(self, seconds: float) -> None:
        """Count ``seconds`` of work; probe once :data:`PROBE_INTERVAL_S` has passed."""
        self._work += seconds
        if self._work >= PROBE_INTERVAL_S:
            self.probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe every :data:`SAMPLE_INTERVAL_S` while the block runs; yields the probe seconds.

        The yielded list holds one number, the seconds the block's probes
        took, final once the block ends.  Probes come from a ``SIGALRM``
        handler, so only the main thread of a process with ``setitimer``
        samples; elsewhere the block runs unprobed.
        """
        spent = [0.0]
        if not hasattr(signal, "setitimer"):
            yield spent
            return

        def handler(signum, frame):
            started = time.perf_counter()
            self.probes.append(probe_seconds())
            spent[0] += time.perf_counter() - started

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def factor(self) -> float:
        """Reference seconds per wall second over every probe so far."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probes)

    def info(self) -> dict:
        """The input block's view of the probes."""
        return {"host_speed_probes": len(self.probes),
                "host_speed_factor": self.factor,
                "host_probe_ms_range": [1e3 * min(self.probes), 1e3 * max(self.probes)]}
