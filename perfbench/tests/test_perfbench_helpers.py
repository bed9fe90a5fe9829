"""Unit tests of the benchmark's own arithmetic: percentiles, spans, schedules."""

from __future__ import annotations

import time

import pytest

from perfbench import hostspeed
from perfbench.layers import _TracedClusterStore
from perfbench.spans import Span, Tracer, coverage, layer_busy, layer_self, self_times
from perfbench.stats import (
    backlog_growing,
    open_loop_schedule,
    percentile,
    summarize,
    tail_percentile,
)


# ------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    ("n", "expected"),
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 95.0), (10000, 95.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= 10 - 1e-9


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 20) == 1.0
    assert percentile(values, 21) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_summarize_reports_the_supported_tail():
    values = [float(v) for v in range(1, 201)]
    summary = summarize(values)
    assert summary == {"n": 200, "p50": 100.0, "tail_q": 95.0, "tail": 190.0}
    # Exactly ten samples lie beyond the reported tail value.
    assert sum(v > summary["tail"] for v in values) == 10
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0, "tail_q": 100.0, "tail": 3.0}
    assert summarize([])["tail"] is None
    # More samples never move the tail past p95...
    assert summarize([float(v) for v in range(5000)])["tail_q"] == 95.0
    # ...and fewer fall back to the highest percentile they support.
    assert summarize(values[:150])["tail_q"] == 90.0


# --------------------------------------------------------------- host speed
def test_host_speed_scales_by_the_mean_probe(monkeypatch):
    probes = iter([0.4e-3, 0.8e-3, 1.2e-3])
    monkeypatch.setattr(hostspeed, "probe_seconds", lambda: next(probes))
    speed = hostspeed.HostSpeed()
    speed.probe()
    speed.tick(hostspeed.PROBE_INTERVAL_S / 2)
    assert len(speed.probes) == 1  # not due yet
    speed.tick(hostspeed.PROBE_INTERVAL_S / 2)
    speed.tick(hostspeed.PROBE_INTERVAL_S)
    assert speed.probes == [0.4e-3, 0.8e-3, 1.2e-3]
    # Wall seconds on a host whose mean probe is 0.8 ms, as reference seconds.
    assert speed.factor == pytest.approx(hostspeed.REFERENCE_PROBE_S / 0.8e-3)


def test_host_speed_samples_while_a_call_runs():
    speed = hostspeed.HostSpeed()
    with speed.sampling() as probing:
        deadline = time.perf_counter() + 6 * hostspeed.SAMPLE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(speed.probes) >= 2
    # The probes' own seconds are counted, for the caller to take off its clock.
    assert probing[0] >= sum(speed.probes)
    count = len(speed.probes)
    time.sleep(2 * hostspeed.SAMPLE_INTERVAL_S)
    assert len(speed.probes) == count  # the timer stops with the block


# ------------------------------------------------------------------- spans
def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, name, start, end, "")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0, "service", 0.0, 10.0),
        _span(2, 1, "vectorize", 1.0, 3.0),
        _span(3, 1, "vectorize", 2.0, 5.0),  # overlaps its sibling
        _span(4, 1, "classify", 7.0, 8.0),
        _span(5, 2, "kernel.other", 1.5, 2.5),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[5] == pytest.approx(1.0)
    assert layer_self(spans, "vectorize", selfs) == pytest.approx(1.0 + 3.0)
    # Summed self time equals the root's duration when children nest inside it.
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)  # siblings 2 and 3 overlap by 1
    assert coverage(selfs, wall=20.0) == pytest.approx(11.0 / 20.0)
    assert coverage(selfs, wall=0.0) == 0.0


def test_layer_busy_counts_nested_repeats_once():
    spans = [
        _span(1, 0, "blocking", 0.0, 4.0),
        _span(2, 1, "blocking", 1.0, 2.0),  # an index probe inside the generator step
        _span(3, 0, "service", 5.0, 9.0),
        _span(4, 3, "blocking", 6.0, 7.0),
    ]
    assert layer_busy(spans, "blocking") == pytest.approx(4.0 + 1.0)
    assert layer_busy(spans, "service") == pytest.approx(4.0)
    assert layer_busy(spans, "journal") == 0.0


class _Base:
    def inherited(self, value):
        return value + 1


class _Thing(_Base):
    def work(self, value):
        return value * 2

    def stream(self, count):
        yield from range(count)


def test_tracer_wraps_and_restores_methods():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.root_ident = "req-1"
    tracer.wrap(_Thing, "work", "outer", after=lambda result, *args: tracer.count("n", result))
    tracer.wrap(_Thing, "inherited", "base")
    tracer.wrap_generator(_Thing, "stream", "gen")
    thing = _Thing()
    assert thing.work(3) == 6
    assert thing.inherited(1) == 2
    assert list(thing.stream(2)) == [0, 1]
    tracer.restore()
    assert "inherited" not in vars(_Thing)
    assert _Thing.work.__name__ == "work" and thing.work(1) == 2
    names = [span.name for span in tracer.spans]
    # One span per call, and one per next() on the generator (the last raises StopIteration).
    assert names == ["outer", "base", "gen", "gen", "gen"]
    assert all(span.ident == "req-1" and span.parent_id == 0 for span in tracer.spans)
    assert tracer.counts["n"] == 6


def test_tracer_nests_spans_and_inherits_idents():
    tracer = Tracer()
    with tracer.span("online", ident="rec-7"):
        with tracer.span("service"):
            pass
    inner, outer = tracer.spans
    assert inner.parent_id == outer.span_id and inner.ident == "rec-7"
    assert outer.parent_id == 0


def test_traced_cluster_store_skips_internal_calls():
    class Store:
        def __init__(self):
            self.keys = ["a", "b", "c"]

        def find(self, key):
            return key

        def members(self, key):
            return [k for k in self.keys if self.find(k) == self.find(key)]

        def __contains__(self, key):
            return key in self.keys

        def __len__(self):
            return len(self.keys)

    tracer = Tracer()
    store = _TracedClusterStore(Store(), tracer)
    assert store.members("b") == ["b"]
    assert store.find("a") == "a"
    assert "c" in store and len(store) == 3 and store.keys == ["a", "b", "c"]
    assert [span.name for span in tracer.spans] == ["cluster", "cluster"]


# ---------------------------------------------------------------- schedule
def test_open_loop_schedule_is_fixed_in_advance():
    schedule = open_loop_schedule([(10.0, 1.0), (20.0, 0.5)])
    assert len(schedule) == 10 + 10
    assert [rung for _, rung in schedule] == [0] * 10 + [1] * 10
    first, second = schedule[:10], schedule[10:]
    assert first[0][0] == 0.0 and first[-1][0] == pytest.approx(0.9)
    assert second[0][0] == pytest.approx(1.0)
    gaps = [b[0] - a[0] for a, b in zip(second, second[1:])]
    assert all(gap == pytest.approx(0.05) for gap in gaps)
    with pytest.raises(ValueError):
        open_loop_schedule([(0.0, 1.0)])


def test_backlog_is_flagged_only_when_lateness_grows():
    interval = 0.01
    flat = [0.0005] * 40
    assert not backlog_growing(flat, interval)
    # Each request starts 2 ms later than the last: the queue grows.
    growing = [0.002 * k for k in range(40)]
    assert backlog_growing(growing, interval)
    # A one-off stall that drains again is not a growing backlog.
    stall = [0.0] * 10 + [0.05, 0.04, 0.03, 0.02, 0.01] + [0.0] * 25
    assert not backlog_growing(stall, interval)
    assert not backlog_growing([0.0, 1.0, 2.0], interval)  # too few samples to judge
