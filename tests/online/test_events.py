"""Unit tests of the append-only event log and log replay."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import DataError
from repro.online import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    ResolutionEvent,
    replay_events,
)


def append_pair_event(log: EventLog, decision: str, left: str, right: str, **extra):
    return log.append(
        decision=decision,
        left_id=left,
        left_source="s",
        right_id=right,
        right_source="s",
        reason="test",
        **extra,
    )


def test_event_wire_format_is_sorted_compact_json():
    log = EventLog()
    event = append_pair_event(log, "merge", "a", "b")
    line = event.to_json_line()
    assert line.endswith("\n")
    payload = json.loads(line)
    assert list(payload) == sorted(payload)
    assert payload["schema_version"] == EVENT_SCHEMA_VERSION
    assert payload["event_id"] == "evt-000001"
    assert line == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_event_round_trips_through_dict():
    log = EventLog()
    event = append_pair_event(
        log, "escalate", "a", "b",
        probability=0.9, machine_label=1, risk_score=0.4, threshold=0.2,
        explanation={"fired_rules": []},
        cluster_before_left=["s:a"], cluster_before_right=["s:b"],
    )
    assert ResolutionEvent.from_dict(event.to_dict()) == event


def test_unknown_decision_rejected():
    log = EventLog()
    with pytest.raises(DataError, match="unknown resolution decision"):
        append_pair_event(log, "promote", "a", "b")
    with pytest.raises(DataError, match="unknown resolution decision"):
        ResolutionEvent.from_dict({
            "sequence": 1, "decision": "promote", "left_id": "a",
            "left_source": "s", "right_id": "b", "right_source": "s",
            "reason": "x",
        })


def test_missing_field_rejected():
    with pytest.raises(DataError, match="missing field"):
        ResolutionEvent.from_dict({"sequence": 1, "decision": "merge"})


def test_sequences_and_since_slicing():
    log = EventLog()
    for index in range(4):
        append_pair_event(log, "escalate", "a", f"b{index}")
    assert [event.sequence for event in log.events()] == [1, 2, 3, 4]
    assert [event.sequence for event in log.events(since=2)] == [3, 4]
    assert log.events(since=99) == []
    assert len(log) == 4
    with pytest.raises(DataError, match="'since' must be >= 0"):
        log.events(since=-1)


def test_event_lookup_and_reverted_ids():
    log = EventLog()
    merge = append_pair_event(log, "merge", "a", "b")
    assert log.event(merge.event_id) is merge
    with pytest.raises(DataError, match="unknown event id"):
        log.event("evt-999999")
    append_pair_event(log, "revert", "a", "b", target_event_id=merge.event_id)
    assert log.reverted_event_ids() == {merge.event_id}


def test_event_lookup_finds_every_event_by_position(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    appended = [append_pair_event(log, "escalate", "a", f"b{index}") for index in range(5)]
    reloaded = EventLog(log.path)
    for event in appended:
        assert log.event(event.event_id) is event
        assert reloaded.event(event.event_id) == event


@pytest.mark.parametrize("event_id", ["evt-1", "evt-000000", "evt-000004", "foo"])
def test_event_lookup_rejects_ids_that_name_no_event(event_id):
    log = EventLog()
    for index in range(3):
        append_pair_event(log, "escalate", "a", f"b{index}")
    with pytest.raises(DataError, match="unknown event id"):
        log.event(event_id)


def test_file_mirroring_and_reload(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    append_pair_event(log, "merge", "a", "b")
    append_pair_event(log, "split", "a", "c")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["decision"] == "merge"

    reloaded = EventLog(path)
    assert [event.to_dict() for event in reloaded] == [
        event.to_dict() for event in log
    ]
    # Appends continue the sequence across the reload.
    event = append_pair_event(reloaded, "escalate", "a", "d")
    assert event.sequence == 3


def test_corrupt_log_files_rejected(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text("{not json\n")
    with pytest.raises(DataError, match="not valid JSON"):
        EventLog(bad_json)

    gap = tmp_path / "gap.jsonl"
    log = EventLog()
    first = append_pair_event(log, "merge", "a", "b")
    skipped = ResolutionEvent.from_dict({**first.to_dict(), "sequence": 3})
    gap.write_text(first.to_json_line() + skipped.to_json_line())
    with pytest.raises(DataError, match="not contiguous"):
        EventLog(gap)


def test_replay_applies_merges_and_splits_and_honours_reverts():
    log = EventLog()
    merge = append_pair_event(log, "merge", "a", "b")
    append_pair_event(log, "split", "a", "c")
    append_pair_event(log, "escalate", "a", "d")
    store = replay_events(log.events())
    assert store.to_dict() == {
        "clusters": {"s:a": ["s:a", "s:b"]},
        "cannot_links": [["s:a", "s:c"]],
    }

    append_pair_event(log, "revert", "a", "b", target_event_id=merge.event_id)
    reverted = replay_events(log.events())
    assert reverted.to_dict() == {
        "clusters": {},
        "cannot_links": [["s:a", "s:c"]],
    }
