"""Structured event log: ring bounds, lifetime counts, scoped emitters."""

import json
import threading

import pytest

from repro.obs.clock import ManualClock
from repro.obs.events import EventLog


def test_emit_stamps_clock_and_sequences():
    clock = ManualClock()
    log = EventLog(clock=clock)
    first = log.emit("replica_death", replica=1)
    clock.advance(2.0)
    second = log.emit("replica_heal", replica=1)
    assert (first.seq, first.at) == (0, 0.0)
    assert (second.seq, second.at) == (1, 2.0)
    assert first.kind == "replica_death"
    assert dict(first.fields) == {"replica": 1}


def test_explicit_at_overrides_clock():
    log = EventLog(clock=ManualClock(start=9.0))
    assert log.emit("x", at=1.25).at == 1.25


def test_ring_evicts_but_counts_survive():
    log = EventLog(capacity=3, clock=ManualClock())
    for i in range(10):
        log.emit("tick", i=i)
    assert [dict(e.fields)["i"] for e in log.snapshot()] == [7, 8, 9]
    assert log.counts() == {"tick": 10}
    assert log.total() == 10


def test_snapshot_filters_by_kind():
    log = EventLog(clock=ManualClock())
    log.emit("a")
    log.emit("b")
    log.emit("a")
    assert len(log.snapshot("a")) == 2
    assert len(log.snapshot()) == 3


def test_capacity_validation():
    with pytest.raises(ValueError):
        EventLog(capacity=0)


def test_scoped_emitter_binds_static_fields():
    log = EventLog(clock=ManualClock())
    shard = log.scoped(shard=2)
    replica = shard.scoped(replica=0)
    replica.emit("replica_death", retried=True)
    (event,) = log.snapshot()
    assert dict(event.fields) == {"shard": 2, "replica": 0, "retried": True}


def test_scoped_explicit_fields_win():
    log = EventLog(clock=ManualClock())
    log.scoped(shard=1).emit("x", shard=5)
    assert dict(log.snapshot()[0].fields) == {"shard": 5}


def test_to_jsonl():
    log = EventLog(clock=ManualClock())
    log.emit("rebuild", version=2)
    line = json.loads(log.to_jsonl().splitlines()[0])
    assert line == {"seq": 0, "at": 0.0, "kind": "rebuild", "version": 2}


def test_emit_thread_safety():
    log = EventLog(capacity=64, clock=ManualClock())
    n, per = 8, 500

    def work():
        for _ in range(per):
            log.emit("tick")

    threads = [threading.Thread(target=work) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert log.total() == n * per
    assert log.counts() == {"tick": n * per}
    assert len(log.snapshot()) == 64
