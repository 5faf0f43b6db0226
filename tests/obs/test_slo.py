"""SLO engine: burn-rate math, breach latching, events, fleet objectives."""

import numpy as np
import pytest

from repro.fleet import KNNFleet
from repro.fleet.admission import AdmissionPolicy
from repro.service import MicroBatchPolicy
from repro.obs.clock import ManualClock
from repro.obs.events import EventLog
from repro.obs.prometheus import parse_prometheus_text, render_text
from repro.obs.slo import DEFAULT_WINDOWS, SLO, SLOEngine, fleet_slos


def _counter_source(state):
    return lambda: (state["good"], state["total"])


def make_engine(objective=0.9, windows=((5.0, 2.0), (20.0, 1.0)), state=None):
    state = state if state is not None else {"good": 0.0, "total": 0.0}
    clock = ManualClock()
    events = EventLog()
    engine = SLOEngine(
        [
            SLO(
                name="test",
                description="test objective",
                objective=objective,
                source=_counter_source(state),
                windows=windows,
            )
        ],
        clock=clock,
        events=events,
    )
    return engine, clock, events, state


class TestSLOValidation:
    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 1.5])
    def test_objective_must_be_open_interval(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SLO("x", "d", objective, lambda: (0.0, 0.0))

    def test_needs_a_window(self):
        with pytest.raises(ValueError, match="window"):
            SLO("x", "d", 0.9, lambda: (0.0, 0.0), windows=())

    @pytest.mark.parametrize("window", [(0.0, 1.0), (10.0, 0.0), (-1.0, 1.0)])
    def test_window_values_positive(self, window):
        with pytest.raises(ValueError, match="positive"):
            SLO("x", "d", 0.9, lambda: (0.0, 0.0), windows=(window,))

    def test_error_budget(self):
        assert SLO("x", "d", 0.99, lambda: (0.0, 0.0)).error_budget == pytest.approx(0.01)

    def test_duplicate_names_rejected(self):
        slo = SLO("x", "d", 0.9, lambda: (0.0, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine([slo, slo])


class TestBurnRates:
    def test_no_traffic_reports_none_and_no_breach(self):
        engine, clock, events, _ = make_engine()
        for _ in range(3):
            clock.advance(1.0)
            status = engine.tick()["test"]
        assert all(w["burn_rate"] is None for w in status["windows"])
        assert status["breached"] is False
        assert events.total() == 0

    def test_all_good_traffic_burns_zero(self):
        engine, clock, _, state = make_engine()
        for _ in range(10):
            state["good"] += 5
            state["total"] += 5
            clock.advance(1.0)
            status = engine.tick()["test"]
        for window in status["windows"]:
            assert window["burn_rate"] == pytest.approx(0.0)

    def test_burn_rate_is_bad_fraction_over_budget(self):
        # objective 0.9 -> budget 0.1; 50% bad -> burn 5.0
        engine, clock, _, state = make_engine(objective=0.9)
        for _ in range(10):
            state["good"] += 5
            state["total"] += 10
            clock.advance(1.0)
            status = engine.tick()["test"]
        for window in status["windows"]:
            assert window["burn_rate"] == pytest.approx(5.0)

    def test_breach_requires_every_window(self):
        # One bad second: the 5s window burns at 2.0 (== its threshold) but
        # the 20s window dilutes to 0.5 < 1.0 -> no breach (multi-window AND).
        engine, clock, events, state = make_engine(windows=((5.0, 2.0), (20.0, 1.0)))
        short_burns = []
        for i in range(25):
            bad = i == 20
            state["good"] += 0 if bad else 10
            state["total"] += 10
            clock.advance(1.0)
            status = engine.tick()["test"]
            short_burns.append(status["windows"][0]["burn_rate"])
            assert status["breached"] is False
        assert max(b for b in short_burns if b is not None) >= 2.0
        assert [e.kind for e in events.snapshot() if e.kind == "slo_breach"] == []

    def test_breach_then_recovery_emits_event_pair(self):
        engine, clock, events, state = make_engine(
            objective=0.9, windows=((5.0, 2.0), (20.0, 1.0))
        )
        # healthy warm-up, sustained burst, then healthy again
        for i in range(60):
            bad = 20 <= i < 40
            state["good"] += 2 if bad else 10
            state["total"] += 10
            clock.advance(1.0)
            engine.tick()
        kinds = [e.kind for e in events.snapshot()]
        assert "slo_breach" in kinds
        assert "slo_recovered" in kinds
        assert kinds.index("slo_breach") < kinds.index("slo_recovered")
        status = engine.status()["test"]
        assert status["breached"] is False
        assert status["breaches"] >= 1

    def test_breach_latches_no_duplicate_events(self):
        engine, clock, events, state = make_engine(windows=((5.0, 1.0),))
        for _ in range(10):
            state["total"] += 10  # 100% bad
            clock.advance(1.0)
            engine.tick()
        breaches = [e for e in events.snapshot() if e.kind == "slo_breach"]
        assert len(breaches) == 1

    def test_explicit_at_drives_the_windows(self):
        engine, _, _, state = make_engine(windows=((5.0, 1.0),))
        state["total"] = 10.0
        engine.tick(at=100.0)
        state["total"] = 20.0
        status = engine.tick(at=103.0)["test"]
        assert status["windows"][0]["burn_rate"] == pytest.approx(10.0)

    def test_history_stays_bounded(self):
        engine, clock, _, state = make_engine(windows=((5.0, 1.0),))
        for _ in range(SLOEngine.MAX_HISTORY + 500):
            state["good"] += 1
            state["total"] += 1
            clock.advance(0.0001)
            engine.tick()
        (state_obj,) = engine._states.values()
        assert len(state_obj.history) <= SLOEngine.MAX_HISTORY


class TestFamilies:
    def test_families_render_and_strict_parse(self):
        engine, clock, _, state = make_engine()
        state["good"] += 9
        state["total"] += 10
        clock.advance(1.0)
        families = engine.families()
        names = [f.name for f in families]
        assert names == [
            "repro_slo_objective",
            "repro_slo_burn_rate",
            "repro_slo_breached",
            "repro_slo_breaches_total",
        ]
        parsed = parse_prometheus_text(render_text(families))
        assert set(parsed) == set(names)

    def test_families_tick_so_scrapes_are_live(self):
        engine, clock, _, state = make_engine(windows=((5.0, 1.0),))
        state["total"] = 100.0  # all bad
        clock.advance(1.0)
        engine.families()
        state["total"] = 200.0
        clock.advance(1.0)
        families = {f.name: f for f in engine.families()}
        (sample,) = families["repro_slo_breached"].samples
        assert sample.value == 1.0


class TestFleetSLOs:
    def test_standard_set_names(self):
        rng = np.random.default_rng(0)
        fleet = KNNFleet.build(rng.normal(size=(200, 3)), n_shards=2)
        try:
            assert [s.name for s in fleet.slo.slos] == [
                "latency",
                "availability",
                "replica_survival",
            ]
            for s in fleet.slo.slos:
                assert s.windows == DEFAULT_WINDOWS
        finally:
            fleet.close()

    def test_custom_windows_thread_through_build(self):
        rng = np.random.default_rng(0)
        fleet = KNNFleet.build(
            rng.normal(size=(200, 3)), n_shards=2, slo_windows=((2.0, 3.0),)
        )
        try:
            for s in fleet.slo.slos:
                assert s.windows == ((2.0, 3.0),)
        finally:
            fleet.close()

    def test_latency_source_reads_histogram(self):
        rng = np.random.default_rng(1)
        fleet = KNNFleet.build(rng.normal(size=(300, 3)), n_shards=2)
        try:
            for i in range(32):
                fleet.submit(rng.normal(size=3), at=i * 1e-3)
            fleet.drain()
            (latency,) = [s for s in fleet.slo.slos if s.name == "latency"]
            good, total = latency.source()
            assert total == 32.0
            assert 0.0 <= good <= total
        finally:
            fleet.close()

    def test_shed_burst_drives_availability_breach_and_recovery(self):
        rng = np.random.default_rng(2)
        clock = ManualClock()
        fleet = KNNFleet.build(
            rng.normal(size=(200, 3)),
            n_shards=2,
            admission_policy=AdmissionPolicy(max_pending=4, mode="shed"),
            # fixed large target: submits queue up instead of
            # dispatching immediately, so the burst overflows max_pending
            batch_policy=MicroBatchPolicy(max_batch=64, min_batch=64),
            clock=clock,
            slo_windows=((2.0, 1.0), (8.0, 0.5)),
        )
        try:
            at = 0.0
            # healthy phase: small batches, drained promptly
            for _ in range(10):
                at += 0.5
                fleet.submit(rng.normal(size=3), at=at)
                fleet.drain(at=at)
                clock.advance(0.5)
                fleet.slo.tick()
            # overload burst: overflow the pending queue so requests shed
            for _ in range(6):
                at += 0.1
                for _ in range(8):
                    try:
                        fleet.submit(rng.normal(size=3), at=at)
                    except KeyError:
                        pass
                fleet.drain(at=at)
                clock.advance(0.5)
                fleet.slo.tick()
            # recovery phase
            for _ in range(30):
                at += 0.5
                fleet.submit(rng.normal(size=3), at=at)
                fleet.drain(at=at)
                clock.advance(0.5)
                fleet.slo.tick()
            kinds = [
                e.kind
                for e in fleet.events.snapshot()
                if e.kind in ("slo_breach", "slo_recovered")
            ]
            assert "slo_breach" in kinds
            assert "slo_recovered" in kinds
            assert kinds.index("slo_breach") < kinds.index("slo_recovered")
        finally:
            fleet.close()

    def test_slo_metrics_in_fleet_scrape(self):
        rng = np.random.default_rng(3)
        fleet = KNNFleet.build(rng.normal(size=(200, 3)), n_shards=2)
        try:
            fleet.submit(rng.normal(size=3), at=0.0)
            fleet.drain()
            families = parse_prometheus_text(fleet.metrics_text())
            for name in (
                "repro_slo_objective",
                "repro_slo_burn_rate",
                "repro_slo_breached",
                "repro_slo_breaches_total",
            ):
                assert name in families, sorted(families)
        finally:
            fleet.close()

    def test_stats_reports_slo_and_histogram_quantiles(self):
        rng = np.random.default_rng(4)
        fleet = KNNFleet.build(rng.normal(size=(200, 3)), n_shards=2)
        try:
            for i in range(16):
                fleet.submit(rng.normal(size=3), at=i * 1e-3)
            fleet.drain()
            stats = fleet.stats()
            assert set(stats["slo"]) == {"latency", "availability", "replica_survival"}
            assert stats["p99_latency_s"] >= stats["p50_latency_s"] >= 0.0
            assert stats["p50_latency_s"] == pytest.approx(fleet.latency_quantile(0.5))
        finally:
            fleet.close()
