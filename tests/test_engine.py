"""Tests for the discrete-event engine."""

import random

import pytest

from repro.simulator.engine import EventHandle, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, lambda: order.append("c"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.2, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.schedule(0.5, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_during_callback(self):
        sim = Simulator()
        hits = []

        def chain():
            hits.append(sim.now)
            if len(hits) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert hits == [1.0, 2.0, 3.0]

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            Simulator().schedule(-0.1, lambda: None)

    def test_rejects_past_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(0.5, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        entry = sim.schedule(0.5, lambda: fired.append(1))
        sim.cancel(entry)
        sim.run()
        assert fired == []
        assert sim.is_cancelled(entry)

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        entry = sim.schedule(0.5, lambda: None)
        sim.cancel(entry)
        sim.cancel(entry)
        sim.run()
        assert sim.pending_events() == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        entry = sim.schedule(0.5, lambda: None)
        sim.run()
        sim.cancel(entry)  # late timer cancel: must not corrupt counts
        assert not sim.is_cancelled(entry)
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events() == 1

    def test_handle_wrapper_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_handle(0.5, lambda: fired.append(1))
        assert isinstance(handle, EventHandle)
        assert handle.time == pytest.approx(0.5)
        assert not handle.cancelled
        handle.cancel()
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled


class TestRunHorizon:
    def test_until_stops_clock_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        sim.run(until=1.0)
        assert fired == []
        assert sim.now == 1.0

    def test_run_resumes_after_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        sim.run(until=1.0)
        sim.run(until=3.0)
        assert fired == [1]

    def test_empty_queue_advances_to_until(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.001, forever)
        sim.run(max_events=100)
        assert sim.events_processed == 100


class _NoopMonitor:
    """A monitor that never objects; attaching it forces the general loop."""

    def violation(self, guard, subject, time, message):
        return None


class _FastOnly(Simulator):
    """A Simulator whose general loop must never run."""

    __slots__ = ()

    def _run_general(self, until, max_events):
        raise AssertionError("run(until=...) left the fast loop")


def _horizon_script(sim, seed):
    """A seeded schedule/cancel/``run(until=...)`` script; returns what it saw.

    Delays repeat (0.0 and 0.25) so same-time ties occur; callbacks
    schedule children and cancel earlier entries; horizons sometimes equal
    the clock and cancelled entries are left beyond them.  Every
    observation depends only on the firing order, so two engines that
    dispatch identically return identical lists.
    """
    rng = random.Random(seed)
    seen = []
    entries = []

    def event(label):
        def fire():
            seen.append((label, sim.now))
            if rng.random() < 0.3:
                delay = rng.choice((0.0, 0.25, rng.random()))
                entries.append(sim.schedule(delay, event(label + "+")))
            if rng.random() < 0.2:
                sim.cancel(rng.choice(entries))

        return fire

    for step in range(15):
        for i in range(rng.randrange(1, 8)):
            delay = rng.choice((0.0, 0.25, 2.0, rng.random() * 3.0))
            entries.append(sim.schedule(delay, event(f"{step}.{i}")))
        for _ in range(rng.randrange(0, 4)):
            sim.cancel(rng.choice(entries))
        sim.run(until=sim.now + rng.choice((0.0, 0.1, rng.random())))
        seen.append(("run", sim.now, sim.pending_events(), sim.events_processed))
    sim.run()
    seen.append(("end", sim.now, sim.pending_events(), sim.events_processed))
    return seen


class TestFastHorizonLoop:
    """``run(until=...)`` without budget, calendar or monitor takes a fast
    loop; it must dispatch exactly like the general (monitored) one."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_scripts_match_the_general_loop(self, seed):
        fast = _horizon_script(_FastOnly(), seed)
        general = _horizon_script(Simulator(monitor=_NoopMonitor()), seed)
        assert fast == general
        assert sum(1 for item in fast if item[0] not in ("run", "end")) > 20

    @pytest.mark.parametrize("monitor", [None, _NoopMonitor()])
    def test_cancelled_entries_beyond_the_horizon(self, monitor):
        sim = (_FastOnly if monitor is None else Simulator)(monitor=monitor)
        fired = []
        dead = sim.schedule(2.0, lambda: fired.append("dead"))
        sim.schedule(3.0, lambda: fired.append("live"))
        sim.cancel(dead)
        sim.run(until=1.0)
        assert (sim.now, sim.pending_events(), sim.events_processed) == (1.0, 1, 0)
        assert sim.peek_time() == 3.0
        sim.run(until=2.5)
        assert (fired, sim.now, sim.pending_events()) == ([], 2.5, 1)
        sim.run(until=3.0)
        assert (fired, sim.now, sim.pending_events()) == (["live"], 3.0, 0)
        assert sim.events_processed == 1

    @pytest.mark.parametrize("monitor", [None, _NoopMonitor()])
    def test_resuming_after_a_horizon_keeps_tie_order(self, monitor):
        sim = (_FastOnly if monitor is None else Simulator)(monitor=monitor)
        fired = []
        for name in "abcd":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.schedule(0.5, lambda: fired.append("early"))
        sim.run(until=0.75)
        assert fired == ["early"]
        sim.schedule(0.25, lambda: fired.append("e"))  # also at t=1.0
        sim.run(until=1.0)
        assert fired == ["early", "a", "b", "c", "d", "e"]
        assert sim.now == 1.0

    def test_horizon_on_an_event_time_fires_it(self):
        sim = _FastOnly()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run(until=1.0)
        assert fired == [1.0]
        assert sim.pending_events() == 0


class TestIntrospection:
    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(0.7, lambda: None)
        assert sim.peek_time() == pytest.approx(0.7)

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        entry = sim.schedule(0.1, lambda: None)
        sim.schedule(0.9, lambda: None)
        sim.cancel(entry)
        assert sim.peek_time() == pytest.approx(0.9)

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        entry = sim.schedule(0.2, lambda: None)
        sim.cancel(entry)
        assert sim.pending_events() == 1

    def test_peek_and_cancel_interleaving_keeps_counts_exact(self):
        # Regression: peek_time prunes cancelled entries off the heap; the
        # pre-rewrite engine dropped them without any bookkeeping, which
        # would desync an O(1) pending_events counter.  Interleave the two
        # aggressively and require exact counts and firings throughout.
        sim = Simulator()
        fired = []
        entries = [
            sim.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
            for i in range(6)
        ]
        sim.cancel(entries[0])
        sim.cancel(entries[1])
        assert sim.peek_time() == pytest.approx(0.3)  # prunes two cancelled tops
        assert sim.pending_events() == 4
        sim.cancel(entries[2])
        assert sim.pending_events() == 3
        assert sim.peek_time() == pytest.approx(0.4)
        sim.cancel(entries[5])
        assert sim.pending_events() == 2
        sim.run()
        assert fired == [3, 4]
        assert sim.pending_events() == 0
        assert sim.peek_time() is None


class TestCalendarMode:
    """The bucketed front-end must be observationally identical."""

    @staticmethod
    def _mixed_workload(sim):
        order = []
        # Same-timestamp bursts plus distinct times, some cancelled.
        for i in range(4):
            sim.schedule(0.5, lambda i=i: order.append(("burst", i)))
        sim.schedule(0.2, lambda: order.append(("early", 0)))
        dead = sim.schedule(0.5, lambda: order.append(("dead", 0)))
        sim.cancel(dead)
        sim.schedule(0.9, lambda: order.append(("late", 0)))

        def reschedule():
            order.append(("resched", 0))
            sim.schedule(0.0, lambda: order.append(("same-time-child", 0)))

        sim.schedule(0.5, reschedule)
        return order

    def test_matches_plain_heap_order(self):
        plain, calendar = Simulator(), Simulator(calendar=True)
        expected = self._mixed_workload(plain)
        observed = self._mixed_workload(calendar)
        plain.run()
        calendar.run()
        assert observed == expected
        assert calendar.events_processed == plain.events_processed

    def test_pending_peek_and_horizon(self):
        sim = Simulator(calendar=True)
        fired = []
        for i in range(3):
            sim.schedule(0.5, lambda i=i: fired.append(i))
        entry = sim.schedule(0.5, lambda: fired.append(99))
        sim.cancel(entry)
        sim.schedule(1.0, lambda: fired.append(10))
        assert sim.pending_events() == 4
        assert sim.peek_time() == pytest.approx(0.5)
        sim.run(until=0.25)
        assert fired == []
        assert sim.now == 0.25
        sim.run(until=0.75)
        assert fired == [0, 1, 2]
        assert sim.pending_events() == 1
        sim.run()
        assert fired == [0, 1, 2, 10]
        assert sim.pending_events() == 0

    def test_max_events_splits_bucket_resumably(self):
        sim = Simulator(calendar=True)
        fired = []
        for i in range(5):
            sim.schedule(0.5, lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]
        assert sim.pending_events() == 3
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_all_cancelled_bucket_peek(self):
        sim = Simulator(calendar=True)
        entries = [sim.schedule(0.5, lambda: None) for _ in range(3)]
        sim.schedule(0.9, lambda: None)
        for entry in entries:
            sim.cancel(entry)
        assert sim.peek_time() == pytest.approx(0.9)
        assert sim.pending_events() == 1


class TestProcessWideCounter:
    def test_total_events_accumulates_across_runs(self):
        from repro.simulator.engine import total_events_processed

        before = total_events_processed()
        sim = Simulator()
        for t in range(4):
            sim.schedule(0.1 * (t + 1), lambda: None)
        sim.run()
        assert total_events_processed() == before + 4

        other = Simulator()
        other.schedule(0.1, lambda: None)
        other.run()
        assert total_events_processed() == before + 5

    def test_counter_includes_early_stopped_runs(self):
        from repro.simulator.engine import total_events_processed

        before = total_events_processed()
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.001, forever)
        sim.run(max_events=10)
        assert total_events_processed() == before + 10
