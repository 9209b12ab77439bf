"""Discrete-event simulation engine.

A minimal, fast event core: a binary heap of plain ``[time, sequence,
callback]`` list entries.  Everything in the packet-level simulator —
link serialization, propagation, TCP timers, application phases — is
built on :class:`Simulator.schedule`.

Performance notes (see docs/PERFORMANCE.md for measurements):

* Heap entries are plain lists, not dataclasses.  A ``[t, seq, cb]``
  literal costs ~50 ns to build; a ``@dataclass(order=True)`` instance
  costs ~5x that and drags rich comparison through ``__lt__`` on every
  sift.  Tuples would be marginally cheaper still, but entries must be
  mutable so cancellation and firing can overwrite the callback slot
  in place.
* The entry returned by :meth:`Simulator.schedule` *is* the cancellation
  token: pass it to :meth:`Simulator.cancel`.  Cancellation is O(1) — it
  nulls the callback slot and bumps a counter, so
  :meth:`Simulator.pending_events` never scans the queue.  Call sites
  that want an object with ``.cancel()`` (rare, timer-style code) can use
  :meth:`Simulator.schedule_handle`, which wraps the entry in a
  ``__slots__`` :class:`EventHandle`.
* The hot ``run()`` loop binds ``heappop``/the queue to locals and runs
  whenever no event budget, calendar front-end or monitor is active,
  with or without a horizon: it pops the next entry and, if it lies past
  ``until``, pushes the same ``[t, seq, cb]`` back (the heap order is
  total, so nothing reorders) and stops the clock at ``until``.
  Everything else takes the general loop, which dispatches in exactly
  the same order.
* ``Simulator(calendar=True)`` enables an optional bucketed "calendar"
  front-end: events that share an *exact* timestamp are appended to a
  per-time bucket and the heap holds one marker per distinct time, so N
  same-time timers cost one heap push instead of N.  Firing order is
  identical to the plain heap (insertion order within a timestamp).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Any, Callable, Deque, Dict, List, Optional, Protocol

__all__ = [
    "Simulator",
    "SimMonitor",
    "EventHandle",
    "EventEntry",
    "total_events_processed",
]


class SimMonitor(Protocol):
    """What the engine needs from a monitor (``repro.guards.GuardRail``).

    Duck-typed on purpose: the engine must stay importable without the
    guards package (no upward dependency), so it only requires this one
    method rather than the concrete class.
    """

    def violation(
        self, guard: str, subject: str, time: float, message: str
    ) -> object:
        """Report one invariant violation (see ``GuardRail.violation``)."""
        ...

#: Opaque token for a scheduled event.  Layout is ``[time, sequence,
#: callback]``; treat it as opaque outside this module and pass it to
#: :meth:`Simulator.cancel` / :meth:`Simulator.is_cancelled`.
EventEntry = List[Any]

#: Cumulative callbacks executed by every :class:`Simulator` in this process.
#: The harness telemetry layer (:mod:`repro.harness.telemetry`) snapshots it
#: around each experiment point to attribute simulation work per point, even
#: when the point builds several Simulator instances internally.
_TOTAL_EVENTS_PROCESSED = 0


def total_events_processed() -> int:
    """Process-wide count of simulator callbacks executed so far.

    Unlike :attr:`Simulator.events_processed` (one instance's counter), this
    aggregates across all instances created in the current process, which is
    what per-experiment-point instrumentation needs: one sweep point may run
    many simulations.  In a worker process forked by the experiment runner,
    the *delta* across a point is measured in that worker and shipped back.
    """
    return _TOTAL_EVENTS_PROCESSED


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._name

    def __call__(self) -> None:  # pragma: no cover - never fired
        raise AssertionError(f"sentinel {self._name} must not be called")


#: Callback-slot sentinel: the event already fired (cancel is a no-op).
_FIRED = _Sentinel("<fired>")
#: Callback-slot sentinel: heap entry is a marker for a calendar bucket.
_BUCKET = _Sentinel("<bucket>")


class EventHandle:
    """Object-style view of a scheduled event, for timer ergonomics.

    The fast path returns raw :data:`EventEntry` tokens; this wrapper
    exists for call sites that prefer ``handle.cancel()`` over
    ``sim.cancel(entry)`` and for backwards compatibility with the
    pre-rewrite API.  Build one with :meth:`Simulator.schedule_handle`.
    """

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: "Simulator", entry: EventEntry) -> None:
        self._sim = sim
        self._entry = entry

    @property
    def time(self) -> float:
        """Absolute simulation time the event fires at."""
        return float(self._entry[0])

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._entry[2] is None

    def cancel(self) -> None:
        """Cancel the underlying event (idempotent, O(1))."""
        self._sim.cancel(self._entry)


class Simulator:
    """Event queue with a monotonically advancing clock.

    :param calendar: enable the bucketed same-timestamp front-end
        (identical firing order, fewer heap operations when many events
        share exact times).  Default off.
    :param monitor: optional :class:`SimMonitor` (a
        ``repro.guards.GuardRail``).  When set, the event loop checks two
        engine invariants per dispatched event — dispatch times never run
        backwards (``engine-monotonic``) and the clock keeps advancing
        (``engine-stall``: ``stall_event_limit`` consecutive events at one
        timestamp is a zero-delay livelock).  When ``None`` (the default)
        the hot loop runs and nothing is paid.
    :param stall_event_limit: events allowed at a single timestamp before
        the monitor's ``engine-stall`` guard fires (once per run).
    """

    __slots__ = (
        "now",
        "_queue",
        "_counter",
        "_events_processed",
        "_cancelled",
        "_calendar",
        "_buckets",
        "_bucketed",
        "_monitor",
        "_stall_event_limit",
    )

    def __init__(
        self,
        calendar: bool = False,
        monitor: Optional[SimMonitor] = None,
        stall_event_limit: int = 1_000_000,
    ) -> None:
        if stall_event_limit < 1:
            raise ValueError(
                f"stall_event_limit must be positive, got {stall_event_limit!r}"
            )
        self.now: float = 0.0
        self._queue: list[EventEntry] = []
        self._counter = count()
        self._events_processed = 0
        #: Cancelled entries still resident in the queue (or buckets).
        self._cancelled = 0
        self._calendar = bool(calendar)
        self._buckets: Dict[float, Deque[EventEntry]] = {}
        #: Entries resident in calendar buckets (calendar mode only).
        self._bucketed = 0
        self._monitor = monitor
        self._stall_event_limit = stall_event_limit

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for performance reports)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventEntry:
        """Run ``callback`` ``delay`` seconds from now.

        Returns the opaque event entry; pass it to :meth:`cancel` to
        cancel the event (or ignore it — most call sites do).
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        time = self.now + delay
        entry = [time, next(self._counter), callback]
        if self._calendar:
            self._bucket_push(time, entry)
        else:
            heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventEntry:
        """Run ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: time={time!r} < now={self.now!r}"
            )
        entry = [time, next(self._counter), callback]
        if self._calendar:
            self._bucket_push(time, entry)
        else:
            heappush(self._queue, entry)
        return entry

    def schedule_handle(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """:meth:`schedule`, wrapped in an :class:`EventHandle`."""
        return EventHandle(self, self.schedule(delay, callback))

    def _bucket_push(self, time: float, entry: EventEntry) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((entry,))
            heappush(self._queue, [time, entry[1], _BUCKET])
        else:
            bucket.append(entry)
        self._bucketed += 1

    def cancel(self, entry: EventEntry) -> None:
        """Cancel a scheduled event (O(1), idempotent).

        Cancelling an event that already fired is a no-op, matching
        timer semantics: a late ``cancel`` after the callback ran must
        not corrupt the live-event bookkeeping.
        """
        cb = entry[2]
        if cb is None or cb is _FIRED:
            return
        entry[2] = None
        self._cancelled += 1

    def is_cancelled(self, entry: EventEntry) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return entry[2] is None

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Process events in time order.

        Stops when the queue empties, the clock passes ``until``, or
        ``max_events`` callbacks have run (a runaway guard for tests).
        """
        global _TOTAL_EVENTS_PROCESSED
        queue = self._queue
        processed = 0
        try:
            if max_events is not None or self._calendar or self._monitor is not None:
                processed = self._run_general(until, max_events)
            else:
                # Hot path: plain heap, no budget, no monitor.  An entry
                # past the horizon goes back on the heap (cancelled or not)
                # for a later run().
                horizon = inf if until is None else until
                pop = heappop
                while queue:
                    entry = pop(queue)
                    time = entry[0]
                    if time > horizon:
                        heappush(queue, entry)
                        self.now = horizon
                        break
                    cb = entry[2]
                    if cb is None:
                        self._cancelled -= 1
                        continue
                    entry[2] = _FIRED
                    self.now = time
                    cb()
                    processed += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._events_processed += processed
            _TOTAL_EVENTS_PROCESSED += processed

    def _run_general(
        self, until: Optional[float], max_events: Optional[int]
    ) -> int:
        """General loop: event budgets, calendar buckets and monitored
        invariant checks, with or without a horizon."""
        queue = self._queue
        processed = 0
        monitor = self._monitor
        stall_limit = self._stall_event_limit
        # Stall tracking: consecutive dispatches that fail to advance the
        # clock past ``last_time``.  Ordered comparisons only — exact float
        # equality is precisely what a zero-delay livelock produces, and we
        # must not depend on it (repro-lint FLT001).
        last_time = self.now
        stall_count = 0
        while queue:
            if max_events is not None and processed >= max_events:
                break
            entry = queue[0]
            time = entry[0]
            if until is not None and time > until:
                # Leave the entry queued so a later run() resumes, and
                # stop the clock exactly at the horizon.
                self.now = until
                break
            heappop(queue)
            cb = entry[2]
            if cb is None:
                self._cancelled -= 1
                continue
            if monitor is not None:
                if time < self.now:
                    monitor.violation(
                        "engine-monotonic",
                        "engine",
                        self.now,
                        f"event scheduled at {time!r} dispatched after the "
                        f"clock reached {self.now!r}",
                    )
                if time > last_time:
                    last_time = time
                    stall_count = 0
                else:
                    stall_count += 1
                    if stall_count == stall_limit:
                        monitor.violation(
                            "engine-stall",
                            "engine",
                            time,
                            f"{stall_count} consecutive events without the "
                            f"clock advancing past {last_time!r}; "
                            "zero-delay livelock?",
                        )
            if cb is _BUCKET:
                processed += self._drain_bucket(
                    time,
                    None if max_events is None else max_events - processed,
                )
                continue
            entry[2] = _FIRED
            self.now = time
            cb()
            processed += 1
        return processed

    def _drain_bucket(self, time: float, budget: Optional[int]) -> int:
        """Fire the calendar bucket at ``time``; returns callbacks run.

        Callbacks may schedule new events at the same timestamp; those
        land in a *fresh* bucket (with a fresh heap marker) and fire
        after this one drains, which is exactly the plain-heap order.
        If ``budget`` runs out mid-bucket the remainder is re-queued
        ahead of any such fresh bucket, preserving sequence order.
        """
        bucket = self._buckets.pop(time)
        self.now = time
        processed = 0
        while bucket:
            if budget is not None and processed >= budget:
                self._requeue_bucket_remainder(time, bucket)
                break
            entry = bucket.popleft()
            self._bucketed -= 1
            cb = entry[2]
            if cb is None:
                self._cancelled -= 1
                continue
            entry[2] = _FIRED
            cb()
            processed += 1
        return processed

    def _requeue_bucket_remainder(
        self, time: float, remainder: Deque[EventEntry]
    ) -> None:
        fresh = self._buckets.get(time)
        if fresh is None:
            self._buckets[time] = remainder
            heappush(self._queue, [time, remainder[0][1], _BUCKET])
        else:
            # A callback in this bucket scheduled same-time events before
            # the budget ran out; they must fire after the remainder.
            fresh.extendleft(reversed(remainder))

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty.

        Lazily prunes cancelled entries off the top, keeping the
        cancelled-count bookkeeping consistent so
        :meth:`pending_events` stays exact (regression: the pre-rewrite
        version popped without bookkeeping).
        """
        queue = self._queue
        while queue:
            top = queue[0]
            cb = top[2]
            if cb is None:
                heappop(queue)
                self._cancelled -= 1
                continue
            if cb is _BUCKET:
                bucket = self._buckets[top[0]]
                while bucket and bucket[0][2] is None:
                    bucket.popleft()
                    self._bucketed -= 1
                    self._cancelled -= 1
                if not bucket:
                    del self._buckets[top[0]]
                    heappop(queue)
                    continue
            return float(top[0])
        return None

    def pending_events(self) -> int:
        """Live (non-cancelled) events still queued — O(1)."""
        if self._calendar:
            return self._bucketed - self._cancelled
        return len(self._queue) - self._cancelled
