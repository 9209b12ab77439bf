"""Span tracing for the traced run.

The wrappers are installed from here, around the program's public
boundary functions, by replacing class and module attributes; nothing in
``src/`` knows about them.  Each span records its name, start, end and
parent.  Per-name totals (calls, self time, inclusive time) are kept for
every call; individual spans are kept in memory up to a cap (long spans
always) and written once, at the end, as Chrome trace-event JSON (opens
in Perfetto or ``chrome://tracing``).

A span's self time is its duration minus the time its child spans cover.
Work the event engine dispatches to functions that are not wrapped
(links' burst timers, apps' iteration callbacks) therefore counts as
``simulator.run`` self time.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable

from repro.fluid import allocation, flowsim, network
from repro.guards.watchdog import StepperWatchdog
from repro.harness import experiments
from repro.harness.telemetry import RunTelemetry
from repro.service import daemon, engine
from repro.service.admission import AdmissionController
from repro.service.journal import ServiceJournal
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.packet import PacketPool
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.mltcp import MltcpState

#: The layers spans are grouped into; a span name is ``<layer>.<what>``.
LAYERS = ("simulator", "tcp", "fluid", "service", "harness", "guards")

#: Individual spans kept for the Chrome trace (totals cover every call).
SPAN_CAP = 50_000
#: Spans at least this long are kept past the cap, so the outer spans of
#: every pass (which end last) are always in the written trace.
LONG_SPAN_S = 1e-3

_MISSING = object()


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._next_id = [0]
        self._top = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self._links: set[Link] = set()
        self._senders: set[TcpSender] = set()
        self._journal_sizes: dict[str, int] = {}
        self.reset()

    # ---------------------------------------------------------- bookkeeping

    def reset(self) -> None:
        """Forget the totals of the previous pass (kept spans stay)."""
        for stat in self.stats.values():
            stat[0] = stat[1] = stat[2] = 0.0
        for name in self.counts:
            self.counts[name] = 0
        self._top[0] = 0.0
        self.events = 0
        self.queue_peak = 0
        self.commit_bytes_last = 0
        self._links.clear()
        self._senders.clear()
        self._journal_sizes.clear()

    @property
    def top_s(self) -> float:
        """Time covered by outermost spans since :meth:`reset`."""
        return self._top[0]

    def queue_drops(self) -> int:
        return sum(link.queue.drops for link in self._links)

    def goodput_ratio(self) -> float:
        """Application segments over segments transmitted (0 without TCP)."""
        sent = sum(s.segments_sent for s in self._senders)
        resent = sum(s.retransmissions for s in self._senders)
        return (sent - resent) / sent if sent else 0.0

    # ------------------------------------------------------------- wrappers

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        stat = self.stats.setdefault(name, [0.0, 0.0, 0.0])
        stack, spans = self._stack, self.spans
        next_id, top = self._next_id, self._top
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = next_id[0]
            next_id[0] = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[0]
                stat[2] += duration
                if stack:
                    stack[-1][0] += duration
                else:
                    top[0] += duration
                if len(spans) < SPAN_CAP or duration >= LONG_SPAN_S:
                    spans.append((span_id, name, start, end, parent))

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls only (no span, no clock)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._patches.append((owner, attr, original))

    # --------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        tracer = self
        span, count, patch = self.span, self.counter, self._patch

        # harness: the figure drivers and the packet lab around the engines.
        patch(experiments, "fig6_packet_two_jobs", lambda f: span("harness.fig6", f))
        patch(experiments, "fig4_six_jobs", lambda f: span("harness.fig4", f))
        patch(experiments, "run_packet_jobs", lambda f: span("harness.packet_lab", f))
        patch(RunTelemetry, "record_service_snapshot", lambda f: span("harness.snapshot", f))

        # simulator: the event loop, link sends, the packet pool.
        def run_sim(fn):
            def run(sim, *args, **kwargs):
                before = sim.events_processed
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    tracer.events += sim.events_processed - before
            return span("simulator.run", run)

        def link_send(fn):
            links = self._links

            def send(link, packet):
                fn(link, packet)
                links.add(link)
                depth = len(link.queue)
                if depth > tracer.queue_peak:
                    tracer.queue_peak = depth
            return span("simulator.link_send", send)

        patch(Simulator, "run", run_sim)
        patch(Link, "send", link_send)
        patch(PacketPool, "acquire", lambda f: count("simulator.pool_acquires", f))

        # tcp: ACK handling, data receipt, MLTCP's Algorithm 1 update.
        def ack(fn):
            senders = self._senders

            def receive(sender, packet):
                senders.add(sender)
                return fn(sender, packet)
            return span("tcp.ack", receive)

        patch(TcpSender, "receive", ack)
        patch(TcpReceiver, "receive", lambda f: span("tcp.data_rx", f))
        patch(MltcpState, "observe_ack", lambda f: span("tcp.mltcp", f))
        patch(MltcpState, "aggressiveness", lambda f: count("tcp.mltcp_f_evals", f))

        # fluid: set-up, stepping loops, and the allocation kernels where
        # their callers bind them.
        patch(experiments, "run_fluid", lambda f: span("fluid.setup", f))
        patch(network, "run_network_fluid", lambda f: span("fluid.setup", f))
        patch(flowsim.FluidSimulator, "run", lambda f: span("fluid.run", f))
        patch(network.NetworkFluidSimulator, "run", lambda f: span("fluid.run", f))
        for policy in (allocation.FairShare, allocation.MLTCPWeighted):
            patch(policy, "allocate", lambda f: span("fluid.alloc", f))
            patch(policy, "cache_key", lambda f: count("fluid.cache_keys", f))
        patch(flowsim, "water_fill_array", lambda f: span("fluid.alloc", f))
        patch(network, "weighted_max_min", lambda f: span("fluid.alloc", f))
        patch(network, "weighted_max_min_array", lambda f: span("fluid.alloc", f))
        patch(engine, "water_fill_array", lambda f: span("fluid.alloc", f))

        # service: the daemon loop, live engine, admission, journal, fsync.
        def commit(fn):
            def commit_epoch(journal, epoch, state):
                try:
                    return fn(journal, epoch, state)
                finally:
                    key = str(journal.path)
                    size = os.stat(key).st_size
                    tracer.commit_bytes_last = size - self._journal_sizes.get(key, 0)
                    self._journal_sizes[key] = size
            return span("service.commit", commit_epoch)

        patch(daemon.ChurnDaemon, "__init__", lambda f: span("service.init", f))
        patch(daemon.ChurnDaemon, "run", lambda f: span("service.run", f))
        patch(engine.LiveFluidEngine, "step", lambda f: span("service.step", f))
        patch(AdmissionController, "offer", lambda f: span("service.admission", f))
        patch(AdmissionController, "drain", lambda f: span("service.admission", f))
        patch(ServiceJournal, "commit_epoch", commit)
        patch(os, "fsync", lambda f: span("service.fsync", f))

        # guards: the stepper watchdog's per-epoch audit.
        patch(StepperWatchdog, "check", lambda f: span("guards.watchdog", f))

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # --------------------------------------------------------------- output

    def write_chrome_trace(self, path: Path, passes: list[tuple[float, float]]) -> None:
        """Write the kept spans, plus one span per traced pass, as Chrome
        trace-event JSON (timestamps in microseconds)."""
        events = [
            {
                "name": "bench.pass", "cat": "bench", "ph": "X",
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1, "args": {"pass": i},
            }
            for i, (start, end) in enumerate(passes)
        ]
        events.extend(
            {
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1, "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent in self.spans
        )
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
