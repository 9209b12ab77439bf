"""Live float-loop fluid engine with job churn.

The batch simulator (:mod:`repro.fluid.flowsim`) integrates a *fixed* job
set over a closed horizon.  The service daemon needs the same fluid
dynamics — two-phase periodic jobs sharing one bottleneck under
water-filling — but over an *open* population: jobs are admitted while the
clock runs, and depart when their iteration budget is spent.  This module
is that engine: per-job state in plain Python lists (one list per field,
in admission order), integrated by a scalar float loop that allocates with
:func:`repro.fluid.allocation.water_fill` — bit-identical to the
``water_fill_array`` kernel, and cheaper at the populations a service
runs, where numpy's fixed per-call cost dominates (the batch engine's
small-population path makes the same choice).  ``admit`` appends to the
lists, a departure compacts them with a list filter.

Determinism contract (docs/SERVICE.md): every float the engine computes is
a pure function of (config, admitted specs in admission order, RNG state).
``state()`` captures the running set — the lists, the numpy ``Generator``
state, the clock — as one picklable dict, and ``load_state`` restores it
exactly, given the departure records the state has seen (the daemon's
journal stores each of those once, in the epoch it departed).  That is
what lets the write-ahead journal replay a killed run to bit-identical
telemetry.

Transitions sweep flows in ascending admission index, matching the batch
engine's RNG draw order; the water-fill sorts the *active* subset's names
per allocation, so shares do not depend on departed jobs.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.units import bps_from_gbps
from ..fluid.allocation import MLTCPWeighted, water_fill
# Not called here: kept as a module attribute so span tracers that wrap
# ``engine.water_fill_array`` keep installing against this module.
from ..fluid.allocation import water_fill_array  # noqa: F401
from ..workloads.job import JobSpec

__all__ = ["LiveFluidEngine", "ENGINE_POLICIES"]

#: Congestion-control modes the live engine supports.  Both ride the
#: water-fill: ``fair`` with unit weights (N synchronized Reno flows),
#: ``mltcp`` with the paper's linear ``F(bytes_ratio)`` weights.
ENGINE_POLICIES = ("fair", "mltcp")

_EPS_BITS = 1e-6
_EPS_TIME = 1e-12

PHASE_WAITING = 0
PHASE_COMM = 1
PHASE_COMPUTE = 2
PHASE_DONE = 3


class LiveFluidEngine:
    """One bottleneck link, a churning job population, fluid rates.

    Parameters
    ----------
    capacity_gbps:
        Bottleneck capacity (healthy; fault factors scale it per step).
    cc:
        ``"mltcp"`` or ``"fair"`` (:data:`ENGINE_POLICIES`).
    seed:
        Seeds the jitter RNG.  The RNG is part of :meth:`state`, so a
        restored engine continues the same draw sequence.
    quantum:
        Upper bound on one integration step, seconds (rate refresh cadence
        under smoothly-varying weights, as in the batch engine).
    slo_factor:
        A departed job met its SLO when its mean iteration time stayed
        within ``slo_factor`` times its isolation iteration time.
    capacity_factor:
        Optional pure function of simulated time returning the current
        fabric health factor (:meth:`repro.faults.fluid.FluidFaultState.\
        capacity_factor`).  Must be reconstructible from config — it is
        *not* journaled.
    next_transition:
        Optional pure function of time returning the next fault-state
        change, so integration never steps across a capacity edge.
    """

    #: Per-job lists, index-aligned with ``names``/``specs``; the running
    #: set that :meth:`state` journals.
    _STATE_FIELDS = (
        "phase", "demand_bps", "remaining", "sent", "cur_total", "deadline",
        "comm_start", "iter_index", "iter_limit", "iter_time_sum", "arrival",
    )

    def __init__(
        self,
        capacity_gbps: float,
        cc: str = "mltcp",
        *,
        seed: int = 0,
        quantum: float = 0.05,
        slo_factor: float = 1.5,
        capacity_factor: Optional[Callable[[float], float]] = None,
        next_transition: Optional[Callable[[float], Optional[float]]] = None,
    ) -> None:
        if capacity_gbps <= 0:
            raise ValueError(
                f"capacity_gbps must be positive, got {capacity_gbps!r}"
            )
        if cc not in ENGINE_POLICIES:
            raise ValueError(
                f"unknown cc {cc!r}; expected one of {ENGINE_POLICIES}"
            )
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        if slo_factor <= 0:
            raise ValueError(f"slo_factor must be positive, got {slo_factor!r}")
        self.capacity_bps = bps_from_gbps(capacity_gbps)
        self.cc = cc
        self.quantum = quantum
        self.slo_factor = slo_factor
        self._capacity_factor = capacity_factor
        self._next_transition = next_transition
        # The paper's deployed linear F (Eq. 2): slope/intercept lifted from
        # the same policy object the batch engine uses, so weights match.
        self._slope, self._intercept = MLTCPWeighted()._linear
        #: Clamp to vanilla CC (unit weights) while True — the fluid
        #: analogue of MLTCP's tracker fallback when churn outpaces the
        #: iteration signal (docs/ROBUSTNESS.md).
        self.fallback_engaged = False

        self.clock = 0.0
        self.rng = np.random.default_rng(seed)
        self.names: list[str] = []
        self.specs: list[JobSpec] = []
        self.phase: list[int] = []
        self.demand_bps: list[float] = []
        self.remaining: list[float] = []
        self.sent: list[float] = []
        self.cur_total: list[float] = []
        self.deadline: list[float] = []
        self.comm_start: list[float] = []
        self.iter_index: list[int] = []
        self.iter_limit: list[int] = []
        self.iter_time_sum: list[float] = []
        self.arrival: list[float] = []
        self.completed: list[dict] = []
        # Running SLO tally over ``completed`` (judged, met), so
        # :meth:`slo_attainment` costs O(1) however long the history.
        self._slo_judged = 0
        self._slo_met = 0

    # ------------------------------------------------------------------ churn

    @property
    def now(self) -> float:
        """Current simulated time, seconds.  Read-only from outside: the
        clock only advances inside :meth:`step` (the event loop owns it)."""
        return self.clock

    @property
    def running(self) -> int:
        """Jobs currently in the simulation (any phase but departed)."""
        return len(self.names)

    def admit(self, spec: JobSpec) -> None:
        """Add one job; its first iteration starts at
        ``max(now, spec.start_offset)`` (a deferred job starts on admission).
        """
        if spec.name in self.names:
            raise ValueError(f"job {spec.name!r} is already running")
        if spec.iteration_limit is None:
            raise ValueError(
                f"job {spec.name!r}: service jobs must carry an "
                "iteration_limit (open-ended jobs never depart)"
            )
        start = float(max(self.clock, spec.start_offset))
        self.names.append(spec.name)
        self.specs.append(spec)
        self.phase.append(PHASE_WAITING)
        self.demand_bps.append(float(spec.demand_bps))
        self.remaining.append(0.0)
        self.sent.append(0.0)
        self.cur_total.append(float(spec.comm_bits))
        self.deadline.append(start)
        self.comm_start.append(math.nan)
        self.iter_index.append(0)
        self.iter_limit.append(int(spec.iteration_limit))
        self.iter_time_sum.append(0.0)
        self.arrival.append(start)

    def _row(self, i: int) -> dict:
        """Telemetry row of running job ``i`` (schema v6 ``service[].jobs``)."""
        spec = self.specs[i]
        iterations = self.iter_index[i]
        mean_iter = self.iter_time_sum[i] / iterations if iterations else None
        return {
            "name": spec.name,
            "iterations": iterations,
            "mean_iteration_s": mean_iter,
            "slo_ok": (
                mean_iter <= self.slo_factor * spec.ideal_iteration_time
                if mean_iter is not None
                else None
            ),
        }

    def _tally(self, record: dict) -> None:
        if record["slo_ok"] is not None:
            self._slo_judged += 1
            self._slo_met += bool(record["slo_ok"])

    def _compact(self) -> list[dict]:
        """Drop departed jobs from the lists; returns their records."""
        records = []
        keep = []
        for i, code in enumerate(self.phase):
            if code != PHASE_DONE:
                keep.append(i)
                continue
            record = {
                **self._row(i),
                "arrival_s": self.arrival[i],
                "departure_s": float(self.clock),
                "ideal_iteration_s": self.specs[i].ideal_iteration_time,
            }
            self.completed.append(record)
            self._tally(record)
            records.append(record)
        self.names = [self.names[i] for i in keep]
        self.specs = [self.specs[i] for i in keep]
        for field in self._STATE_FIELDS:
            values = getattr(self, field)
            setattr(self, field, [values[i] for i in keep])
        return records

    # ---------------------------------------------------------------- stepping

    def _start_comm(self, i: int) -> None:
        volume = float(self.specs[i].sample_comm_bits(self.rng))
        self.phase[i] = PHASE_COMM
        self.remaining[i] = volume
        self.sent[i] = 0.0
        self.cur_total[i] = volume
        self.comm_start[i] = self.clock
        self.deadline[i] = math.nan

    def _sweep(self) -> bool:
        """Fire every due transition at ``now`` in ascending index order.

        Returns whether any job departed (the caller compacts *after* the
        sweep so indices stay stable inside it).  Loops until quiescent so
        zero-length compute phases cascade within one call, exactly like
        the batch engine's same-timestamp event chains.
        """
        phase, deadline = self.phase, self.deadline
        due = self.clock + _EPS_TIME
        departed = False
        fired = True
        while fired:
            fired = False
            for i, code in enumerate(phase):
                if code == PHASE_WAITING and deadline[i] <= due:
                    self._start_comm(i)
                    fired = True
                elif code == PHASE_COMM and self.remaining[i] <= _EPS_BITS:
                    compute = float(self.specs[i].sample_compute_time(self.rng))
                    phase[i] = PHASE_COMPUTE
                    deadline[i] = self.clock + compute
                    if compute > _EPS_TIME:
                        fired = True
                elif code == PHASE_COMPUTE and deadline[i] <= due:
                    self.iter_time_sum[i] += self.clock - self.comm_start[i]
                    self.iter_index[i] += 1
                    if self.iter_index[i] >= self.iter_limit[i]:
                        phase[i] = PHASE_DONE
                        departed = True
                    else:
                        self._start_comm(i)
                    fired = True
        return departed

    def step(self, until: float, max_steps: Optional[int] = None) -> list[dict]:
        """Advance the fluid state to ``until``; returns departure records.

        Raises ``RuntimeError`` on a livelocked integration (the step
        budget mirrors the batch engine's stall guard); the daemon's
        watchdog converts that into a supervised restart.
        """
        if until < self.clock - _EPS_TIME:
            raise ValueError(
                f"step target {until!r} precedes current time {self.clock!r}"
            )
        if max_steps is None:
            horizon = max(1.0, (until - self.clock) / self.quantum)
            max_steps = int(50 * max(1, len(self.names)) * horizon)
        # Loop invariants, hoisted.  The float operations below, and their
        # order, are the determinism contract: tests/fixtures/
        # serve_pinned.json pins the results to the ulp.
        quantum = self.quantum
        capacity_bps = self.capacity_bps
        capacity_factor = self._capacity_factor
        next_transition = self._next_transition
        slope, intercept = self._slope, self._intercept
        departures: list[dict] = []
        steps = 0
        while self.clock < until - _EPS_TIME:
            steps += 1
            if steps > max_steps:
                raise RuntimeError(
                    f"live engine exceeded {max_steps} steps integrating "
                    f"[{self.clock:g}, {until:g}] with {len(self.names)} jobs; "
                    "livelocked?"
                )
            if self._sweep():
                departures.extend(self._compact())
            clock = self.clock
            factor = capacity_factor(clock) if capacity_factor is not None else 1.0
            names, phase, deadline = self.names, self.phase, self.deadline
            remaining, sent, cur_total = self.remaining, self.sent, self.cur_total
            active: list[int] = []
            next_deadline = math.inf
            for i, code in enumerate(phase):
                if code == PHASE_COMM:
                    active.append(i)
                elif code != PHASE_DONE and deadline[i] < next_deadline:
                    next_deadline = deadline[i]
            # Rates aligned with ``active``; zero on a downed link.
            rates = [0.0] * len(active)
            if active and factor > 0.0:
                demand_bps = self.demand_bps
                demands = {names[i]: demand_bps[i] for i in active}
                if self.fallback_engaged or self.cc == "fair":
                    weights = dict.fromkeys(demands, 1.0)
                else:
                    weights = {}
                    for i in active:
                        ratio = sent[i] / cur_total[i]
                        if ratio > 1.0:
                            ratio = 1.0
                        weights[names[i]] = slope * ratio + intercept
                shares = water_fill(demands, weights, capacity_bps * factor)
                rates = [shares[names[i]] for i in active]
            dt = min(quantum, until - clock)
            if next_deadline > clock + _EPS_TIME:
                dt = min(dt, next_deadline - clock)
            if active:
                for i, rate in zip(active, rates):
                    if rate > _EPS_BITS:
                        drain = remaining[i] / rate
                        if drain < dt:
                            dt = drain
            elif next_deadline == math.inf:
                # Idle fabric: nothing to integrate, jump to the target.
                self.clock = until
                break
            if next_transition is not None:
                edge = next_transition(clock)
                if edge is not None and edge < until:
                    dt = min(dt, edge - clock)
            dt = max(dt, _EPS_TIME)
            for i, rate in zip(active, rates):
                delivered = rate * dt
                shrunk = remaining[i] - delivered
                remaining[i] = shrunk if shrunk > 0.0 else 0.0
                grown = sent[i] + delivered
                total = cur_total[i]
                sent[i] = grown if grown < total else total
            self.clock = clock + dt
        if self._sweep():
            departures.extend(self._compact())
        return departures

    # ------------------------------------------------------------- snapshots

    def job_rows(self) -> list[dict]:
        """Per-running-job telemetry rows (schema v6 ``service[].jobs``)."""
        return [self._row(i) for i in range(len(self.names))]

    def slo_attainment(self) -> Optional[float]:
        """Fraction of departed jobs that met their SLO (None before any)."""
        if not self._slo_judged:
            return None
        return self._slo_met / self._slo_judged

    # ------------------------------------------------------------ persistence

    def state(self) -> dict:
        """Picklable snapshot of the running set and the RNG.

        The departure history is *not* in it — only its length, under
        ``completed_count``; the caller keeps the records themselves (the
        daemon journals each once, in the epoch it departed) and hands
        them back to :meth:`load_state`.
        """
        payload = {
            "now": self.clock,
            # Value semantics, not a live Generator reference: the journal
            # keeps entries in memory, and an in-process rollback must not
            # see RNG draws made after the snapshot.
            "rng_state": self.rng.bit_generator.state,
            "names": list(self.names),
            "specs": list(self.specs),
            "completed_count": len(self.completed),
            "fallback_engaged": self.fallback_engaged,
        }
        for field in self._STATE_FIELDS:
            payload[field] = list(getattr(self, field))
        return payload

    def load_state(self, payload: dict, completed: Sequence[dict] = ()) -> None:
        """Restore a :meth:`state` snapshot bit-identically.

        ``completed`` is the departure history up to the snapshot, oldest
        first; its length must equal the snapshot's ``completed_count``.
        """
        if len(completed) != payload["completed_count"]:
            raise ValueError(
                f"state has seen {payload['completed_count']} departures but "
                f"{len(completed)} departure records were supplied"
            )
        self.clock = payload["now"]
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = payload["rng_state"]
        self.names = list(payload["names"])
        self.specs = list(payload["specs"])
        self.fallback_engaged = payload["fallback_engaged"]
        for field in self._STATE_FIELDS:
            setattr(self, field, list(payload[field]))
        self.completed = [dict(r) for r in completed]
        self._slo_judged = self._slo_met = 0
        for record in self.completed:
            self._tally(record)
