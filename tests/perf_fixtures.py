"""Seed-fixture fingerprints for the fast-path equivalence contract.

The perf overhaul (engine heap entries, packet pool, batched link
serialization, cached fluid allocations) must be *behaviour preserving*:
the optimized tree has to reproduce the exact floats the seed tree
produced.  This module computes JSON-serializable fingerprints of a
fluid run, a network-fluid run, a packet-level run, a packet-level run
through overlapping bottleneck faults, and a handful of ``water_fill``
vectors, with every float rendered via ``float.hex()`` so the comparison
in ``tests/test_perf_contracts.py`` is bit-exact.

The checked-in fixture (``tests/fixtures/perf_contracts_seed.json``) was
generated on the pre-optimization tree; the ``packet_faults`` entry on
the tree just before the link's one-event-per-hop rewrite.  Regenerate
it only when a change *intentionally* alters simulation numerics:

    PYTHONPATH=src python -m tests.perf_fixtures

Event *counts* are deliberately excluded: batched serialization changes
how many events a transfer schedules (that is the point) while leaving
every externally visible timestamp identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "perf_contracts_seed.json"


def _hex(value: float) -> str:
    return float(value).hex()


def fluid_fingerprint() -> dict[str, Any]:
    """Four MLTCP-weighted jobs on one 50 Gbps link, segments included."""
    from repro.fluid import run_fluid
    from repro.fluid.allocation import MLTCPWeighted
    from repro.workloads import four_job_scenario

    result = run_fluid(
        four_job_scenario(),
        capacity_gbps=50.0,
        policy=MLTCPWeighted(),
        max_iterations=8,
        seed=7,
    )
    return {
        "iterations": [
            [
                it.job,
                it.index,
                _hex(it.comm_start),
                _hex(it.comm_end),
                _hex(it.iteration_end),
            ]
            for it in result.iterations
        ],
        "end_time": _hex(result.end_time),
        "segments": [
            {
                "start": _hex(seg.start),
                "end": _hex(seg.end),
                "rates": {job: _hex(rate) for job, rate in sorted(seg.rates_bps.items())},
            }
            for seg in result.segments
        ],
    }


def network_fluid_fingerprint() -> dict[str, Any]:
    """Two jobs sharing a core link across a three-link path set."""
    from repro.fluid.network import PlacedJob, run_network_fluid
    from repro.workloads import two_job_scenario

    jobs = two_job_scenario(jitter_sigma=0.001)
    placements = [
        PlacedJob(job=jobs[0], links=("up", "core")),
        PlacedJob(job=jobs[1], links=("core", "down")),
    ]
    result = run_network_fluid(
        placements,
        {"up": 50.0, "core": 40.0, "down": 50.0},
        max_iterations=6,
        seed=11,
    )
    return {
        "iterations": [
            [
                it.job,
                it.index,
                _hex(it.comm_start),
                _hex(it.comm_end),
                _hex(it.iteration_end),
            ]
            for it in result.iterations
        ],
        "end_time": _hex(result.end_time),
    }


def packet_fingerprint() -> dict[str, Any]:
    """Two small MLTCP-Reno jobs through the packet simulator.

    Only app-level timestamps are captured: the batched link scheduler
    changes the event *count* by design, while delivery times (and hence
    every iteration boundary) must stay bit-identical.
    """
    from repro.harness.packetlab import mltcp_config_for, run_packet_jobs
    from repro.tcp.mltcp import MLTCPReno
    from repro.workloads.job import JobSpec

    template = JobSpec(
        name="Job",
        comm_bits=8e6,
        demand_gbps=1.0,
        compute_time=0.010,
        jitter_sigma=0.0005,
    )
    jobs = [template.with_name("Job1"), template.with_name("Job2")]
    lab = run_packet_jobs(
        jobs,
        lambda job: MLTCPReno(mltcp_config_for(job)),
        bottleneck_bps=1e9,
        max_iterations=6,
        seed=3,
    )
    return {
        "apps": {
            name: [
                [
                    it.index,
                    _hex(it.comm_start),
                    _hex(it.comm_end),
                    _hex(it.iteration_end),
                ]
                for it in app.iterations
            ]
            for name, app in sorted(lab.apps.items())
        },
    }


def packet_fault_fingerprint() -> dict[str, Any]:
    """The packet dumbbell replaying overlapping bottleneck faults.

    A rate degradation, an ECN storm and a link flap overlap on
    ``sw_l->sw_r``, so the link re-plans its unstarted transmissions
    (cancelled deliveries, a drained-then-refilled plan) while packets are
    queued and in flight; the storm ends with storm-marked packets still
    unstarted, so their marks are rolled back.  Job2 runs DCTCP so its
    packets are ECN-capable and the storm marks them.  App timestamps, the
    senders' window state and every link's counters are captured: the
    counters exact at any instant, including the backlog not yet on the
    wire (``len(link.queue)`` also holds started packets the link has not
    settled yet, so it is not).
    """
    from repro.faults import FaultEvent, FaultSchedule
    from repro.harness.packetlab import mltcp_config_for, run_packet_jobs
    from repro.tcp.dctcp import DctcpCC
    from repro.tcp.mltcp import MLTCPReno
    from repro.workloads.job import JobSpec

    template = JobSpec(
        name="Job",
        comm_bits=4e6,
        demand_gbps=1.0,
        compute_time=0.005,
        jitter_sigma=0.0005,
    )
    jobs = [template.with_name("Job1"), template.with_name("Job2")]
    schedule = FaultSchedule(
        events=(
            FaultEvent(kind="bandwidth", time=0.020, duration=0.030, factor=0.5),
            FaultEvent(kind="ecn_storm", time=0.025, duration=0.015),
            FaultEvent(kind="link_down", time=0.035, duration=0.004),
        ),
        seed=9,
    )
    lab = run_packet_jobs(
        jobs,
        lambda job: (
            MLTCPReno(mltcp_config_for(job)) if job.name == "Job1" else DctcpCC()
        ),
        bottleneck_bps=1e9,
        max_iterations=12,
        until=0.12,
        seed=5,
        faults=schedule,
    )
    return {
        "apps": {
            name: [
                [
                    it.index,
                    _hex(it.comm_start),
                    _hex(it.comm_end),
                    _hex(it.iteration_end),
                ]
                for it in app.iterations
            ]
            for name, app in sorted(lab.apps.items())
        },
        "links": {
            f"{src}->{dst}": [
                link.bits_sent,
                link.packets_sent,
                link.storm_marks,
                link.queue.enqueued,
                link.queue.drops,
                link.random_drops,
                link.fault_drops,
                link.queue.enqueued - link.packets_sent,
                link.conservation_delta(),
            ]
            for (src, dst), link in sorted(lab.network.links.items())
        },
        "senders": {
            name: [
                _hex(sender.cc.cwnd),
                _hex(sender.cc.ssthresh),
                _hex(getattr(sender.cc, "alpha", 0.0)),
                sender.snd_una,
                sender.segments_sent,
                sender.retransmissions,
                sender.timeouts,
                sender.fast_retransmits,
            ]
            for name, sender in sorted(lab.senders.items())
        },
    }


def water_fill_fingerprint() -> dict[str, Any]:
    """Fixed demand/weight vectors through ``water_fill``, rates in hex."""
    from repro.fluid.allocation import water_fill

    cases = {
        "undersubscribed": (
            {f"f{i}": 1e8 * (i + 1) for i in range(6)},
            {f"f{i}": 1.0 for i in range(6)},
            5e9,
        ),
        "oversubscribed_weighted": (
            {f"flow{i:02d}": 1e9 / (i + 2) for i in range(12)},
            {f"flow{i:02d}": 1.0 / (3 + i) for i in range(12)},
            2.5e9,
        ),
        "mixed_caps": (
            {"a": 4e9, "b": 1e9, "c": 2e9, "d": 5e8},
            {"a": 3.0, "b": 1.0, "c": 1.0, "d": 0.5},
            5e9,
        ),
        "zero_weights": (
            {"a": 2e9, "b": 2e9, "c": 1e9},
            {"a": 0.0, "b": 0.0, "c": 0.0},
            3e9,
        ),
    }
    out: dict[str, Any] = {}
    for name, (demands, weights, capacity) in cases.items():
        rates = water_fill(demands, weights, capacity)
        out[name] = {fid: _hex(rates[fid]) for fid in sorted(rates)}
    return out


def capture_all() -> dict[str, Any]:
    return {
        "fluid": fluid_fingerprint(),
        "network_fluid": network_fluid_fingerprint(),
        "packet": packet_fingerprint(),
        "packet_faults": packet_fault_fingerprint(),
        "water_fill": water_fill_fingerprint(),
    }


def main() -> None:
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(capture_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
