"""The four benchmark workloads.

Each workload is split into ``build(seed)``, which makes the inputs (the
set-up the benchmark times as ``setup.inputs_s``), and ``run(inputs,
scratch)``, one *pass*: a complete simulation from those inputs.  A pass
returns an :class:`Outcome` with the simulated work done, a digest of the
simulated results (identical on every pass of one seed), the fidelity
metrics and the list of output checks it broke.

Program functions are reached through their modules (``experiments.fig4_six_jobs``
rather than a name imported here), so the traced run's wrappers, which
replace module attributes, see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.fluid import fabric as fluid_fabric
from repro.fluid import network as fluid_network
from repro.harness import experiments
from repro.harness.telemetry import RunTelemetry
from repro.service import ChurnDaemon, ServiceConfig, ServiceJournal
from repro.workloads import ArrivalModel
from repro.workloads.job import JobSpec
from repro.workloads.placement import FabricSpec, place_jobs
from repro.workloads.presets import gpt2_fast_job, gpt2_job, six_job_scenario

#: A job meets its SLO when its mean iteration time is at most this
#: multiple of the ideal; the service's own default (ServiceConfig).
SLO_FACTOR = 1.5


@dataclass
class Outcome:
    """What one pass produced."""

    job_iters: int
    digest: str
    iter_vs_ideal: float
    p99_vs_ideal: float
    slo_attainment: float
    problems: list[str] = field(default_factory=list)
    #: Workload-specific numbers printed on the detail line.
    detail: dict[str, float] = field(default_factory=dict)
    #: Program counters the traced run reports (service shed/retries).
    counters: dict[str, float] = field(default_factory=dict)


def _digest(*parts: object) -> str:
    """sha256 over a canonical JSON of ``parts``; floats go through
    ``float.hex`` so the digest changes iff a simulated float does."""

    def canon(value: object) -> object:
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, np.ndarray):
            return [canon(float(v)) for v in value.ravel()]
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        return value

    blob = json.dumps(canon(list(parts)), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _tail(times: np.ndarray) -> np.ndarray:
    """The second half of a job's iterations, past the convergence
    transient every workload here settles within."""
    return times[len(times) // 2:]


def _batch_fidelity(
    per_job: dict[str, np.ndarray], ideal: dict[str, float]
) -> tuple[float, float, float]:
    """(mean, p99, SLO share) of tail iteration time over ideal, per job."""
    tail_means = np.array(
        [_tail(per_job[name]).mean() / ideal[name] for name in sorted(per_job)]
    )
    pooled = np.concatenate(
        [_tail(per_job[name]) / ideal[name] for name in sorted(per_job)]
    )
    return (
        float(tail_means.mean()),
        float(np.percentile(pooled, 99)),
        float(np.mean(tail_means <= SLO_FACTOR)),
    )


# ---------------------------------------------------------------------------
# packet_fig6: the packet-level fidelity reference
# ---------------------------------------------------------------------------


class PacketFig6:
    """Figure 6 at packet level: two MLTCP-Reno jobs, alpha ~ 0.44, on a
    1 Gbps dumbbell with a 64-packet drop-tail queue."""

    name = "packet_fig6"
    iterations = 40

    def build(self, seed: int) -> dict:
        return {"iterations": self.iterations, "seed": seed}

    def run(self, inputs: dict, scratch: Path) -> Outcome:
        result = experiments.fig6_packet_two_jobs(**inputs)
        ideal = result.ideal_iteration_time
        per_job = result.iteration_times
        _mean, p99, slo = _batch_fidelity(per_job, {n: ideal for n in per_job})
        problems = []
        for name, times in per_job.items():
            if len(times) != self.iterations:
                problems.append(f"{name} completed {len(times)} iterations")
        # The conditions tests/test_integration_packet.py asserts.
        first = np.mean([times[:3].mean() for times in per_job.values()])
        if not first > 1.25 * ideal:
            problems.append("jobs did not start congested")
        if result.converged_at is None:
            problems.append("MLTCP did not converge within 8% of the ideal")
        return Outcome(
            job_iters=sum(len(t) for t in per_job.values()),
            digest=_digest(per_job, result.converged_at),
            iter_vs_ideal=result.final_mean / ideal,
            p99_vs_ideal=p99,
            slo_attainment=slo,
            problems=problems,
            detail={"converged_at": float(result.converged_at or -1)},
        )


# ---------------------------------------------------------------------------
# fluid_six_jobs: the scalar small-n fluid path
# ---------------------------------------------------------------------------


class FluidSixJobs:
    """Figure 4: six GPT-2 jobs on one 50 Gbps link, fair share vs MLTCP."""

    name = "fluid_six_jobs"
    iterations = 400

    def build(self, seed: int) -> dict:
        jobs = six_job_scenario()
        return {
            "seed": seed,
            "ideal": {job.name: job.ideal_iteration_time for job in jobs},
        }

    def run(self, inputs: dict, scratch: Path) -> Outcome:
        result = experiments.fig4_six_jobs(
            iterations=self.iterations, seed=inputs["seed"]
        )
        ideal = inputs["ideal"]
        mltcp = result.mltcp_result
        per_job = {name: mltcp.iteration_times(name) for name in ideal}
        mean, p99, slo = _batch_fidelity(per_job, ideal)
        problems = []
        # The conditions tests/test_experiments.py::TestFig4 asserts that
        # do not depend on the seed.
        mltcp_last = mltcp.mean_iteration_by_round()[-5:].mean()
        if not math.isclose(mltcp_last, 1.8, rel_tol=0.03):
            problems.append(f"MLTCP final rounds {mltcp_last:.4f} s, not ~1.8 s")
        # The tests' thresholds for fair share (final rounds > 1.9 s, p99
        # speedup > 1.25) hold at their seed only; their direction holds
        # at every seed.
        reno_last = result.reno_result.mean_iteration_by_round()[-5:].mean()
        if not reno_last > mltcp_last:
            problems.append("fair share final rounds no slower than MLTCP's")
        if not result.tail_speedup_p99 > 1.0:
            problems.append("MLTCP p99 no better than fair share")
        iters = len(mltcp.iterations) + len(result.reno_result.iterations)
        return Outcome(
            job_iters=iters,
            digest=_digest(result.reno_times, result.mltcp_times),
            iter_vs_ideal=mean,
            p99_vs_ideal=p99,
            slo_attainment=slo,
            problems=problems,
            detail={"p99_speedup": result.tail_speedup_p99},
        )


# ---------------------------------------------------------------------------
# fluid_fabric: the array path over many links
# ---------------------------------------------------------------------------


class FluidOnFabric:
    """64 cross-rack MLTCP jobs spread over an 8-rack, 2-spine fat tree.

    The job shape is ``benchmarks/bench_scale_fluid.py``'s (25 MB per
    iteration at 10 Gbps, 50 ms compute, four start cohorts).  Hosts run at
    the jobs' 10 Gbps and racks are 4:1 oversubscribed, so each uplink is
    contended but its mean load fits: the regime where MLTCP can
    interleave, as in the paper's §4.
    """

    name = "fluid_fabric"
    n_jobs = 64
    iterations = 20
    spec = FabricSpec(
        n_racks=8, hosts_per_rack=16, n_spines=2, oversubscription=4.0,
        host_gbps=10.0,
    )

    def build(self, seed: int) -> dict:
        jobs = [
            JobSpec(
                name=f"J{i:03d}",
                comm_bits=2e8,
                demand_gbps=10.0,
                compute_time=0.05,
                start_offset=0.002 * (i % 4),
                jitter_sigma=0.0005,
            )
            for i in range(self.n_jobs)
        ]
        fabric = fluid_fabric.FluidFabric.from_spec(self.spec)
        placed = fabric.place(place_jobs(jobs, self.spec, policy="spread"))
        return {
            "placed": placed,
            "capacities": fabric.capacities_gbps,
            "seed": seed,
            "ideal": {job.name: job.ideal_iteration_time for job in jobs},
        }

    def run(self, inputs: dict, scratch: Path) -> Outcome:
        result = fluid_network.run_network_fluid(
            inputs["placed"],
            inputs["capacities"],
            mltcp=True,
            max_iterations=self.iterations,
            seed=inputs["seed"],
            quantum=0.05,
        )
        ideal = inputs["ideal"]
        per_job = {name: result.iteration_times(name) for name in ideal}
        mean, p99, slo = _batch_fidelity(per_job, ideal)
        problems = []
        if len(result.iterations) != self.n_jobs * self.iterations:
            problems.append(f"{len(result.iterations)} iterations completed")
        pooled = np.concatenate(list(per_job.values()))
        if not (np.all(np.isfinite(pooled)) and np.all(pooled > 0)):
            problems.append("non-finite or non-positive iteration time")
        overfull = [
            link for link, util in result.link_utilization().items()
            if util > 1.0 + 1e-9
        ]
        if overfull:
            problems.append(f"links above capacity: {overfull[:3]}")
        return Outcome(
            job_iters=len(result.iterations),
            digest=_digest(per_job),
            iter_vs_ideal=mean,
            p99_vs_ideal=p99,
            slo_attainment=slo,
            problems=problems,
        )


# ---------------------------------------------------------------------------
# serve_churn: the live service
# ---------------------------------------------------------------------------


class ServeChurn:
    """A journaled churn daemon: Poisson arrivals (open loop in simulated
    time), admission with deferral, the live engine, snapshots and the
    stepper watchdog."""

    name = "serve_churn"
    epochs = 1000

    def build(self, seed: int) -> dict:
        config = ServiceConfig(
            arrival=ArrivalModel(rate_per_s=0.6, horizon_s=float(self.epochs)),
            templates=(gpt2_fast_job("tplA"), gpt2_job("tplB")),
            seed=seed,
            epochs=self.epochs,
            max_running=8,
            shed_policy="defer",
            slo_factor=SLO_FACTOR,
        )
        return {"config": config}

    def run(self, inputs: dict, scratch: Path) -> Outcome:
        config = inputs["config"]
        path = scratch / "serve.journal"
        path.unlink(missing_ok=True)
        telemetry = RunTelemetry("e2ebench.serve_churn")
        try:
            daemon = ChurnDaemon(
                config,
                journal=ServiceJournal(path, retain=2),
                telemetry=telemetry,
            )
            summary = daemon.run()
            journal_bytes = path.stat().st_size
        finally:
            path.unlink(missing_ok=True)
        counters = summary["counters"]
        completed = summary["per_job"]["completed"]
        running = summary["per_job"]["running"]
        offered = summary["arrivals_offered"]
        problems = []
        # Every offered job is admitted, degraded, shed or still queued.
        placed = (
            counters["admitted"] + counters["degraded"] + counters["shed"]
            + summary["queue_depth"]
        )
        if placed != offered:
            problems.append(f"{offered} offered but {placed} accounted for")
        if counters["departed"] != len(completed):
            problems.append("departed counter disagrees with completed jobs")
        if counters["departed"] + len(running) != (
            counters["admitted"] + counters["degraded"]
        ):
            problems.append("admitted jobs neither running nor departed")
        if counters["recoveries"] != 0:
            problems.append(f"{counters['recoveries']} unexpected recoveries")
        if summary["epochs_run"] != self.epochs:
            problems.append(f"ran {summary['epochs_run']} epochs")
        if not completed or offered == 0:
            problems.append("no job offered or completed")
            return Outcome(0, "", math.nan, math.nan, math.nan, problems)
        iters = np.array([r["iterations"] for r in completed], dtype=float)
        mean_iter = np.array([r["mean_iteration_s"] for r in completed])
        ideal = np.array([r["ideal_iteration_s"] for r in completed])
        met = sum(1 for r in completed if r["slo_ok"])
        job_iters = int(iters.sum()) + sum(r["iterations"] for r in running)
        retries = sum(1 for d in telemetry.degradations if d["kind"] == "retry")
        return Outcome(
            job_iters=job_iters,
            digest=_digest(daemon.per_job_fingerprint(), counters),
            iter_vs_ideal=float((mean_iter * iters).sum() / (ideal * iters).sum()),
            p99_vs_ideal=float(np.percentile(mean_iter / ideal, 99)),
            slo_attainment=met / offered,
            problems=problems,
            detail={"offered": offered, "shed": counters["shed"]},
            counters={
                "shed_ratio": counters["shed"] / offered,
                "retries": retries,
                "journal_bytes": journal_bytes,
            },
        )


WORKLOADS = {
    w.name: w for w in (PacketFig6(), FluidSixJobs(), FluidOnFabric(), ServeChurn())
}
