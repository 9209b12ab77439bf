"""End-to-end benchmark of the MLTCP reproduction.

Usage, from the repository root::

    python3 e2ebench/run.py --workload serve_churn --seed 3 --seconds 20 --trace 0

One process runs one workload: it times set-up in fresh child
interpreters, runs one warm-up pass, then repeats timed passes of the
workload, from the inputs the seed makes, for ``--seconds``.  The
host-speed calibration loop (calibration.py) is sampled during every
pass, so times and throughputs are in reference seconds.  With
``--trace 1`` the passes alternate between untraced and traced ones, and
the per-layer metrics come from the traced passes (tracing.py).

Human-readable lines go first; the last line of standard output is the
JSON result: ``{"correct", "attempted", "failed", "metrics"}``.  The
workloads call the experiment functions directly: no worker pool and no
result cache are involved, and BLAS threads are pinned to one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench_out"
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5
#: A run ends once another pass would overrun ``--seconds``, but never
#: before this many untraced passes (and as many traced ones with --trace 1).
MIN_PASSES = 3
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="internal: time import + input building in this fresh "
        "process, print it as JSON and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _probe_setup(workload: str, seed: int) -> int:
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is timed)
    import workloads
    imported = time.perf_counter()
    workloads.WORKLOADS[workload].build(seed)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": built - imported}))
    return 0


def _run_probe(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the largest sample below 100 samples at q=99)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _ServiceHooks:
    """Timestamp hooks for serve_churn's untraced passes: one stamp per
    ``ServiceJournal.commit_epoch`` return, and the host time spent in
    ``os.fsync`` up to that stamp.  No span bookkeeping."""

    def __init__(self) -> None:
        from repro.service.journal import ServiceJournal

        self.journal_cls = ServiceJournal
        self.commit = ServiceJournal.commit_epoch
        self.fsync = os.fsync
        #: (stamp, fsync seconds so far) per committed epoch.
        self.stamps: list[tuple[float, float]] = []
        self.io_s = 0.0

    def __enter__(self) -> "_ServiceHooks":
        commit, fsync, stamps, clock = (
            self.commit, self.fsync, self.stamps, time.perf_counter
        )
        hooks = self

        def commit_epoch(journal, epoch, state):
            try:
                return commit(journal, epoch, state)
            finally:
                stamps.append((clock(), hooks.io_s))

        def timed_fsync(fd):
            start = clock()
            try:
                return fsync(fd)
            finally:
                hooks.io_s += clock() - start

        self.journal_cls.commit_epoch = commit_epoch
        os.fsync = timed_fsync
        return self

    def __exit__(self, *exc: object) -> None:
        self.journal_cls.commit_epoch = self.commit
        os.fsync = self.fsync

    def epochs(self, factor: float) -> list[float]:
        """Reference seconds between successive commits, fsync wait
        excluded (see :func:`main`)."""
        return [
            (t1 - t0 - (io1 - io0)) * factor
            for (t0, io0), (t1, io1) in zip(self.stamps, self.stamps[1:])
        ]


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: program source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "cache")
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return _probe_setup(args.workload, args.seed)

    import calibration
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"e2ebench: unknown workload {args.workload!r}; expected one of "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    scratch = OUT / f"{workload.name}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)

    attempted = failed = 0
    problems: list[str] = []

    def fail(what: str) -> None:
        nonlocal failed
        failed += 1
        problems.append(what)

    probes = []
    for _ in range(SETUP_PROBES):
        attempted += 1
        try:
            probes.append(_run_probe(workload.name, args.seed))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
            fail(f"set-up probe: {error}")
    if not probes:
        print(f"e2ebench: {problems[-1]}", file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    def one_pass(traced: bool):
        """Run one pass under the host-speed sampler; returns
        (outcome or None, start, end, speed, service hooks)."""
        nonlocal attempted
        attempted += 1
        gc.collect()
        hooks = _ServiceHooks() if workload.name == "serve_churn" else None
        if traced:
            tracer.reset()
            tracer.install()
        elif hooks is not None:
            hooks.__enter__()
        outcome = None
        with calibration.HostSpeed() as speed:
            start = time.perf_counter()
            try:
                outcome = workload.run(inputs, scratch)
            except Exception:  # a raising pass is a failed operation, not a crash
                fail(f"pass raised:\n{traceback.format_exc()}")
            end = time.perf_counter()
        if traced:
            tracer.uninstall()
        elif hooks is not None:
            hooks.__exit__()
        if outcome is not None and outcome.problems:
            fail("output check: " + "; ".join(outcome.problems))
        return outcome, start, end, speed, hooks

    records: list[dict] = []
    try:
        reference = one_pass(traced=False)[0]  # warm-up, untimed
        if reference is None:
            print(f"e2ebench: {problems[-1]}", file=sys.stderr)
            return 1
        clock_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            outcome, start, end, speed, hooks = one_pass(traced)
            elapsed = time.perf_counter() - clock_start
            if outcome is None:
                if elapsed > args.seconds:
                    print(f"e2ebench: {problems[-1]}", file=sys.stderr)
                    return 1
                continue
            if outcome.digest != reference.digest:
                fail("simulated results differ from the warm-up pass")
            wall = end - start
            factor = speed.factor
            # The journal's fsync wait is the shared disk's latency, not the
            # code's work, and no calibration applies to it: timed passes
            # leave it out, and the traced run reports it (service.fsync_s)
            # with the bytes the code wrote.
            if traced:
                io = tracer.stats.get("service.fsync", [0.0, 0.0, 0.0])[2]
            else:
                io = hooks.io_s if hooks is not None else 0.0
            record = {
                "traced": traced, "wall": wall,
                "ref_s": (wall - speed.spent_s - io) * factor,
                "spin_s": speed.spin_s, "iters": outcome.job_iters,
                "span": (start, end), "outcome": outcome,
            }
            print(
                f"  pass {len(records)}{' traced' if traced else ''}: "
                f"{wall:.4f} s host ({io:.4f} s in fsync), "
                f"{record['ref_s']:.4f} s reference, "
                f"spin {1e6 * speed.spin_s:.2f} us x {len(speed.samples)}"
            )
            if hooks is not None and not traced:
                record["epochs"] = hooks.epochs(factor)
            else:
                record["epochs"] = [record["ref_s"]]
            if traced:
                record["layers"] = _snapshot_layers(tracer, wall, factor)
            records.append(record)
            untraced = [r for r in records if not r["traced"]]
            traced_n = len(records) - len(untraced)
            enough = len(untraced) >= MIN_PASSES and (
                not args.trace or traced_n >= MIN_PASSES
            )
            typical = statistics.median(r["wall"] for r in records)
            if enough and elapsed + typical > args.seconds:
                break
            if elapsed > max(3 * args.seconds, 60.0):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [r for r in records if not r["traced"]]
    for what in problems:
        print(f"FAILED {what}", file=sys.stderr)
    setup = [p["import_s"] + p["inputs_s"] for p in probes]
    throughput = [r["iters"] / r["ref_s"] for r in untraced]
    raw_throughput = [r["iters"] / r["wall"] for r in untraced]
    # Every pass replays the same epochs, so each epoch's cost is its
    # median over the passes; that keeps one-off host stalls out of the
    # percentiles, which then describe how cost varies across epochs.  A
    # batch workload's pass is a single epoch.
    epochs = [statistics.median(col) for col in zip(*(r["epochs"] for r in untraced))]
    epochs_ms = [1000.0 * e for e in epochs]
    out = reference
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "job_iters_per_s": (statistics.median(throughput), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "iter_vs_ideal": (out.iter_vs_ideal, "ratio"),
        "p99_vs_ideal": (out.p99_vs_ideal, "ratio"),
        "slo_attainment": (out.slo_attainment, "ratio"),
        "epoch_p50_ms": (statistics.median(epochs_ms), "ms"),
        "epoch_p99_ms": (_percentile(epochs_ms, 99), "ms"),
    }
    spin_us = 1e6 * statistics.median(r["spin_s"] for r in untraced)
    print(
        f"e2ebench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(untraced)} untraced + {len(records) - len(untraced)} traced "
        f"passes after 1 warm-up, {out.job_iters} job-iterations per pass, "
        f"digest {out.digest[:16]}"
    )
    if out.detail:
        print("  detail: " + ", ".join(f"{k}={v:.6g}" for k, v in out.detail.items()))
    print(
        f"  host: raw {statistics.median(raw_throughput):.6g} job-iter/s, "
        f"calibration spin {spin_us:.4g} us (reference "
        f"{1e6 * calibration.REFERENCE_S:.4g} us); set-up is raw host time "
        f"over {len(probes)} fresh processes"
    )
    for name, (value, unit) in e2e.items():
        note = (
            f"  ({len(epochs_ms)} epoch(s) x {len(untraced)} passes)"
            if name.startswith("epoch_") else ""
        )
        print(f"  {name:<16} {value:12.6g} {unit}{note}")

    if args.trace:
        metrics = _per_layer(records, probes, e2e, raw_throughput, spin_us)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:14.6g} {unit}")
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write_chrome_trace(
            trace_path, [r["span"] for r in records if r["traced"]]
        )
        print(f"  chrome trace: {trace_path.relative_to(ROOT)} "
              f"({len(tracer.spans)} spans kept)")
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _snapshot_layers(tracer, wall: float, factor: float) -> dict:
    """Per-layer numbers of the traced pass that just ended, in reference
    seconds, except the fsync wait, which stays host time."""
    stats = {
        name: (s[0], s[1], s[2]) if name == "service.fsync"
        else (s[0], s[1] * factor, s[2] * factor)
        for name, s in tracer.stats.items()
    }
    from tracing import LAYERS

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_calls, self_s, _total) in stats.items():
        layer_self[name.split(".", 1)[0]] += self_s
    return {
        "stats": stats,
        "counts": dict(tracer.counts),
        "layer_self": layer_self,
        "events": tracer.events,
        "queue_drops": tracer.queue_drops(),
        "queue_peak": tracer.queue_peak,
        "goodput": tracer.goodput_ratio(),
        "commit_bytes_last": tracer.commit_bytes_last,
        "unattributed": (wall - tracer.top_s) / wall,
        "ref_s": wall * factor,
    }


def _per_layer(records, probes, e2e, raw_throughput, spin_us) -> dict:
    """Every per-layer metric, averaged over the traced passes."""
    traced = [r for r in records if r["traced"]]
    n = len(traced)

    def stat(name: str, field: int) -> float:
        return sum(r["layers"]["stats"].get(name, (0, 0.0, 0.0))[field] for r in traced) / n

    def mean(key: str) -> float:
        return sum(r["layers"][key] for r in traced) / n

    def count(name: str) -> float:
        return sum(r["layers"]["counts"].get(name, 0) for r in traced) / n

    def layer(name: str) -> float:
        return sum(r["layers"]["layer_self"][name] for r in traced) / n

    out = traced[-1]["outcome"]
    events = mean("events")
    alloc_calls = stat("fluid.alloc", 0)
    cache_keys = count("fluid.cache_keys")
    traced_tp = statistics.median(r["iters"] / r["ref_s"] for r in traced)
    m: dict[str, tuple[float, str]] = {
        "simulator.events": (events, "count"),
        "simulator.ns_per_event": (
            1e9 * stat("simulator.run", 2) / events if events else 0.0, "ns"
        ),
        "simulator.run_self_s": (stat("simulator.run", 1), "s"),
        "simulator.link_sends": (stat("simulator.link_send", 0), "count"),
        "simulator.link_send_s": (stat("simulator.link_send", 1), "s"),
        "simulator.queue_drops": (mean("queue_drops"), "count"),
        "simulator.queue_peak": (mean("queue_peak"), "packets"),
        "simulator.pool_acquires": (count("simulator.pool_acquires"), "count"),
        "tcp.acks": (stat("tcp.ack", 0), "count"),
        "tcp.ack_s": (stat("tcp.ack", 1), "s"),
        "tcp.data_rx": (stat("tcp.data_rx", 0), "count"),
        "tcp.data_rx_s": (stat("tcp.data_rx", 1), "s"),
        "tcp.mltcp_f_evals": (count("tcp.mltcp_f_evals"), "count"),
        "tcp.mltcp_s": (stat("tcp.mltcp", 1), "s"),
        "tcp.goodput_ratio": (mean("goodput"), "ratio"),
        "fluid.run_self_s": (stat("fluid.run", 1), "s"),
        "fluid.setup_s": (stat("fluid.setup", 1), "s"),
        "fluid.alloc_calls": (alloc_calls, "count"),
        "fluid.alloc_s": (stat("fluid.alloc", 1), "s"),
        "fluid.alloc_cache_hit_ratio": (
            # cache_key is consulted on the scalar path only, where every
            # allocation is a policy.allocate call.
            1.0 - alloc_calls / cache_keys if cache_keys else 0.0, "ratio"
        ),
        "fluid.alloc_per_iter": (alloc_calls / out.job_iters, "ratio"),
        "service.run_self_s": (stat("service.run", 1) + stat("service.init", 1), "s"),
        "service.step_calls": (stat("service.step", 0), "count"),
        "service.step_s": (stat("service.step", 1), "s"),
        "service.admission_s": (stat("service.admission", 1), "s"),
        "service.shed_ratio": (out.counters.get("shed_ratio", 0.0), "ratio"),
        "service.commits": (stat("service.commit", 0), "count"),
        "service.commit_s": (stat("service.commit", 1), "s"),
        "service.commit_bytes_last": (mean("commit_bytes_last"), "bytes"),
        "service.journal_bytes": (out.counters.get("journal_bytes", 0), "bytes"),
        "service.fsync_s": (stat("service.fsync", 1), "s"),
        "service.retries": (out.counters.get("retries", 0), "count"),
        "harness.self_s": (layer("harness") - stat("harness.snapshot", 1), "s"),
        "harness.snapshot_calls": (stat("harness.snapshot", 0), "count"),
        "harness.snapshot_s": (stat("harness.snapshot", 1), "s"),
        "guards.watchdog_checks": (stat("guards.watchdog", 0), "count"),
        "guards.watchdog_s": (stat("guards.watchdog", 1), "s"),
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "setup.inputs_s": (statistics.median(p["inputs_s"] for p in probes), "s"),
        "host.raw_job_iters_per_s": (statistics.median(raw_throughput), "1/s"),
        "host.spin_us": (spin_us, "us"),
        "trace.overhead": (e2e["job_iters_per_s"][0] / traced_tp - 1.0, "ratio"),
        "trace.unattributed_share": (mean("unattributed"), "ratio"),
        "trace.pass_s": (mean("ref_s"), "s"),
    }
    for name in ("simulator", "tcp", "fluid", "service", "guards"):
        m[f"{name}.self_s"] = (layer(name), "s")
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
