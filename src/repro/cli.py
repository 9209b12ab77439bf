"""Command-line interface: regenerate any paper figure from the terminal.

Usage::

    python -m repro list
    python -m repro run fig2
    python -m repro run fig4 --fast
    python -m repro run all --fast --workers 4
    python -m repro run fig6 --no-cache --report fig6.run.json
    python -m repro validate-report bench_reports/ablation_noise.run.json
    python -m repro bench-compare bench_reports/perf_baseline.json
    python -m repro bench-compare current.json --baseline bench_reports/perf_baseline.json
    python -m repro lint src
    python -m repro lint --list-rules
    python -m repro faults --fast --workers 4
    python -m repro faults --resume --report faults.run.json
    python -m repro faults --schedule my_faults.json --substrate packet
    python -m repro guards my_run.run.json
    python -m repro guards --run --policy raise --substrate both
    python -m repro cross-rack --racks 4 --oversub 2 --substrate both
    python -m repro serve --epochs 20 --rate 0.8 --journal svc.journal
    python -m repro serve --resume --journal svc.journal --report svc.run.json
    python -m repro serve --query svc.journal
    python -m repro docs-check docs

Each figure runner prints the same rows/series its benchmark emits.  The
``--fast`` flag shrinks iteration counts for a quick smoke run (shapes
still hold, numbers are noisier).

Figures execute through the experiment runner
(:mod:`repro.harness.runner`): ``--workers N`` renders independent figures
on a process pool, results are cached under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``) so an unchanged figure re-prints instantly, and
``--no-cache`` forces recomputation.  ``--report PATH`` writes the JSON
run-report; ``validate-report`` checks such a report against the schema in
``docs/run_report.schema.json`` (see docs/HARNESS.md).

``faults`` sweeps the fault-recovery matrix (every fault class x policy x
substrate, see docs/FAULTS.md) with the runner's resilience features on:
per-point timeouts, retries, crash isolation, and a checkpoint file so
``--resume`` re-runs only the points that failed or never ran.

``bench-compare`` checks a pytest-benchmark report against a committed
performance baseline (docs/PERFORMANCE.md) and fails on regressions beyond
a threshold — the perf-gate behind ``make bench-perf``.

``guards`` is the runtime-guardrail front end (docs/ROBUSTNESS.md): given a
run-report it summarizes the v3 ``guards`` section and fails (exit 1) when
invariant violations were recorded; with ``--run`` it executes a guarded
fault-recovery experiment itself, attaching a
:class:`repro.guards.GuardRail` to both substrates — the smoke target
behind ``make guards-smoke``.

``cross-rack`` compares MLTCP against vanilla congestion control on a
parameterized multi-rack fat tree (racks, spines, oversubscription,
placement policy; docs/TOPOLOGIES.md) in either or both substrates, and
writes per-link utilization into the run-report's ``link_utilization``
section.

``serve`` runs the long-lived scheduling service (docs/SERVICE.md): an
open-loop arrival model admits jobs into the live array-backed fluid
engine under admission control and a watchdog-supervised stepper; with
``--journal`` every completed epoch is committed to a write-ahead journal
so a killed daemon resumes (``--resume``) to bit-identical state, and
``--query`` summarizes a journal without running.

``docs-check`` executes the python code fences of the markdown docs
(the gate behind ``make docs-check``) so documented examples can't rot.

``lint`` runs the repo's AST-based determinism/unit-safety analyzer
(docs/LINTING.md).  All subcommands share one error contract
(:mod:`repro.cliutil`): exit 0 on success, 1 when the checked input has
violations (lint findings, schema violations), 2 when the command could
not run (unreadable file, bad arguments); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .harness.experiments import (
    fairness_competition_share,
    fairness_loss_response,
    fig1_traffic_patterns,
    fig2_schedules,
    fig3_aggressiveness,
    fig4_six_jobs,
    fig5_loss_function,
    fig6_packet_two_jobs,
    noise_error_bound,
)
from .cliutil import EXIT_OK, fail, report_violations
from .harness.cache import ResultCache
from .harness.report import render_table, sparkline
from .harness.runner import ExperimentRunner
from .harness.telemetry import RUN_REPORT_SCHEMA, RunTelemetry, validate_run_report

__all__ = ["main", "FIGURES"]


def _fig1(fast: bool) -> str:
    traces = fig1_traffic_patterns(duration=3.0 if fast else 5.0)
    lines = ["Figure 1 — per-job offered load (Gbps)"]
    for name, (_times, demand) in traces.items():
        lines.append(f"  {name}: {sparkline(demand, width=70)}")
    return "\n".join(lines)


def _fig2(fast: bool) -> str:
    result = fig2_schedules(iterations=30 if fast else 60)
    names = ["J1", "J2", "J3", "J4"]
    return render_table(
        ["schedule"] + names,
        [
            ["optimal"] + [result.optimal_times[n] for n in names],
            ["srpt (early)"] + [result.srpt_times[n] for n in names],
            ["mltcp (converged)"] + [result.mltcp_times[n] for n in names],
        ],
        title=(
            "Figure 2 — iteration times (s); MLTCP gap vs optimal "
            f"{100 * result.mltcp_gap_vs_optimal:.2f}%, converged at "
            f"iteration {result.mltcp_converged_at}"
        ),
    )


def _fig3(fast: bool) -> str:
    series = fig3_aggressiveness(iterations=25 if fast else 40)
    lines = ["Figure 3 — mean iteration time per round (s)"]
    for key, values in series.items():
        lines.append(
            f"  {key}: {sparkline(values, width=60)}  final "
            f"{values[-5:].mean():.3f}"
        )
    return "\n".join(lines)


def _fig4(fast: bool) -> str:
    result = fig4_six_jobs(iterations=120 if fast else 400)
    return render_table(
        ["percentile", "Reno (s)", "MLTCP (s)"],
        [
            [f"p{q}", float(np.percentile(result.reno_times, q)),
             float(np.percentile(result.mltcp_times, q))]
            for q in (50, 90, 99)
        ],
        title=(
            "Figure 4 — six-job iteration-time CDF; tail speedup "
            f"{result.tail_speedup_p99:.2f}x (paper: 1.59x)"
        ),
    )


def _fig5(fast: bool) -> str:
    curves = fig5_loss_function(samples=121 if fast else 361)
    idx = int(np.argmin(curves["loss"]))
    lines = [
        "Figure 5(c) — interleaving loss over one period",
        f"  Loss:  {sparkline(curves['loss'], width=70)}",
        f"  Shift: {sparkline(curves['shift'], width=70)}",
        f"  minimum at delta = {curves['delta'][idx]:.3f} s (T/2 = "
        f"{curves['delta'][-1] / 2:.3f} s)",
    ]
    return "\n".join(lines)


def _fig6(fast: bool) -> str:
    result = fig6_packet_two_jobs(iterations=25 if fast else 40)
    lines = ["Figure 6 — packet-level two-job sliding (iteration times, ms)"]
    for name, times in result.iteration_times.items():
        lines.append(f"  {name}: {sparkline(times * 1000, width=60)}")
    lines.append(
        f"  ideal {1000 * result.ideal_iteration_time:.1f} ms, converged at "
        f"iteration {result.converged_at}, final "
        f"{1000 * result.final_mean:.1f} ms"
    )
    return "\n".join(lines)


def _noise(fast: bool) -> str:
    rows = noise_error_bound(
        sigmas=(0.002, 0.01) if fast else (0.001, 0.002, 0.005, 0.01, 0.02),
        iterations=1500 if fast else 4000,
    )
    return render_table(
        ["sigma", "measured std", "2*sigma*(1+I/S) bound"],
        [[r["sigma"], r["measured_std"], r["theory_bound"]] for r in rows],
        title="§4 — approximation error under noise",
    )


def _fairness(fast: bool) -> str:
    share = fairness_competition_share(
        loss_probs=(0.0,),
        horizon=0.5 if fast else 2.0,
        seeds=(1,) if fast else (1, 2, 3),
    )
    mathis = fairness_loss_response(
        loss_probs=(0.001, 0.004) if fast else (0.0005, 0.001, 0.002, 0.004),
        transfer_bytes=8_000_000 if fast else 20_000_000,
    )
    return "\n\n".join(
        [
            render_table(
                ["loss", "MLTCP Mbps", "Reno Mbps", "share"],
                [
                    [r["loss_prob"], r["mltcp_mbps"], r["reno_mbps"], r["share_ratio"]]
                    for r in share
                ],
                title="§5 — competition share (saturated MLTCP vs Reno)",
            ),
            render_table(
                ["loss", "Reno Mbps", "Mathis model"],
                [
                    [r["loss_prob"], r["reno_mbps"], r["mathis_prediction_mbps"]]
                    for r in mathis
                ],
                title="§5 — Reno vs the 1/sqrt(p) law",
            ),
        ]
    )


FIGURES: dict[str, tuple[str, Callable[[bool], str]]] = {
    "fig1": ("traffic patterns of the four jobs", _fig1),
    "fig2": ("centralized vs SRPT vs MLTCP", _fig2),
    "fig3": ("aggressiveness functions F1-F6", _fig3),
    "fig4": ("six jobs: Reno vs MLTCP CDF", _fig4),
    "fig5": ("the interleaving loss function", _fig5),
    "fig6": ("packet-level two-job sliding", _fig6),
    "noise": ("§4 approximation-error bound", _noise),
    "fairness": ("§5 fairness vs legacy TCP", _fairness),
}


def _render_figure(figure: str, fast: bool) -> str:
    """Render one figure to its report text (a runner point; top-level so
    ``--workers`` can execute figures on pool workers)."""
    _description, fn = FIGURES[figure]
    return fn(fast)


def _run_command(args) -> int:
    """Execute ``repro run`` through the cached/parallel experiment runner."""
    targets = list(FIGURES) if args.figure == "all" else [args.figure]
    runner = ExperimentRunner(
        name="cli.run",
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        telemetry=RunTelemetry("cli.run"),
    )
    outputs = runner.run_points(
        _render_figure, [{"figure": name, "fast": args.fast} for name in targets]
    )
    for text in outputs:
        print(text)
        print()
    if args.report:
        path = runner.telemetry.write(args.report)
        print(f"run-report written to {path}")
    print(runner.telemetry.summary_line())
    return 0


#: Default journal for ``repro faults`` sweeps (``--checkpoint`` overrides).
DEFAULT_FAULTS_CHECKPOINT = "faults.checkpoint.jsonl"


def _faults_command(args) -> int:
    """Execute ``repro faults``: the recovery matrix with resilience on."""
    from .faults.schedule import FAULT_KINDS, FaultSchedule
    from .harness.checkpoint import RunCheckpoint
    from .harness.experiments import fault_recovery
    from .harness.runner import FailedPoint

    schedule_json: Optional[str] = None
    if args.schedule is not None:
        try:
            schedule_json = Path(args.schedule).read_text()
            FaultSchedule.from_json(schedule_json)  # fail fast, actionable
        except (OSError, ValueError) as error:
            return fail(f"cannot use fault schedule {args.schedule}: {error}")

    faults = ["custom"] if schedule_json else args.classes.split(",")
    unknown = [f for f in faults if f != "custom" and f not in FAULT_KINDS]
    if unknown:
        return fail(
            f"unknown fault class(es) {unknown}; valid: {sorted(FAULT_KINDS)}"
        )
    policies = args.policies.split(",")
    substrates = ["fluid", "packet"] if args.substrate == "both" else [args.substrate]

    points = [
        {
            "fault": fault,
            "policy": policy,
            "substrate": substrate,
            "iterations": (40 if args.fast else 80)
            if substrate == "fluid"
            else (30 if args.fast else 60),
            "seed": args.seed,
            **({"schedule_json": schedule_json} if schedule_json else {}),
        }
        for substrate in substrates
        for fault in faults
        for policy in policies
    ]

    checkpoint = RunCheckpoint(args.checkpoint)
    if not args.resume and len(checkpoint):
        checkpoint.clear()  # fresh sweep unless --resume asked to keep it

    runner = ExperimentRunner(
        name="cli.faults",
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        telemetry=RunTelemetry("cli.faults"),
        timeout=args.timeout,
        retries=args.retries,
        isolate_failures=True,
        checkpoint=checkpoint,
    )
    results = runner.run_points(fault_recovery, points)

    rows = []
    failed = 0
    for point, result in zip(points, results):
        if isinstance(result, FailedPoint):
            failed += 1
            rows.append(
                [point["substrate"], point["fault"], point["policy"],
                 "-", "-", f"FAILED ({result.kind})"]
            )
            continue
        # Every injected fault the point replayed goes into the report's
        # degradations section, tagged with the point that saw it.
        for line in result.fault_log:
            runner.telemetry.record_degradation(
                "fault", line, params=point
            )
        rows.append(
            [result.substrate, result.fault, result.policy,
             result.disturbed_rounds,
             f"{result.reconverged_at}/{len(result.series)}",
             "yes" if result.recovered else "NO"]
        )
    print(
        render_table(
            ["substrate", "fault", "policy", "disturbed rounds",
             "reconverged at", "recovered"],
            rows,
            title="Fault recovery — rounds perturbed beyond tolerance "
            "(vs a fault-free control run)",
        )
    )
    if failed:
        print(
            f"\n{failed} point(s) failed; details in the run-report's "
            f"degradations section. Re-run with --resume to retry only those."
        )
    if args.report:
        path = runner.telemetry.write(args.report)
        print(f"run-report written to {path}")
    print(runner.telemetry.summary_line())
    return 0


def _guards_command(args) -> int:
    """Execute ``repro guards``: summarize or produce guardrail telemetry.

    Exit codes follow :mod:`repro.cliutil`: 0 when no invariant violation
    was found, 1 when violations exist (in the report or during ``--run``),
    2 when the input cannot be read.
    """
    import json

    from .harness.report import render_guard_summary

    if args.run:
        return _guards_run_command(args)
    if args.report_file is None:
        return fail("give a run-report to summarize, or --run to produce one")
    try:
        report = json.loads(Path(args.report_file).read_text())
    except (OSError, ValueError) as error:
        return fail(f"cannot read report {args.report_file}: {error}")
    guards = report.get("guards")
    if guards is None:
        print(
            f"{args.report_file}: no guards section "
            f"(schema v{report.get('schema_version', '?')} report predates v3)"
        )
        return EXIT_OK
    print(render_guard_summary(guards))
    violations = guards.get("violations", [])
    if violations:
        return report_violations(
            f"{args.report_file}: {len(violations)} invariant violation(s)",
            [str(v.get("detail", "")) for v in violations],
        )
    return EXIT_OK


def _guards_run_command(args) -> int:
    """Execute ``repro guards --run``: guarded fault-recovery end to end.

    Attaches one :class:`~repro.guards.GuardRail` per substrate to a
    :func:`~repro.harness.experiments.fault_recovery` run, then partitions
    everything the rail caught into the v3 ``guards`` telemetry section:
    fallback-engaged reports (MLTCP degrading to vanilla CC) are
    *degradations* — expected, graceful —, everything else is a genuine
    invariant *violation* and fails the command.
    """
    from .faults.schedule import FAULT_KINDS
    from .guards import GuardRail, GuardViolationError
    from .harness.experiments import fault_recovery
    from .harness.report import render_guard_summary

    if args.fault not in FAULT_KINDS:
        return fail(
            f"unknown fault class {args.fault!r}; valid: {sorted(FAULT_KINDS)}"
        )
    substrates = (
        ["fluid", "packet"] if args.substrate == "both" else [args.substrate]
    )
    telemetry = RunTelemetry("cli.guards")
    rows = []
    hard_failures: list[str] = []
    for substrate in substrates:
        rail = GuardRail(args.policy)
        iterations = (
            args.iterations
            if args.iterations is not None
            else (40 if substrate == "fluid" else 30)
        )
        episodes = 0
        try:
            result = fault_recovery(
                args.fault,
                args.cc,
                substrate,
                iterations=iterations,
                seed=args.seed,
                guards=rail,
            )
        except GuardViolationError as error:
            # The raising violation is already recorded in the rail; the
            # run itself could not finish.
            hard_failures.append(f"{substrate}: {error}")
            recovered = "ABORTED"
        else:
            recovered = "yes" if result.recovered else "NO"
            episodes = len(result.degradation_episodes)
        for violation in rail.violations:
            telemetry.record_guard_event(
                "degradation" if violation.fallback_engaged else "violation",
                violation.render(),
                guard=violation.guard,
                subject=violation.subject,
                time=violation.time,
                params={"substrate": substrate, "fault": args.fault},
            )
        genuine = sum(1 for v in rail.violations if not v.fallback_engaged)
        rows.append([substrate, args.fault, genuine, episodes, recovered])
    print(
        render_table(
            ["substrate", "fault", "violations", "degradations", "recovered"],
            rows,
            title=(
                f"repro guards --run (cc={args.cc}, policy={args.policy}, "
                f"seed={args.seed})"
            ),
        )
    )
    report = telemetry.as_report()
    print(render_guard_summary(report["guards"]))
    if args.report:
        path = telemetry.write(args.report)
        print(f"run-report written to {path}")
    problems = hard_failures + [
        str(e["detail"]) for e in report["guards"]["violations"]
    ]
    if problems:
        return report_violations(
            f"guards run: {len(problems)} invariant violation(s)", problems
        )
    return EXIT_OK


def _validate_report_command(report_path: str, schema_path: Optional[str]) -> int:
    """Validate a JSON run-report.

    Exit codes follow :mod:`repro.cliutil`: 0 when the report conforms,
    1 on schema violations, 2 when the report/schema cannot be read.
    """
    import json

    try:
        report = json.loads(Path(report_path).read_text())
    except (OSError, ValueError) as error:
        return fail(f"cannot read report {report_path}: {error}")
    schema = RUN_REPORT_SCHEMA
    if schema_path is not None:
        try:
            schema = json.loads(Path(schema_path).read_text())
        except (OSError, ValueError) as error:
            return fail(f"cannot read schema {schema_path}: {error}")
    errors = validate_run_report(report, schema)
    if errors:
        return report_violations(
            f"{report_path}: {len(errors)} schema violation(s)", errors
        )
    totals = report.get("totals", {})
    print(
        f"{report_path}: valid run-report "
        f"({totals.get('points', '?')} points, "
        f"{totals.get('cache_hits', '?')} cache hits)"
    )
    return EXIT_OK


#: Default comparison point for ``repro bench-compare``: the pre-optimization
#: seed numbers (bench_reports/perf_seed.json).  ``make bench-perf`` passes
#: ``--baseline bench_reports/perf_baseline.json`` to gate fresh runs against
#: the current optimized tree instead.
DEFAULT_BENCH_BASELINE = "bench_reports/perf_seed.json"


def _bench_compare_command(args) -> int:
    """Execute ``repro bench-compare``: perf gate against a baseline file.

    Exit codes follow :mod:`repro.cliutil`: 0 when every benchmark is within
    the regression threshold, 1 when one regressed (or vanished), 2 when a
    report cannot be read.
    """
    from .harness.perfbench import compare, load_report, write_baseline

    try:
        current = load_report(args.current)
    except (OSError, ValueError, KeyError, TypeError) as error:
        return fail(f"cannot read benchmark report {args.current}: {error}")
    try:
        baseline = load_report(args.baseline)
    except (OSError, ValueError, KeyError, TypeError) as error:
        return fail(f"cannot read baseline {args.baseline}: {error}")
    if args.threshold < 0:
        return fail(f"--threshold must be non-negative, got {args.threshold!r}")

    if args.select:
        import fnmatch

        baseline = {
            name: stat
            for name, stat in baseline.items()
            if fnmatch.fnmatchcase(name, args.select)
        }
        if not baseline:
            return fail(
                f"--select {args.select!r} matches no benchmark in "
                f"{args.baseline}"
            )

    comparison = compare(current, baseline, threshold=args.threshold)
    print(
        render_table(
            ["benchmark", "baseline min (ms)", "current min (ms)", "speedup"],
            [
                [
                    row.name,
                    row.baseline_min * 1e3,
                    row.current_min * 1e3,
                    f"{row.speedup:.2f}x",
                ]
                for row in comparison.rows
            ],
            title=(
                f"bench-compare — {args.current} vs {args.baseline} "
                f"(regression threshold {args.threshold:.0%})"
            ),
        )
    )
    if args.save:
        path = write_baseline(args.save, current, note=args.note)
        print(f"compact baseline written to {path}")
    if not comparison.ok:
        details = [
            f"{row.name}: {row.current_min * 1e3:.3f} ms vs baseline "
            f"{row.baseline_min * 1e3:.3f} ms ({row.speedup:.2f}x)"
            for row in comparison.regressions
        ] + [
            f"{name}: in baseline but missing from the current report"
            for name in comparison.missing
        ]
        return report_violations(
            f"{args.current}: {len(details)} benchmark gate violation(s)", details
        )
    return EXIT_OK


def _compat_command(scenario_path: str, capacity_gbps: float) -> int:
    """Check a saved scenario (JSON) against the §4 compatibility precondition."""
    from .schedulers.compatibility import best_compatibility
    from .workloads.traceio import load_scenario

    jobs = [j.with_jitter(0.0) for j in load_scenario(scenario_path)]
    score, schedule = best_compatibility(jobs, capacity_gbps)
    print(
        render_table(
            ["job", "ideal iteration (s)", "optimized offset (s)"],
            [
                [j.name, j.ideal_iteration_time, schedule.offset_of(j.name)]
                for j in jobs
            ],
            title=f"{scenario_path} on a {capacity_gbps:g} Gbps bottleneck",
        )
    )
    if score >= 1.0 - 1e-9:
        verdict = (
            "interleaved schedule exists - the paper's convergence "
            "guarantee applies"
        )
    else:
        verdict = (
            "no zero-contention interleave: MLTCP converges to the "
            "least-contended configuration instead"
        )
    print(f"\nbest compatibility score: {score:.4f} ({verdict})")
    return 0


def _cross_rack_command(args) -> int:
    """Execute ``repro cross-rack``: MLTCP vs vanilla CC on a fat tree.

    Runs :func:`~repro.harness.experiments.cross_rack_interleaving` for
    each requested substrate through the experiment runner, prints the
    per-link contention analysis and converged iteration times, and
    records every fabric link's utilization (both policies) into the
    run-report's ``link_utilization`` section (docs/TOPOLOGIES.md).
    """
    from .harness.experiments import cross_rack_interleaving
    from .workloads.placement import PLACEMENT_POLICIES

    if args.placement not in PLACEMENT_POLICIES:
        return fail(
            f"unknown placement policy {args.placement!r}; "
            f"valid: {list(PLACEMENT_POLICIES)}"
        )
    substrates = (
        ["fluid", "packet"] if args.substrate == "both" else [args.substrate]
    )
    iterations = args.iterations
    if iterations is None:
        iterations = 20 if args.fast else 40
    points = [
        {
            "substrate": substrate,
            "n_racks": args.racks,
            "hosts_per_rack": args.hosts_per_rack,
            "n_spines": args.spines,
            "oversubscription": args.oversub,
            "placement": args.placement,
            "iterations": iterations,
            "seed": args.seed,
            "ecmp_seed": args.ecmp_seed,
        }
        for substrate in substrates
    ]
    runner = ExperimentRunner(
        name="cli.cross_rack",
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        telemetry=RunTelemetry("cli.cross_rack"),
    )
    try:
        results = runner.run_points(cross_rack_interleaving, points)
    except ValueError as error:
        return fail(str(error))

    for point, result in zip(points, results):
        fabric_links = set(result.spec.fabric_links())
        print(
            render_table(
                ["uplink", "competitors", "mean (Gbps)", "peak", "overloaded"],
                [
                    [
                        c.link,
                        ",".join(c.competitors) if c.competitors else "-",
                        c.mean_load_gbps,
                        c.peak_load_gbps,
                        f"{c.overload_fraction:.0%}",
                    ]
                    for c in result.contention
                    if c.competitors
                ],
                title=(
                    f"cross-rack [{result.substrate}] — "
                    f"{result.spec.n_racks} racks x "
                    f"{result.spec.hosts_per_rack} hosts, "
                    f"{result.spec.n_spines} spines, "
                    f"{result.spec.oversubscription:g}:1 oversubscribed "
                    f"({result.spec.uplink_gbps:g} Gbps/uplink), "
                    f"placement={result.placement_policy}"
                ),
            )
        )
        print(
            f"  {result.cross_rack_flows}/{len(result.placements)} flows "
            f"cross racks; ideal iteration "
            f"{1000 * result.ideal_iteration_time:.1f} ms"
        )
        print(
            f"  final mean iteration: mltcp "
            f"{1000 * result.final_mean('mltcp'):.1f} ms, vanilla "
            f"{1000 * result.final_mean('fair'):.1f} ms "
            f"(speedup {result.speedup:.2f}x)"
        )
        print()
        for policy in ("mltcp", "fair"):
            utilization = result.link_utilization[policy]
            for link in sorted(fabric_links):
                runner.telemetry.record_link_utilization(
                    link,
                    utilization[link],
                    capacity_gbps=result.spec.uplink_gbps,
                    policy=policy,
                    substrate=result.substrate,
                    params=point,
                )
    if args.report:
        path = runner.telemetry.write(args.report)
        print(f"run-report written to {path}")
    print(runner.telemetry.summary_line())
    return EXIT_OK


def _chaos_command(args) -> int:
    """Execute ``repro chaos``: seeded chaos campaigns with recovery SLOs.

    Runs :func:`~repro.harness.experiments.chaos_recovery` through the
    experiment runner, prints a per-fault campaign summary (time to
    reroute, time to re-interleave, goodput lost for MLTCP vs fair
    share), and records everything into the run-report: each scheduled
    fault in ``degradations``, every guard report and MLTCP degradation
    episode (annotated with its coinciding fault window) in ``guards``,
    and the per-fault SLOs in the v4 ``recovery`` section.
    """
    from .harness.experiments import chaos_recovery
    from .workloads.placement import PLACEMENT_POLICIES

    if args.placement not in PLACEMENT_POLICIES:
        return fail(
            f"unknown placement policy {args.placement!r}; "
            f"valid: {list(PLACEMENT_POLICIES)}"
        )
    substrates = (
        ["fluid", "packet"] if args.substrate == "both" else [args.substrate]
    )
    iterations = args.iterations
    if iterations is None:
        iterations = 32 if args.fast else 48
    points = [
        {
            "substrate": substrate,
            "campaigns": args.campaigns,
            "n_racks": args.racks,
            "hosts_per_rack": args.hosts_per_rack,
            "n_spines": args.spines,
            "oversubscription": args.oversub,
            "placement": args.placement,
            "iterations": iterations,
            "seed": args.seed,
            "ecmp_seed": args.ecmp_seed,
            "guard_policy": args.guard_policy,
        }
        for substrate in substrates
    ]
    runner = ExperimentRunner(
        name="cli.chaos",
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        telemetry=RunTelemetry("cli.chaos"),
    )
    try:
        all_results = runner.run_points(chaos_recovery, points)
    except ValueError as error:
        return fail(str(error))

    for point, campaigns in zip(points, all_results):
        rows = []
        reinterleaved = {"mltcp": 0, "fair": 0}
        n_faults = 0
        for result in campaigns:
            # The two policies replay the identical schedule, so their SLO
            # tuples align fault-by-fault.
            for mltcp_slo, fair_slo in zip(
                result.slos["mltcp"], result.slos["fair"]
            ):
                n_faults += 1
                reinterleaved["mltcp"] += int(mltcp_slo.reinterleaved)
                reinterleaved["fair"] += int(fair_slo.reinterleaved)
                rows.append(
                    [
                        result.campaign_index,
                        mltcp_slo.fault,
                        f"{1000 * mltcp_slo.time_to_reroute:.1f}",
                        _format_tti(mltcp_slo.time_to_reinterleave),
                        _format_tti(fair_slo.time_to_reinterleave),
                        f"{mltcp_slo.goodput_lost_bits / 1e6:.0f}",
                        f"{fair_slo.goodput_lost_bits / 1e6:.0f}",
                    ]
                )
            for description in result.fault_descriptions:
                runner.telemetry.record_degradation(
                    "fault", description, params=point
                )
            for policy in ("mltcp", "fair"):
                for slo in result.slos[policy]:
                    runner.telemetry.record_recovery(
                        slo.fault,
                        strike_time=slo.strike_time,
                        recovery_time=slo.recovery_time,
                        time_to_reroute=slo.time_to_reroute,
                        time_to_reinterleave=slo.time_to_reinterleave,
                        goodput_lost_bits=slo.goodput_lost_bits,
                        interleavable=slo.interleavable,
                        policy=policy,
                        substrate=result.substrate,
                        campaign=result.campaign_index,
                        params=point,
                    )
                for violation in result.violations[policy]:
                    context = violation.get("fault_context")
                    runner.telemetry.record_guard_event(
                        "violation",
                        violation["message"]
                        + (f" (during: {context})" if context else ""),
                        guard=violation["guard"],
                        subject=violation["subject"],
                        time=violation["time"],
                        params=point,
                    )
            for episode in result.degradation_episodes:
                context = episode.get("fault_context")
                runner.telemetry.record_guard_event(
                    "degradation",
                    str(episode.get("reason", "degraded to vanilla CC"))
                    + (f" (during: {context})" if context else ""),
                    subject=str(episode.get("flow")),
                    time=float(episode.get("start", 0.0)),
                    params=point,
                )
        print(
            render_table(
                [
                    "campaign",
                    "fault",
                    "reroute (ms)",
                    "mltcp re-interleave",
                    "fair re-interleave",
                    "mltcp lost (Mb)",
                    "fair lost (Mb)",
                ],
                rows,
                title=(
                    f"chaos [{point['substrate']}] — "
                    f"{args.campaigns} campaign(s) on "
                    f"{args.racks} racks x {args.hosts_per_rack} hosts, "
                    f"{args.spines} spines, {args.oversub:g}:1 "
                    f"oversubscribed, seed {args.seed}"
                ),
            )
        )
        print(
            f"  re-interleaved after mltcp {reinterleaved['mltcp']}/{n_faults}"
            f", fair {reinterleaved['fair']}/{n_faults} fault(s)"
        )
        print()
    if args.report:
        path = runner.telemetry.write(args.report)
        print(f"run-report written to {path}")
    print(runner.telemetry.summary_line())
    return EXIT_OK


def _serve_command(args) -> int:
    """Execute ``repro serve``: the long-lived churn daemon (docs/SERVICE.md).

    Admits jobs from a seeded open-loop arrival model into the live
    float-loop fluid engine, under admission control, a watchdog-
    supervised stepper and (optionally) a write-ahead journal.  With
    ``--query`` it summarizes an existing journal instead of running.
    """
    import json as _json

    from .faults.schedule import FaultSchedule
    from .service import ChurnDaemon, ServiceConfig, ServiceCrash, ServiceJournal
    from .service.daemon import query_journal
    from .workloads import ArrivalModel, FlashCrowd
    from .workloads.presets import gpt2_fast_job, gpt2_job

    if args.query:
        try:
            summary = query_journal(args.query)
        except (OSError, KeyError) as error:
            return fail(f"cannot query journal {args.query}: {error}")
        print(_json.dumps(summary, indent=2))
        return EXIT_OK

    horizon = args.horizon
    if horizon is None:
        horizon = args.epochs * args.epoch_s
    flash_crowds = []
    for spec in args.flash or ():
        try:
            at, size = spec.split(":", 1)
            flash_crowds.append(FlashCrowd(time=float(at), size=int(size)))
        except ValueError as error:
            return fail(f"bad --flash {spec!r} (want TIME:SIZE): {error}")
    if args.template == "gpt2":
        templates = (gpt2_job("tpl"),)
    elif args.template == "mix":
        templates = (gpt2_fast_job("tplA"), gpt2_job("tplB"))
    else:
        templates = (gpt2_fast_job("tpl"),)
    schedule = None
    if args.faults:
        try:
            schedule = FaultSchedule.from_json(args.faults)
        except (OSError, ValueError, KeyError) as error:
            return fail(f"cannot load fault schedule {args.faults}: {error}")
    try:
        model = ArrivalModel(
            rate_per_s=args.rate,
            horizon_s=horizon,
            mean_iterations=args.mean_iterations,
            diurnal_amplitude=args.diurnal_amplitude,
            diurnal_period_s=args.diurnal_period,
            flash_crowds=tuple(flash_crowds),
        )
        config = ServiceConfig(
            arrival=model,
            templates=templates,
            capacity_gbps=args.capacity,
            cc=args.cc,
            seed=args.seed,
            epoch_s=args.epoch_s,
            epochs=args.epochs,
            max_running=args.max_running,
            queue_limit=args.queue_limit,
            shed_policy=args.shed_policy,
            snapshot_every=args.snapshot_every,
            churn_limit=args.churn_limit,
            faults=schedule,
        )
    except ValueError as error:
        return fail(str(error))
    telemetry = RunTelemetry("cli.serve")
    # The daemon only ever restores the latest committed epoch, so keep a
    # bounded number of states in RAM; the file retains the full history
    # for --query, which loads without a retain bound.
    journal = (
        ServiceJournal(args.journal, retain=2) if args.journal else None
    )
    try:
        daemon = ChurnDaemon(
            config,
            journal=journal,
            telemetry=telemetry,
            snapshot_path=args.snapshots,
            resume=args.resume,
            crash_at_epoch=args.crash_at_epoch,
        )
        result = daemon.run()
    except ValueError as error:
        return fail(str(error))
    except ServiceCrash as crash:
        return fail(f"service did not survive: {crash}")

    counters = result["counters"]
    print(
        render_table(
            ["admitted", "deferred", "shed", "degraded", "departed",
             "recoveries", "still running", "queue"],
            [[
                counters["admitted"], counters["deferred"], counters["shed"],
                counters["degraded"], counters["departed"],
                counters["recoveries"], len(result["per_job"]["running"]),
                result["queue_depth"],
            ]],
            title=(
                f"serve [{config.cc}] — {result['epochs_run']} epoch(s) x "
                f"{config.epoch_s:g}s, {args.rate:g} arrivals/s, "
                f"{config.shed_policy} shedding, seed {config.seed}"
            ),
        )
    )
    slo = result["slo_attainment"]
    print(
        f"  slo attainment: "
        + (f"{100 * slo:.0f}%" if slo is not None else "n/a")
        + f" of {counters['departed']} departed job(s); "
        f"{result['snapshots']} snapshot(s); "
        f"per-job fingerprint {daemon.per_job_fingerprint()[:16]}"
    )
    if args.report:
        path = telemetry.write(args.report)
        print(f"run-report written to {path}")
    return EXIT_OK


def _format_tti(time_to_reinterleave: Optional[float]) -> str:
    """Render a time-to-reinterleave: milliseconds, or "never"."""
    if time_to_reinterleave is None:
        return "never"
    return f"{1000 * time_to_reinterleave:.1f} ms"


def _positive_int(text: str) -> int:
    """argparse type for ``--workers``: a clean error instead of a traceback."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from the MLTCP paper (HotNets '24).",
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available figures")
    run = subparsers.add_parser("run", help="run one figure (or 'all')")
    run.add_argument("figure", choices=[*FIGURES, "all"])
    run.add_argument(
        "--fast", action="store_true", help="smaller iteration counts"
    )
    run.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="render independent figures on an N-process pool "
        "(default: sequential)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even when a cached result exists "
        "(cache dir: $REPRO_CACHE_DIR, default ~/.cache/repro)",
    )
    run.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also write the JSON run-report (wall time, event counts, "
        "cache hits) to PATH",
    )
    compat = subparsers.add_parser(
        "compat",
        help="check a saved scenario (JSON) for the §4 compatibility "
        "precondition",
    )
    compat.add_argument("scenario", help="path to a scenario saved with "
                        "repro.workloads.save_scenario")
    compat.add_argument("--capacity", type=float, default=50.0,
                        help="bottleneck capacity in Gbps (default 50)")
    faults = subparsers.add_parser(
        "faults",
        help="fault-recovery matrix: inject faults, measure reconvergence "
        "(crash-isolated, checkpointed; see docs/FAULTS.md)",
    )
    faults.add_argument(
        "--classes",
        default=",".join(
            ("link_down", "bandwidth", "loss_burst", "ecn_storm",
             "straggler", "job_restart")
        ),
        metavar="A,B,...",
        help="comma-separated fault classes to sweep (default: all six)",
    )
    faults.add_argument(
        "--policies",
        default="mltcp,reno,dctcp",
        metavar="A,B,...",
        help="comma-separated policies to compare (default: mltcp,reno,dctcp)",
    )
    faults.add_argument(
        "--substrate",
        choices=["fluid", "packet", "both"],
        default="both",
        help="which simulator(s) to replay faults in (default: both)",
    )
    faults.add_argument(
        "--schedule",
        metavar="PATH",
        default=None,
        help="replay a custom FaultSchedule JSON file instead of the "
        "built-in per-class schedules (times are absolute seconds)",
    )
    faults.add_argument(
        "--fast", action="store_true", help="smaller iteration counts"
    )
    faults.add_argument(
        "--seed", type=int, default=5, help="base seed (default 5)"
    )
    faults.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="run points on an N-process pool (default: sequential)",
    )
    faults.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-point wall-clock budget in seconds (default: none)",
    )
    faults.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-run a failed point up to N times with backoff (default 1)",
    )
    faults.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=DEFAULT_FAULTS_CHECKPOINT,
        help="sweep journal for --resume "
        f"(default: {DEFAULT_FAULTS_CHECKPOINT})",
    )
    faults.add_argument(
        "--resume",
        action="store_true",
        help="skip points already in the checkpoint (re-runs only failed "
        "or missing points); without this flag the checkpoint is reset",
    )
    faults.add_argument(
        "--no-cache", action="store_true",
        help="recompute even when a cached result exists",
    )
    faults.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the JSON run-report (includes the degradations "
        "section: every fault, retry, timeout and crash)",
    )
    lint = subparsers.add_parser(
        "lint",
        help="run the AST-based determinism/unit-safety analyzer "
        "(rule catalog: docs/LINTING.md)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--select", metavar="A,B,...", default=None,
        help="run only these rule codes (comma-separated)",
    )
    lint.add_argument(
        "--ignore", metavar="A,B,...", default=None,
        help="skip these rule codes (comma-separated)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--json", action="store_true", dest="json_output",
        help="emit findings as a JSON array on stdout "
        "(path/line/col/code/message); same exit codes",
    )
    verify = subparsers.add_parser(
        "verify",
        help="bounded model checking of Algorithm 1: prove or refute the "
        "named properties and audit committed certificates "
        "(docs/VERIFICATION.md)",
    )
    verify.add_argument(
        "properties", nargs="*", metavar="PROPERTY",
        help="property names to check (default: the whole catalog; "
        "see --list)",
    )
    verify.add_argument(
        "--backend", default="auto", choices=("auto", "exhaustive", "z3"),
        help="solver backend: 'exhaustive' (hermetic grid search), 'z3' "
        "(requires the [verify] extra), or 'auto' (z3 when available and "
        "applicable, else exhaustive)",
    )
    verify.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-query solver budget; an expired budget yields verdict "
        "'unknown' (default 30)",
    )
    verify.add_argument(
        "--fast", action="store_true",
        help="use each property's reduced smoke-test grid (make "
        "verify-smoke)",
    )
    verify.add_argument(
        "--check", action="store_true",
        help="additionally require a fresh committed artifact for every "
        "selected property",
    )
    verify.add_argument(
        "--write", action="store_true",
        help="(re)write certificate/counterexample artifacts for verdicts "
        "that match expectations",
    )
    verify.add_argument(
        "--write-dir", metavar="DIR", default=None,
        help="read/write artifacts in DIR instead of the committed "
        "src/repro/verify/certificates/",
    )
    verify.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write a JSON run-report with the verification section",
    )
    verify.add_argument(
        "--list", action="store_true", dest="list_properties",
        help="print the property catalog and exit",
    )
    bench_compare = subparsers.add_parser(
        "bench-compare",
        help="compare a pytest-benchmark report against a committed perf "
        "baseline; fails on regressions (docs/PERFORMANCE.md)",
    )
    bench_compare.add_argument(
        "current",
        help="benchmark report to check: raw --benchmark-json output or a "
        "compact baseline file",
    )
    bench_compare.add_argument(
        "--baseline",
        default=DEFAULT_BENCH_BASELINE,
        metavar="PATH",
        help=f"baseline to compare against (default: {DEFAULT_BENCH_BASELINE}, "
        "the pre-optimization seed numbers)",
    )
    bench_compare.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        metavar="FRACTION",
        help="allowed slowdown before the gate fails (default 0.15 = 15%%)",
    )
    bench_compare.add_argument(
        "--select",
        default=None,
        metavar="GLOB",
        help="gate only the baseline benchmarks matching this glob (e.g. "
        "'test_scale_*' for `make bench-scale-smoke`); unmatched baseline "
        "entries are neither compared nor reported missing",
    )
    bench_compare.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="also write the current stats as a compact baseline to PATH "
        "(how bench_reports/perf_baseline.json is refreshed)",
    )
    bench_compare.add_argument(
        "--note",
        default=None,
        help="free-form provenance note embedded in the --save output",
    )
    guards = subparsers.add_parser(
        "guards",
        help="summarize a run-report's guards section, or --run a guarded "
        "fault-recovery experiment (docs/ROBUSTNESS.md)",
    )
    guards.add_argument(
        "report_file", nargs="?", default=None, metavar="REPORT",
        help="run-report (.run.json) whose guards section to summarize",
    )
    guards.add_argument(
        "--run", action="store_true",
        help="run fault_recovery with a guardrail attached instead of "
        "reading a report",
    )
    guards.add_argument(
        "--policy", choices=["record", "raise"], default="record",
        help="guard policy for --run: record violations, or raise at the "
        "first one (default: record)",
    )
    guards.add_argument(
        "--cc", default="mltcp", metavar="POLICY",
        help="congestion-control policy under test (default: mltcp)",
    )
    guards.add_argument(
        "--fault", default="job_restart", metavar="CLASS",
        help="fault class to inject during --run (default: job_restart)",
    )
    guards.add_argument(
        "--substrate", choices=["fluid", "packet", "both"], default="both",
        help="which simulator(s) to guard (default: both)",
    )
    guards.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="training iterations per run (default: 40 fluid / 30 packet)",
    )
    guards.add_argument(
        "--seed", type=int, default=5, help="base seed (default 5)"
    )
    guards.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the JSON run-report (v3 guards section) to PATH",
    )
    cross_rack = subparsers.add_parser(
        "cross-rack",
        help="MLTCP vs vanilla CC on a multi-rack oversubscribed fat tree, "
        "with per-link contention telemetry (docs/TOPOLOGIES.md)",
    )
    cross_rack.add_argument(
        "--racks", type=_positive_int, default=4, metavar="N",
        help="number of racks (default 4)",
    )
    cross_rack.add_argument(
        "--hosts-per-rack", type=_positive_int, default=4, metavar="N",
        help="hosts per rack (default 4)",
    )
    cross_rack.add_argument(
        "--spines", type=_positive_int, default=2, metavar="N",
        help="number of spine switches (default 2)",
    )
    cross_rack.add_argument(
        "--oversub", type=float, default=2.0, metavar="RATIO",
        help="oversubscription ratio: host bandwidth into a rack over its "
        "uplink bandwidth (default 2.0)",
    )
    cross_rack.add_argument(
        "--placement", default="spread", metavar="POLICY",
        help="job placement policy: packed, spread or random "
        "(default: spread)",
    )
    cross_rack.add_argument(
        "--substrate", choices=["fluid", "packet", "both"], default="fluid",
        help="which simulator(s) to run (default: fluid; packet is slower)",
    )
    cross_rack.add_argument(
        "--iterations", type=_positive_int, default=None, metavar="N",
        help="training iterations per job (default: 40, or 20 with --fast)",
    )
    cross_rack.add_argument(
        "--fast", action="store_true", help="smaller iteration counts"
    )
    cross_rack.add_argument(
        "--seed", type=int, default=2, help="base seed (default 2)"
    )
    cross_rack.add_argument(
        "--ecmp-seed", type=int, default=2,
        help="seed of the deterministic ECMP spine choice (default 2)",
    )
    cross_rack.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="run substrates on an N-process pool (default: sequential)",
    )
    cross_rack.add_argument(
        "--no-cache", action="store_true",
        help="recompute even when a cached result exists",
    )
    cross_rack.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the JSON run-report (includes the "
        "link_utilization section) to PATH",
    )
    chaos = subparsers.add_parser(
        "chaos",
        help="seeded chaos campaigns on the fabric: failure-aware ECMP "
        "rerouting + recovery SLOs (docs/FAULTS.md)",
    )
    chaos.add_argument(
        "--campaigns", type=_positive_int, default=3, metavar="N",
        help="independently seeded campaigns to run (default 3)",
    )
    chaos.add_argument(
        "--racks", type=_positive_int, default=4, metavar="N",
        help="number of racks (default 4)",
    )
    chaos.add_argument(
        "--hosts-per-rack", type=_positive_int, default=4, metavar="N",
        help="hosts per rack (default 4)",
    )
    chaos.add_argument(
        "--spines", type=_positive_int, default=2, metavar="N",
        help="number of spine switches (default 2)",
    )
    chaos.add_argument(
        "--oversub", type=float, default=2.0, metavar="RATIO",
        help="oversubscription ratio (default 2.0)",
    )
    chaos.add_argument(
        "--placement", default="spread", metavar="POLICY",
        help="job placement policy: packed, spread or random "
        "(default: spread)",
    )
    chaos.add_argument(
        "--substrate", choices=["fluid", "packet", "both"], default="fluid",
        help="which simulator(s) to run (default: fluid; packet is slower)",
    )
    chaos.add_argument(
        "--iterations", type=_positive_int, default=None, metavar="N",
        help="training iterations per job (default: 48, or 32 with --fast)",
    )
    chaos.add_argument(
        "--fast", action="store_true", help="smaller iteration counts"
    )
    chaos.add_argument(
        "--seed", type=int, default=2,
        help="base seed; campaigns derive theirs from it (default 2)",
    )
    chaos.add_argument(
        "--ecmp-seed", type=int, default=2,
        help="seed of the deterministic ECMP spine choice (default 2)",
    )
    chaos.add_argument(
        "--guard-policy", choices=["record", "raise", "off"], default="record",
        help="guardrail policy for the faulted runs (default: record)",
    )
    chaos.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="run substrates on an N-process pool (default: sequential)",
    )
    chaos.add_argument(
        "--no-cache", action="store_true",
        help="recompute even when a cached result exists",
    )
    chaos.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the JSON run-report (includes the v4 recovery "
        "section) to PATH",
    )
    serve = subparsers.add_parser(
        "serve",
        help="long-lived churn daemon: open-loop arrivals, admission "
        "control, watchdog-supervised stepping, journaled recovery "
        "(docs/SERVICE.md)",
    )
    serve.add_argument(
        "--epochs", type=_positive_int, default=30, metavar="N",
        help="service epochs to run (default 30)",
    )
    serve.add_argument(
        "--epoch-s", type=float, default=1.0, metavar="SECONDS",
        help="simulated seconds per epoch (default 1.0)",
    )
    serve.add_argument(
        "--horizon", type=float, default=None, metavar="SECONDS",
        help="arrival-process horizon (default: epochs * epoch-s)",
    )
    serve.add_argument(
        "--rate", type=float, default=0.6, metavar="PER_S",
        help="mean Poisson arrival rate in jobs/s (default 0.6)",
    )
    serve.add_argument(
        "--mean-iterations", type=float, default=12.0, metavar="N",
        help="mean geometric job lifetime in iterations (default 12)",
    )
    serve.add_argument(
        "--diurnal-amplitude", type=float, default=0.0, metavar="A",
        help="diurnal rate modulation amplitude in [0, 1) (default 0)",
    )
    serve.add_argument(
        "--diurnal-period", type=float, default=60.0, metavar="SECONDS",
        help="diurnal modulation period (default 60)",
    )
    serve.add_argument(
        "--flash", action="append", metavar="TIME:SIZE",
        help="inject a flash crowd of SIZE fine-tune jobs at TIME "
        "(repeatable)",
    )
    serve.add_argument(
        "--template", choices=["gpt2-fast", "gpt2", "mix"],
        default="gpt2-fast",
        help="job template(s) arrivals are drawn from (default: gpt2-fast)",
    )
    serve.add_argument(
        "--capacity", type=float, default=50.0, metavar="GBPS",
        help="bottleneck capacity in Gbps (default 50)",
    )
    serve.add_argument(
        "--cc", choices=["mltcp", "fair"], default="mltcp",
        help="congestion-control policy for the live engine "
        "(default: mltcp)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="base seed; the arrival stream derives seed+1 (default 0)",
    )
    serve.add_argument(
        "--max-running", type=_positive_int, default=8, metavar="N",
        help="admission-control concurrency limit (default 8)",
    )
    serve.add_argument(
        "--queue-limit", type=_positive_int, default=16, metavar="N",
        help="bounded pending-queue depth (default 16)",
    )
    serve.add_argument(
        "--shed-policy", choices=["reject", "defer", "degrade"],
        default="defer",
        help="load-shedding policy past the limits (default: defer)",
    )
    serve.add_argument(
        "--snapshot-every", type=_positive_int, default=5, metavar="N",
        help="emit a schema-v6 service snapshot every N epochs (default 5)",
    )
    serve.add_argument(
        "--churn-limit", type=_positive_int, default=4, metavar="N",
        help="per-epoch churn above which the engine clamps to vanilla "
        "CC for a few epochs (default 4)",
    )
    serve.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write-ahead journal path; enables crash recovery and "
        "--resume",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="resume from the journal at --journal instead of starting "
        "fresh",
    )
    serve.add_argument(
        "--crash-at-epoch", type=_positive_int, default=None, metavar="N",
        help="inject one stepper crash mid-epoch N (recovery drill)",
    )
    serve.add_argument(
        "--faults", metavar="PATH", default=None,
        help="JSON fault schedule applied to the bottleneck "
        "(repro faults export format)",
    )
    serve.add_argument(
        "--snapshots", metavar="PATH", default=None,
        help="also append each service snapshot to PATH as JSON lines",
    )
    serve.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the JSON run-report (includes the v6 service "
        "section) to PATH",
    )
    serve.add_argument(
        "--query", metavar="PATH", default=None,
        help="summarize an existing journal at PATH and exit (no run)",
    )
    docs_check = subparsers.add_parser(
        "docs-check",
        help="execute the python code fences in markdown docs so examples "
        "can't rot (the gate behind `make docs-check`)",
    )
    docs_check.add_argument(
        "paths", nargs="*", default=["docs"],
        help="markdown files or directories to check (default: docs)",
    )
    validate = subparsers.add_parser(
        "validate-report",
        help="check a JSON run-report against the run-report schema",
    )
    validate.add_argument("report", help="path to a .run.json run-report")
    validate.add_argument(
        "--schema",
        default=None,
        help="path to a JSON schema file (default: the built-in schema, "
        "mirrored at docs/run_report.schema.json)",
    )
    args = parser.parse_args(argv)

    if args.command == "list" or args.command is None:
        for name, (description, _fn) in FIGURES.items():
            print(f"  {name:9} {description}")
        return 0

    if args.command == "compat":
        return _compat_command(args.scenario, args.capacity)

    if args.command == "lint":
        from .lint import run_lint

        return run_lint(
            args.paths, select=args.select, ignore=args.ignore,
            list_rules=args.list_rules, json_output=args.json_output,
        )

    if args.command == "verify":
        from .verify.cli import run_verify

        return run_verify(
            args.properties,
            backend=args.backend,
            timeout=args.timeout,
            fast=args.fast,
            check=args.check,
            write=args.write,
            write_dir=args.write_dir,
            report=args.report,
            list_properties=args.list_properties,
        )

    if args.command == "bench-compare":
        return _bench_compare_command(args)

    if args.command == "validate-report":
        return _validate_report_command(args.report, args.schema)

    if args.command == "cross-rack":
        return _cross_rack_command(args)

    if args.command == "chaos":
        return _chaos_command(args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "docs-check":
        from .docscheck import run_docs_check

        return run_docs_check(args.paths)

    if args.command == "faults":
        return _faults_command(args)

    if args.command == "guards":
        return _guards_command(args)

    return _run_command(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
