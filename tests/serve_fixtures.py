"""Pinned fingerprints of ``repro serve`` runs across the daemon's paths.

The live engine and the journal may be rewritten for speed, but every
simulated float must survive the rewrite bit for bit.  This module runs
one short service scenario per path the daemon can take — both CC
policies, a fault schedule with capacity edges, the churn fallback,
``degrade`` oversubscription, a supervised mid-epoch crash, and a kill
followed by ``--resume`` from disk — and reduces each to its per-job
fingerprint, counters and final clock (``float.hex``).

The checked-in fixture (``tests/fixtures/serve_pinned.json``) was
generated on the array-backed live engine, before the float-loop
rewrite.  Regenerate it only when a change *intentionally* alters
service numerics:

    PYTHONPATH=src python -m tests.serve_fixtures
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Any, Callable

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "serve_pinned.json"


def _config(**overrides):
    from repro.service import ServiceConfig
    from repro.workloads import ArrivalModel
    from repro.workloads.presets import gpt2_fast_job, gpt2_job

    params: dict[str, Any] = dict(
        arrival=ArrivalModel(
            rate_per_s=1.2, horizon_s=20.0, mean_iterations=5.0
        ),
        templates=(gpt2_fast_job("tplA"), gpt2_job("tplB")),
        capacity_gbps=25.0,
        epochs=20,
        seed=5,
    )
    params.update(overrides)
    return ServiceConfig(**params)


def _faults():
    from repro.faults.schedule import FaultEvent, FaultSchedule

    return FaultSchedule(
        events=(
            FaultEvent("bandwidth", time=2.3, duration=3.1, factor=0.4),
            FaultEvent("link_down", time=7.05, duration=0.8),
            FaultEvent("bandwidth", time=10.5, duration=1.7, factor=0.25),
        )
    )


def _flash(time: float, size: int):
    from repro.workloads import ArrivalModel, FlashCrowd

    return ArrivalModel(
        rate_per_s=1.0,
        horizon_s=20.0,
        mean_iterations=5.0,
        flash_crowds=(FlashCrowd(time=time, size=size),),
    )


def _fingerprint(daemon) -> dict[str, Any]:
    result = daemon.result()
    return {
        "per_job": daemon.per_job_fingerprint(),
        "counters": dict(result["counters"]),
        "final_time": float(result["final_time"]).hex(),
    }


def _plain(config) -> Callable[[Path], dict[str, Any]]:
    def run(_tmp: Path) -> dict[str, Any]:
        from repro.service import ChurnDaemon

        daemon = ChurnDaemon(config)
        daemon.run()
        return _fingerprint(daemon)

    return run


def _supervised_crash(tmp: Path) -> dict[str, Any]:
    from repro.service import ChurnDaemon, ServiceJournal

    daemon = ChurnDaemon(
        _config(),
        journal=ServiceJournal(tmp / "svc.journal", retain=2),
        crash_at_epoch=9,
    )
    daemon.run()
    return _fingerprint(daemon)


def kill_and_resume(tmp: Path) -> tuple[Any, Any]:
    """Kill the daemon mid-epoch 11, then resume it from disk.

    Returns ``(killed, resumed)`` daemons; the killed one's committed
    counters show how many jobs departed before the kill.
    """
    from repro.service import ChurnDaemon, ServiceCrash, ServiceJournal

    path = tmp / "killed.journal"
    killed = ChurnDaemon(
        _config(max_recoveries=0),
        journal=ServiceJournal(path, retain=2),
        crash_at_epoch=11,
    )
    try:
        killed.run()
    except ServiceCrash:
        pass
    else:  # pragma: no cover - the drill must kill the daemon
        raise AssertionError("the injected crash did not kill the daemon")
    resumed = ChurnDaemon(
        _config(max_recoveries=0),
        journal=ServiceJournal(path, retain=2),
        resume=True,
    )
    resumed.run()
    return killed, resumed


def _kill_resume(tmp: Path) -> dict[str, Any]:
    return _fingerprint(kill_and_resume(tmp)[1])


#: Scenario name -> runner(tmp_dir) -> fingerprint dict.
CASES: dict[str, Callable[[Path], dict[str, Any]]] = {
    "mltcp": _plain(_config(cc="mltcp")),
    "fair": _plain(_config(cc="fair")),
    "faults": _plain(_config(faults=_faults())),
    "churn_fallback": _plain(
        _config(arrival=_flash(4.0, 7), max_running=12, churn_limit=2)
    ),
    "degrade": _plain(
        _config(
            arrival=_flash(3.0, 9),
            max_running=3,
            queue_limit=5,
            shed_policy="degrade",
        )
    ),
    "supervised_crash": _supervised_crash,
    "kill_resume": _kill_resume,
}


def run_case(name: str) -> dict[str, Any]:
    """Run one pinned scenario in a throwaway directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return CASES[name](Path(tmp))


def main() -> None:
    fixture = {name: run_case(name) for name in CASES}
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
