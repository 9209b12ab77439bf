"""The live engine and the journal against their contracts.

* **Live ↔ batch.** The service's :class:`LiveFluidEngine` integrates the
  same fluid dynamics as :func:`repro.fluid.run_fluid`; on a fixed job
  set the two must agree on every job's mean iteration time, as floats.
* **Pinned service runs.** ``tests/fixtures/serve_pinned.json`` holds the
  per-job fingerprint, counters and final clock of one run per daemon
  path (see ``tests/serve_fixtures.py``); any rewrite of the engine or
  the journal must reproduce them bit for bit.
* **The journal.** An epoch commit writes each departure once, so its
  size stays flat over a long run; a state that does not encode raises
  at once instead of being retried as a disk fault; the meta record
  carries a format version that ``--resume`` checks and ``--query``
  reports.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.fluid import run_fluid
from repro.fluid.allocation import FairShare, MLTCPWeighted
from repro.harness.telemetry import RunTelemetry
from repro.service import (
    ChurnDaemon,
    LiveFluidEngine,
    ServiceConfig,
    ServiceJournal,
    query_journal,
)
from repro.service.journal import FORMAT_VERSION
from repro.workloads import ArrivalModel, four_job_scenario
from repro.workloads.presets import gpt2_fast_job

from . import serve_fixtures

#: A journal written before the format stamp existed (version 1), by
#: ``repro serve --epochs 5 --rate 2 --seed 3 --journal PATH``.
V1_JOURNAL = Path(__file__).resolve().parent / "fixtures" / "serve_journal_v1.jsonl"


def _config(**overrides):
    params = dict(
        arrival=ArrivalModel(rate_per_s=0.8, horizon_s=12.0),
        templates=(gpt2_fast_job("tpl"),),
        epochs=12,
        seed=3,
    )
    params.update(overrides)
    return ServiceConfig(**params)


class _Unencodable:
    """A value whose pickling fails with a recognisable error."""

    def __reduce__(self):
        raise TypeError("this value cannot be encoded")


def _batch_mean(result, name):
    """Sequential mean of one job's iteration times: the live engine's
    running sum over the same ``iteration_end - comm_start`` durations."""
    iterations = result.iterations_of(name)
    total = 0.0
    for it in iterations:
        total += it.iteration_end - it.comm_start
    return total / len(iterations)


class TestLiveMatchesBatch:
    @pytest.mark.parametrize(
        "cc,policy", [("fair", FairShare()), ("mltcp", MLTCPWeighted())]
    )
    def test_four_job_mean_iteration_times_bit_identical(self, cc, policy):
        jobs = [job.with_iteration_limit(20) for job in four_job_scenario()]
        batch = run_fluid(
            jobs,
            50.0,
            policy=policy,
            max_iterations=20,
            seed=3,
            quantum=0.02,
            record_segments=False,
        )
        engine = LiveFluidEngine(50.0, cc, seed=3, quantum=0.02)
        for job in jobs:
            engine.admit(job)
        engine.step(batch.end_time + 1.0)
        assert engine.running == 0
        live = {r["name"]: r for r in engine.completed}
        assert sorted(live) == sorted(job.name for job in jobs)
        for job in jobs:
            assert live[job.name]["iterations"] == 20
            assert live[job.name]["mean_iteration_s"].hex() == (
                _batch_mean(batch, job.name).hex()
            ), job.name


class TestPinnedServeRuns:
    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(serve_fixtures.FIXTURE_PATH.read_text())

    @pytest.mark.parametrize("case", sorted(serve_fixtures.CASES))
    def test_run_matches_pinned_fixture(self, pinned, case):
        assert serve_fixtures.run_case(case) == pinned[case]

    def test_kill_resume_case_departs_before_the_kill(self, tmp_path):
        killed, resumed = serve_fixtures.kill_and_resume(tmp_path)
        assert killed.counters["departed"] > 0
        assert resumed.counters["recoveries"] == 1


class TestJournalEncodeErrors:
    def test_commit_epoch_raises_the_encode_error(self, tmp_path):
        journal = ServiceJournal(tmp_path / "svc.journal")
        journal.commit_epoch(0, {"x": 1})
        with pytest.raises(TypeError, match="cannot be encoded"):
            journal.commit_epoch(1, {"x": _Unencodable()})
        assert journal.epochs() == [0]
        assert ServiceJournal(tmp_path / "svc.journal").epochs() == [0]

    def test_daemon_raises_encode_error_unretried(self, tmp_path, monkeypatch):
        """An unencodable state is a program fault: the daemon must not
        retry it with backoff and report it as a dead disk."""
        sleeps = []
        telemetry = RunTelemetry("test.service")
        daemon = ChurnDaemon(
            _config(),
            journal=ServiceJournal(tmp_path / "svc.journal"),
            telemetry=telemetry,
            sleep=sleeps.append,
        )
        original = daemon._dynamic_state
        monkeypatch.setattr(
            daemon,
            "_dynamic_state",
            lambda: {**original(), "poison": _Unencodable()},
        )
        with pytest.raises(TypeError, match="cannot be encoded"):
            daemon.run()
        assert sleeps == []
        assert daemon.epoch == 0
        assert not any(
            d["kind"] in ("retry", "error") for d in telemetry.degradations
        )

    def test_failed_append_is_still_retried(self, tmp_path):
        """An I/O failure stays on the retry path."""

        class FlakyJournal(ServiceJournal):
            failures = 1

            def _append(self, key, blob):
                if key.startswith("epoch:") and self.failures:
                    self.failures -= 1
                    return False
                return super()._append(key, blob)

        sleeps = []
        telemetry = RunTelemetry("test.service")
        daemon = ChurnDaemon(
            _config(),
            journal=FlakyJournal(tmp_path / "svc.journal"),
            telemetry=telemetry,
            sleep=sleeps.append,
        )
        result = daemon.run()
        assert result["epochs_run"] == 12
        assert len(sleeps) == 1
        assert [d["kind"] for d in telemetry.degradations] == ["retry"]
        assert ServiceJournal(tmp_path / "svc.journal").latest_epoch() == 11


class TestJournalFormatVersion:
    def test_meta_is_stamped(self, tmp_path):
        path = tmp_path / "svc.journal"
        ChurnDaemon(_config(epochs=2), journal=ServiceJournal(path)).run()
        assert ServiceJournal(path).meta()["format_version"] == FORMAT_VERSION
        assert query_journal(path)["format_version"] == FORMAT_VERSION

    @pytest.mark.parametrize("version", [None, FORMAT_VERSION + 1])
    def test_resume_refuses_another_version(self, tmp_path, version):
        path = tmp_path / "svc.journal"
        config = _config(epochs=4)
        ChurnDaemon(config, journal=ServiceJournal(path)).run()
        journal = ServiceJournal(path)
        meta = journal.meta()
        del meta["format_version"]
        if version is not None:
            meta["format_version"] = version
        journal.write_meta(meta)  # a later entry supersedes the first
        found = 1 if version is None else version
        with pytest.raises(
            ValueError,
            match=f"version {found} is not this build's version {FORMAT_VERSION}",
        ):
            ChurnDaemon(config, journal=ServiceJournal(path), resume=True)
        summary = query_journal(path)
        assert summary["format_version"] == found
        assert summary["committed_epochs"] == 4

    def test_unversioned_journal_from_disk(self, tmp_path, capsys):
        """A journal written before the stamp: --query summarises it,
        --resume names both versions and fails."""
        from repro.cli import main

        path = tmp_path / "v1.journal"
        shutil.copy(V1_JOURNAL, path)
        assert main(["serve", "--query", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format_version"] == 1
        assert summary["committed_epochs"] == 5
        assert summary["running"] == 3
        assert summary["counters"]["admitted"] == 3
        code = main(
            [
                "serve", "--epochs", "5", "--rate", "2", "--seed", "3",
                "--journal", str(path), "--resume",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"version 1 is not this build's version {FORMAT_VERSION}" in err


class TestFlatCommitSize:
    def test_commit_size_flat_and_resume_from_disk(self, tmp_path):
        """Each epoch commit carries only that epoch's departures, so the
        last commit of a long run is no bigger than an early one; a run
        resumed from the journal file still replays bit-identically."""
        config = _config(
            arrival=ArrivalModel(rate_per_s=0.8, horizon_s=1000.0),
            epochs=1000,
        )
        path = tmp_path / "svc.journal"
        uninterrupted = ChurnDaemon(
            config, journal=ServiceJournal(path, retain=2)
        )
        result = uninterrupted.run()
        assert result["counters"]["departed"] >= 100

        lines = path.read_text().splitlines()
        sizes = {json.loads(line)["key"]: len(line) for line in lines}
        assert sizes["epoch:00000999"] <= 1.5 * sizes["epoch:00000100"]

        # Kill after epoch 899's commit: keep the journal up to that line.
        cut = next(
            i for i, line in enumerate(lines)
            if json.loads(line)["key"] == "epoch:00000899"
        )
        killed = tmp_path / "killed.journal"
        killed.write_text("\n".join(lines[: cut + 1]) + "\n")
        resumed = ChurnDaemon(
            config, journal=ServiceJournal(killed, retain=2), resume=True
        )
        resumed.run()
        assert resumed.counters["recoveries"] == 1
        assert (
            resumed.per_job_fingerprint() == uninterrupted.per_job_fingerprint()
        )
