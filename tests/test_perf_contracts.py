"""The fast-path equivalence and regression-gate contracts.

Two halves:

* **Equivalence** — the optimized tree must reproduce, bit for bit, the
  fingerprints captured on the pre-optimization tree
  (``tests/fixtures/perf_contracts_seed.json``; see
  ``tests/perf_fixtures.py`` for what is fingerprinted and why event
  counts are excluded).  Every float is compared via its ``hex()``
  rendering, so a single-ulp drift anywhere in a run fails loudly.
* **The gate itself** — ``repro.harness.perfbench`` and the
  ``repro bench-compare`` CLI: report parsing in both formats, baseline
  round-trips, regression/missing semantics, and the shared
  ``repro.cliutil`` exit codes.

Plus the allocation-cache protocol the fluid fast path leans on:
``AllocationPolicy.cache_key`` must be stable exactly when reusing the
previous rates is sound.
"""

import json

import pytest

from repro.cli import main
from repro.fluid.allocation import FairShare, FlowView, MLTCPWeighted
from repro.harness.perfbench import (
    DEFAULT_REGRESSION_THRESHOLD,
    BenchStat,
    compare,
    load_report,
    write_baseline,
)

from .perf_fixtures import (
    FIXTURE_PATH,
    fluid_fingerprint,
    network_fluid_fingerprint,
    packet_fault_fingerprint,
    packet_fingerprint,
    water_fill_fingerprint,
)


@pytest.fixture(scope="module")
def seed_fixture():
    return json.loads(FIXTURE_PATH.read_text())


class TestSeedEquivalence:
    """The optimized tree reproduces the seed tree's floats exactly."""

    def test_fluid_run_is_bit_identical(self, seed_fixture):
        assert fluid_fingerprint() == seed_fixture["fluid"]

    def test_network_fluid_run_is_bit_identical(self, seed_fixture):
        assert network_fluid_fingerprint() == seed_fixture["network_fluid"]

    def test_packet_run_is_bit_identical(self, seed_fixture):
        assert packet_fingerprint() == seed_fixture["packet"]

    def test_packet_fault_replay_is_bit_identical(self, seed_fixture):
        assert packet_fault_fingerprint() == seed_fixture["packet_faults"]

    def test_water_fill_vectors_are_bit_identical(self, seed_fixture):
        assert water_fill_fingerprint() == seed_fixture["water_fill"]


def _stat(name, min_s, mean_s=None, rounds=10):
    return BenchStat(
        name=name,
        min_seconds=min_s,
        mean_seconds=min_s * 1.1 if mean_s is None else mean_s,
        rounds=rounds,
    )


class TestPerfbench:
    def test_benchstat_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            _stat("t", 0.0)
        with pytest.raises(ValueError):
            _stat("t", 1.0, rounds=0)

    def test_load_raw_pytest_benchmark_report(self, tmp_path):
        raw = {
            "benchmarks": [
                {"name": "bench_a", "stats": {"min": 0.01, "mean": 0.012, "rounds": 30}},
                {"name": "bench_b", "stats": {"min": 0.5, "mean": 0.55, "rounds": 5}},
            ]
        }
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(raw))
        stats = load_report(path)
        assert set(stats) == {"bench_a", "bench_b"}
        assert stats["bench_a"].min_seconds == pytest.approx(0.01)
        assert stats["bench_b"].rounds == 5

    def test_baseline_roundtrip(self, tmp_path):
        stats = {"bench_a": _stat("bench_a", 0.01), "bench_b": _stat("bench_b", 0.5)}
        path = write_baseline(tmp_path / "base.json", stats, note="test baseline")
        loaded = load_report(path)
        assert loaded == stats
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-perf-baseline/1"
        assert payload["note"] == "test baseline"
        assert list(payload["benchmarks"]) == ["bench_a", "bench_b"]  # sorted

    def test_write_baseline_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_baseline(tmp_path / "empty.json", {})

    def test_load_report_rejects_unknown_shape(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"results": []}')
        with pytest.raises(ValueError):
            load_report(path)

    def test_compare_flags_regressions_beyond_threshold(self):
        baseline = {"b": _stat("b", 0.100)}
        within = compare({"b": _stat("b", 0.114)}, baseline)
        assert within.ok and not within.rows[0].regressed
        beyond = compare({"b": _stat("b", 0.116)}, baseline)
        assert not beyond.ok
        assert [row.name for row in beyond.regressions] == ["b"]

    def test_compare_speedup_direction(self):
        cmp = compare({"b": _stat("b", 0.05)}, {"b": _stat("b", 0.10)})
        assert cmp.rows[0].speedup == pytest.approx(2.0)

    def test_missing_benchmark_is_a_violation(self):
        cmp = compare({}, {"gone": _stat("gone", 0.1)})
        assert cmp.missing == ("gone",)
        assert not cmp.ok

    def test_extra_current_benchmarks_are_ignored(self):
        cmp = compare(
            {"a": _stat("a", 0.1), "new": _stat("new", 9.0)},
            {"a": _stat("a", 0.1)},
        )
        assert cmp.ok and len(cmp.rows) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare({}, {}, threshold=-0.1)

    def test_default_threshold_matches_the_issue_gate(self):
        assert DEFAULT_REGRESSION_THRESHOLD == pytest.approx(0.15)


class TestBenchCompareCli:
    def _write_baseline(self, tmp_path, name, min_map):
        stats = {n: _stat(n, m) for n, m in min_map.items()}
        return write_baseline(tmp_path / name, stats)

    def test_clean_comparison_exits_zero(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.05})
        assert main(["bench-compare", str(cur), "--baseline", str(base)]) == 0
        out = capsys.readouterr().out
        assert "2.00x" in out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.2})
        assert main(["bench-compare", str(cur), "--baseline", str(base)]) == 1
        assert "violation" in capsys.readouterr().err

    def test_missing_benchmark_exits_one(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1, "gone": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.1})
        assert main(["bench-compare", str(cur), "--baseline", str(base)]) == 1
        assert "gone" in capsys.readouterr().err

    def test_threshold_flag_loosens_the_gate(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.18})
        argv = ["bench-compare", str(cur), "--baseline", str(base)]
        assert main(argv + ["--threshold", "1.0"]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        capsys.readouterr()

    def test_unreadable_report_exits_two(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        missing = tmp_path / "nope.json"
        assert main(["bench-compare", str(missing), "--baseline", str(base)]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_save_writes_compact_baseline(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.05})
        saved = tmp_path / "saved.json"
        assert main([
            "bench-compare", str(cur), "--baseline", str(base),
            "--save", str(saved), "--note", "from test",
        ]) == 0
        capsys.readouterr()
        assert load_report(saved) == load_report(cur)
        assert json.loads(saved.read_text())["note"] == "from test"

    def test_select_restricts_the_gate_to_matching_baseline_entries(
        self, tmp_path, capsys
    ):
        """`--select` lets a partial report gate only its own benchmarks."""
        base = self._write_baseline(
            tmp_path, "base.json", {"test_scale_a": 0.1, "test_other": 0.1}
        )
        cur = self._write_baseline(tmp_path, "cur.json", {"test_scale_a": 0.1})
        argv = ["bench-compare", str(cur), "--baseline", str(base)]
        # Without --select the absent test_other is a violation...
        assert main(argv) == 1
        capsys.readouterr()
        # ...with it, only the matching subset is compared.
        assert main(argv + ["--select", "test_scale_*"]) == 0
        out = capsys.readouterr().out
        assert "test_scale_a" in out and "test_other" not in out

    def test_select_matching_nothing_is_a_usage_error(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.1})
        argv = [
            "bench-compare", str(cur), "--baseline", str(base),
            "--select", "nope_*",
        ]
        assert main(argv) == 2
        assert "matches no benchmark" in capsys.readouterr().err

    def test_committed_scale_baseline_meets_the_3x_criterion(self, capsys):
        """The PR-9 acceptance command: vectorized tree vs the scalar seed."""
        argv = [
            "bench-compare", "bench_reports/perf_baseline.json",
            "--baseline", "bench_reports/perf_scale_seed.json",
            "--select", "test_scale_*", "--threshold", "1000",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: float(line.split()[-1].rstrip("x"))
            for line in out.splitlines()
            if line.startswith("test_scale_")
        }
        assert rows["test_scale_network_fluid_1000x64"] >= 3.0
        assert rows["test_scale_single_link_10k_flows"] >= 3.0

    def test_committed_baseline_shows_the_claimed_speedups(self, capsys):
        """The PR's acceptance command: optimized baseline vs the seed."""
        assert main(["bench-compare", "bench_reports/perf_baseline.json"]) == 0
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: float(line.split()[-1].rstrip("x"))
            for line in out.splitlines()
            if line.startswith("test_")
        }
        assert rows["test_event_engine_throughput"] >= 2.0
        assert rows["test_fluid_four_jobs_benchmark"] >= 1.5


def _views():
    return [
        FlowView(flow_id="a", demand_bps=1e9, remaining_bits=5e8, sent_bits=5e8,
                 total_bits=1e9),
        FlowView(flow_id="b", demand_bps=2e9, remaining_bits=1e9, sent_bits=0.0,
                 total_bits=1e9),
    ]


class TestAllocationCacheKeys:
    def test_fair_share_key_stable_across_progress(self):
        policy = FairShare()
        views = _views()
        key1 = policy.cache_key(views, 1e9)
        views[0].sent_bits += 1e6  # progress alone must not invalidate
        assert policy.cache_key(views, 1e9) == key1

    def test_fair_share_key_changes_with_population_and_capacity(self):
        policy = FairShare()
        views = _views()
        key = policy.cache_key(views, 1e9)
        assert policy.cache_key(views[:1], 1e9) != key
        assert policy.cache_key(views, 2e9) != key

    def test_mltcp_default_is_exact_so_never_cached(self):
        assert MLTCPWeighted().cache_key(_views(), 1e9) is None

    def test_mltcp_granularity_buckets_progress(self):
        policy = MLTCPWeighted(ratio_granularity=0.1)
        views = _views()
        key = policy.cache_key(views, 1e9)
        views[0].sent_bits = 5.4e8  # 0.50 -> 0.54: same 0.1-wide bucket
        assert policy.cache_key(views, 1e9) == key
        views[0].sent_bits = 6.5e8  # 0.65: next bucket
        assert policy.cache_key(views, 1e9) != key

    def test_mltcp_granularity_validation(self):
        with pytest.raises(ValueError):
            MLTCPWeighted(ratio_granularity=0.0)
        with pytest.raises(ValueError):
            MLTCPWeighted(ratio_granularity=-0.5)

    def test_cached_policy_matches_exact_policy_end_to_end(self):
        """Granularity-cached allocation must not change *which* rates are
        produced for identical inputs — only how often allocate() runs."""
        exact = MLTCPWeighted()
        cached = MLTCPWeighted(ratio_granularity=0.05)
        views = _views()
        assert exact.allocate(views, 1e9) == cached.allocate(views, 1e9)
