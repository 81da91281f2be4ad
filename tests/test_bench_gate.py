"""Tests for benchmarks/check_regression.py (the CI bench gate)."""

import json
import pathlib
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT))

from benchmarks.check_regression import (  # noqa: E402
    calibration_ratio,
    compare,
    main,
)
from benchmarks.perf_report import BENCHES, Relative, TimeRatio  # noqa: E402


#: Benches whose fresh detail must carry ``verified: 1`` for the gate.
VERIFIED_BENCHES = (
    "fig7_quick_parallel",
    "cluster_quick_parallel",
    "runtime_quick",
    "fig7_columnar",
    "checkpoint_resume_quick",
    "adaptive_day_quick",
    "serve_loopback_quick",
)

#: Benches whose fresh detail must stay under the peak-RSS ceiling.
MEMORY_BENCHES = ("micro_dhb_10m", "fig7_columnar")


def _report(
    seconds_by_name,
    calibration=0.05,
    verified=1,
    rss_mb=200.0,
    speedup=8.0,
    overhead_pct=1.5,
    clients_per_sec=45.0,
    p99_wait_ms=55.0,
    edge_seconds=0.02,
    cluster_seconds=0.02,
    edge_hit_ratio=0.95,
    edge_expected=0.95,
    adaptive_static_peak=6.0,
    adaptive_peak=5.0,
    adaptive_seconds=0.02,
    sweep_seconds=0.02,
):
    seconds_by_name = dict(seconds_by_name)
    seconds_by_name.setdefault("adaptive_day_quick", adaptive_seconds)
    seconds_by_name.setdefault("fig7_quick_serial", sweep_seconds)
    for name in VERIFIED_BENCHES + MEMORY_BENCHES:
        seconds_by_name.setdefault(name, 0.5)
    seconds_by_name.setdefault("edge_quick", edge_seconds)
    seconds_by_name.setdefault("cluster_quick", cluster_seconds)
    benches = {
        name: {"seconds": seconds, "detail": {}}
        for name, seconds in seconds_by_name.items()
    }
    for name in VERIFIED_BENCHES:
        benches[name]["detail"]["verified"] = verified
    for name in MEMORY_BENCHES:
        benches[name]["detail"]["peak_rss_mb"] = rss_mb
    benches["micro_dhb_10m"]["detail"]["speedup_vs_scalar"] = speedup
    benches["checkpoint_resume_quick"]["detail"]["overhead_pct"] = overhead_pct
    benches["serve_loopback_quick"]["detail"].update(
        clients_per_sec=clients_per_sec, p99_wait_ms=p99_wait_ms
    )
    benches["edge_quick"]["detail"].update(
        hit_ratio=edge_hit_ratio, expected_hit_ratio=edge_expected
    )
    benches["adaptive_day_quick"]["detail"].update(
        static_peak=adaptive_static_peak, adaptive_peak=adaptive_peak
    )
    return {
        "schema": 1,
        "calibration_seconds": calibration,
        "benches": benches,
    }


class TestCalibrationRatio:
    def test_ratio_of_spin_loops(self):
        fresh = _report({}, calibration=0.10)
        baseline = _report({}, calibration=0.05)
        assert calibration_ratio(fresh, baseline) == pytest.approx(2.0)

    def test_missing_calibration_means_no_scaling(self):
        fresh = _report({})
        baseline = _report({})
        del baseline["calibration_seconds"]
        assert calibration_ratio(fresh, baseline) == 1.0


class TestCompare:
    def test_identical_reports_pass(self):
        report = _report({"fig7_quick_parallel": 0.5, "micro": 0.03})
        _lines, failures = compare(report, report)
        assert failures == []

    def test_large_regression_fails(self):
        baseline = _report({"fig7_quick_parallel": 0.5, "micro": 0.2})
        fresh = _report({"fig7_quick_parallel": 0.5, "micro": 0.9})
        _lines, failures = compare(fresh, baseline, threshold=2.0)
        assert len(failures) == 1
        assert "micro" in failures[0]

    def test_slow_machine_does_not_fail_the_gate(self):
        baseline = _report({"fig7_quick_parallel": 0.5, "micro": 0.2}, calibration=0.05)
        # Everything (benches and spin loop) is 3x slower: same machine-relative
        # speed, so the calibration scaling must absorb it.
        fresh = _report(
            {"fig7_quick_parallel": 1.5, "micro": 0.6}, calibration=0.15
        )
        _lines, failures = compare(fresh, baseline, threshold=2.0)
        assert failures == []

    def test_noise_floor_forgives_tiny_benches(self):
        baseline = _report({"fig7_quick_parallel": 0.5, "tiny": 0.0002})
        fresh = _report({"fig7_quick_parallel": 0.5, "tiny": 0.0009})  # 4.5x, but microseconds
        _lines, failures = compare(fresh, baseline, threshold=2.0)
        assert failures == []

    def test_missing_bench_fails(self):
        baseline = _report({"fig7_quick_parallel": 0.5, "gone": 0.1})
        fresh = _report({"fig7_quick_parallel": 0.5})
        _lines, failures = compare(fresh, baseline)
        assert any("gone" in failure for failure in failures)

    def test_unverified_parallel_equality_fails(self):
        baseline = _report({"fig7_quick_parallel": 0.5})
        fresh = _report({"fig7_quick_parallel": 0.5}, verified=0)
        _lines, failures = compare(fresh, baseline)
        assert any("equality" in failure for failure in failures)

    def test_memory_ceiling_fails(self):
        baseline = _report({})
        fresh = _report({}, rss_mb=2048.0)
        _lines, failures = compare(fresh, baseline)
        assert any("peak RSS" in failure for failure in failures)
        assert len(failures) == len(MEMORY_BENCHES)

    def test_missing_rss_detail_fails(self):
        baseline = _report({})
        fresh = _report({})
        for name in MEMORY_BENCHES:
            del fresh["benches"][name]["detail"]["peak_rss_mb"]
        _lines, failures = compare(fresh, baseline)
        assert any("peak_rss_mb" in failure for failure in failures)

    def test_low_columnar_speedup_fails(self):
        baseline = _report({})
        fresh = _report({}, speedup=3.0)
        _lines, failures = compare(fresh, baseline)
        assert any("speedup" in failure for failure in failures)

    def test_checkpoint_overhead_ceiling_fails(self):
        baseline = _report({})
        fresh = _report({}, overhead_pct=9.0)
        _lines, failures = compare(fresh, baseline)
        assert any("journaling overhead" in failure for failure in failures)

    def test_missing_checkpoint_overhead_fails(self):
        baseline = _report({})
        fresh = _report({})
        del fresh["benches"]["checkpoint_resume_quick"]["detail"]["overhead_pct"]
        _lines, failures = compare(fresh, baseline)
        assert any("journaling overhead" in failure for failure in failures)

    def test_low_serve_throughput_fails(self):
        baseline = _report({})
        fresh = _report({}, clients_per_sec=10.0)
        _lines, failures = compare(fresh, baseline)
        assert any("clients/sec" in failure for failure in failures)

    def test_high_serve_p99_fails(self):
        baseline = _report({})
        fresh = _report({}, p99_wait_ms=120.0)
        _lines, failures = compare(fresh, baseline)
        assert any("p99 wait" in failure for failure in failures)

    def test_missing_serve_detail_fails(self):
        baseline = _report({})
        fresh = _report({})
        fresh["benches"]["serve_loopback_quick"]["detail"].clear()
        _lines, failures = compare(fresh, baseline)
        assert any("clients/sec" in failure for failure in failures)
        assert any("p99 wait" in failure for failure in failures)

    def test_edge_over_cluster_ceiling_fails(self):
        baseline = _report({})
        # The ratio is fresh-report-internal, so the baseline's timings
        # don't matter; a noise-proof 10s vs 1s fresh split must trip it.
        fresh = _report({}, edge_seconds=10.0, cluster_seconds=1.0)
        _lines, failures = compare(fresh, baseline)
        assert any("1.5x ceiling" in failure for failure in failures)

    def test_edge_hit_ratio_below_expectation_fails(self):
        baseline = _report({})
        fresh = _report({}, edge_hit_ratio=0.7, edge_expected=0.9)
        _lines, failures = compare(fresh, baseline)
        assert any("analytic" in failure for failure in failures)

    def test_edge_hit_ratio_within_slack_passes(self):
        report = _report({}, edge_hit_ratio=0.87, edge_expected=0.9)
        _lines, failures = compare(report, report)
        assert failures == []

    def test_missing_edge_detail_fails(self):
        baseline = _report({})
        fresh = _report({})
        fresh["benches"]["edge_quick"]["detail"].clear()
        _lines, failures = compare(fresh, baseline)
        assert any("expected_hit_ratio" in failure for failure in failures)

    def test_adaptive_peak_above_static_fails(self):
        baseline = _report({})
        fresh = _report({}, adaptive_peak=9.0, adaptive_static_peak=6.0)
        _lines, failures = compare(fresh, baseline)
        assert any("static DHB worst case" in failure for failure in failures)

    def test_adaptive_peak_at_static_worst_case_passes(self):
        report = _report({}, adaptive_peak=6.0, adaptive_static_peak=6.0)
        _lines, failures = compare(report, report)
        assert failures == []

    def test_missing_adaptive_peaks_fail(self):
        baseline = _report({})
        fresh = _report({})
        del fresh["benches"]["adaptive_day_quick"]["detail"]["static_peak"]
        _lines, failures = compare(fresh, baseline)
        assert any("static/adaptive peaks" in failure for failure in failures)

    def test_adaptive_over_sweep_ceiling_fails(self):
        baseline = _report({})
        # Fresh-report-internal ratio, like the edge/cluster gate: a
        # noise-proof 10s day study vs a 1s stationary sweep must trip it.
        fresh = _report({}, adaptive_seconds=10.0, sweep_seconds=1.0)
        _lines, failures = compare(fresh, baseline)
        assert any("fig7_quick_serial" in failure for failure in failures)


class TestMain:
    def _write(self, path, report):
        path.write_text(json.dumps(report))
        return str(path)

    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path / "base.json", _report({"fig7_quick_parallel": 0.5})
        )
        good = self._write(tmp_path / "good.json", _report({"fig7_quick_parallel": 0.6}))
        bad = self._write(tmp_path / "bad.json", _report({"fig7_quick_parallel": 5.0}))
        assert main(["--baseline", baseline, "--fresh", good]) == 0
        assert main(["--baseline", baseline, "--fresh", bad]) == 1
        capsys.readouterr()

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        fresh = self._write(tmp_path / "fresh.json", _report({}))
        assert main(["--baseline", missing, "--fresh", fresh]) == 2
        capsys.readouterr()

    def test_committed_baseline_is_current_schema(self):
        baseline = json.loads((_REPO_ROOT / "BENCH_sweep.json").read_text())
        assert baseline["calibration_seconds"] > 0.0
        for name in VERIFIED_BENCHES + MEMORY_BENCHES:
            assert name in baseline["benches"]
        _lines, failures = compare(baseline, baseline)
        assert failures == []
        # No gate row reads it: the quick day must actually retune.
        assert baseline["benches"]["adaptive_day_quick"]["detail"]["retunes"] >= 1


#: Every gate row of the table, as ``(bench, row)``.
GATE_ROWS = [(name, gate) for name, bench in BENCHES.items() for gate in bench.gates]

#: A step far below any bound's scale but far above float rounding.
EPS = 1e-6


def _row_id(row):
    name, gate = row
    return f"{name}-{getattr(gate, 'key', None) or gate.other}"


def _place(report, name, gate, step):
    """Put a row's checked value ``step`` (in EPS) past its bound.

    ``step`` < 0 is just inside the bound, 0 is exactly at it and > 0 is
    just past it.  Time ratios read ``(1.495 + 0.005) / (0.995 + 0.005)``,
    exactly 1.5 in binary floating point, at the bound.
    """
    benches = report["benches"]
    if isinstance(gate, TimeRatio):
        benches[gate.other]["seconds"] = 0.995
        benches[name]["seconds"] = gate.ceiling - 0.005 + step * EPS
        return
    detail = benches[name]["detail"]
    if isinstance(gate, Relative):
        detail[gate.other] = 0.9
        bound = 0.9 + gate.offset
    else:
        bound = gate.bound
    if gate.op == "==":
        detail[gate.key] = bound if step <= 0 else bound + 1
    elif gate.op in ("<", "<="):
        detail[gate.key] = bound + step * EPS
    else:
        detail[gate.key] = bound - step * EPS


@pytest.mark.parametrize("row", GATE_ROWS, ids=_row_id)
class TestGateRows:
    """Each table row holds its bound with its own strictness."""

    def _failures(self, report):
        # An empty baseline leaves only the table rows to check.
        return compare(report, {"benches": {}})[1]

    def test_just_inside_passes(self, row):
        report = _report({})
        _place(report, *row, step=-1)
        assert self._failures(report) == []

    def test_at_bound_follows_strictness(self, row):
        name, gate = row
        report = _report({})
        _place(report, name, gate, step=0)
        failures = self._failures(report)
        if getattr(gate, "op", "<=") == "<":
            assert failures and all(f.startswith(f"{name}: ") for f in failures)
        else:
            assert failures == []

    def test_just_past_fails(self, row):
        name, gate = row
        report = _report({})
        _place(report, name, gate, step=1)
        failures = self._failures(report)
        assert len(failures) == 1
        assert failures[0].startswith(f"{name}: ")

    def test_missing_value_fails(self, row):
        name, gate = row
        report = _report({})
        if isinstance(gate, TimeRatio):
            del report["benches"][gate.other]["seconds"]
        else:
            del report["benches"][name]["detail"][gate.key]
        failures = self._failures(report)
        assert len(failures) == 1
        assert failures[0].startswith(f"{name}: ")


def test_table_carries_the_recorded_rows():
    for name in VERIFIED_BENCHES:
        assert "verified" in [getattr(g, "key", None) for g in BENCHES[name].gates]
    for name in MEMORY_BENCHES:
        assert "peak_rss_mb" in [getattr(g, "key", None) for g in BENCHES[name].gates]
