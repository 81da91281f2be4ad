"""Tests for repro.cli."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in [
        "figures", "fig7", "fig8", "fig9", "variants", "ablations", "catalog",
        "cluster",
    ]:
        args = parser.parse_args([command])
        assert args.command == command


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig42"])


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1." in out and "Figure 5." in out
    assert "S2 S4 S2 S5 S2 S4" in out  # the NPB row of Figure 2


def test_variants_command(capsys):
    assert main(["variants"]) == 0
    out = capsys.readouterr().out
    assert "DHB-a" in out and "DHB-d" in out
    assert "951" in out  # the calibrated peak rate


def test_fig7_quick(capsys):
    assert main(["fig7", "--quick", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "DHB Protocol" in out


def test_fig8_quick(capsys):
    assert main(["fig8", "--quick"]) == 0
    assert "Figure 8" in capsys.readouterr().out


def test_fig9_quick(capsys):
    assert main(["fig9", "--quick"]) == 0
    assert "DHB-c" in capsys.readouterr().out


def test_catalog_quick(capsys):
    assert main(["catalog", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "totals:" in out
    assert "Zipf" in out


def test_metrics_and_trace_out(tmp_path, capsys):
    metrics_path = tmp_path / "run.json"
    trace_path = tmp_path / "trace.jsonl"
    assert (
        main(
            [
                "fig7",
                "--quick",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        == 0
    )
    assert "Figure 7" in capsys.readouterr().out

    document = json.loads(metrics_path.read_text())
    assert document["schema"] == 1
    manifest = document["manifest"]
    assert manifest["experiment"] == "fig7"
    assert "DHB Protocol" in manifest["protocols"]
    assert manifest["seed"] == 2001
    assert manifest["duration_seconds"] > 0.0
    counters = document["metrics"]["counters"]
    assert counters["measure.points"] == 12  # 4 protocols x 3 quick rates
    assert counters["sim.slots"] > 0

    lines = trace_path.read_text().splitlines()
    assert document["trace"] == {"path": str(trace_path), "records": len(lines)}
    records = [json.loads(line) for line in lines]
    slot_records = [r for r in records if r["kind"] == "slot"]
    assert slot_records  # the sweep simulated slotted protocols
    first = slot_records[0]
    assert {"slot", "streams", "instances", "arrivals", "measured"} <= set(first)
    assert {r["protocol"] for r in slot_records} >= {"DHB Protocol", "UD Protocol"}


def test_metrics_out_alone(tmp_path):
    metrics_path = tmp_path / "run.json"
    assert main(["fig8", "--quick", "--metrics-out", str(metrics_path)]) == 0
    document = json.loads(metrics_path.read_text())
    assert document["manifest"]["experiment"] == "fig8"
    assert document["trace"] is None


def test_observability_flags_rejected_for_table_commands(capsys):
    with pytest.raises(SystemExit):
        main(["variants", "--metrics-out", "x.json"])
    assert "--metrics-out" in capsys.readouterr().err


def test_cluster_quick(capsys):
    assert main(["cluster", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "[baseline]" in out and "[skewed]" in out and "[crash]" in out
    assert "failover_in" in out  # the per-server table header


def test_cluster_single_scenario_with_observability(tmp_path, capsys):
    metrics_path = tmp_path / "cluster.json"
    trace_path = tmp_path / "cluster.jsonl"
    assert (
        main(
            [
                "cluster",
                "--quick",
                "--scenario",
                "crash",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "[crash]" in out and "[baseline]" not in out

    document = json.loads(metrics_path.read_text())
    assert document["schema"] == 1
    manifest = document["manifest"]
    assert manifest["experiment"] == "cluster"
    assert manifest["protocols"] == ["crash"]
    assert manifest["params"]["scenario"] == "crash"
    counters = document["metrics"]["counters"]
    assert counters["cluster.crashes"] == 1
    assert counters["cluster.failover.instances"] > 0
    assert counters["cluster.failover.lost"] == 0
    assert counters["cluster.slots"] > 0

    records = [
        json.loads(line) for line in trace_path.read_text().splitlines()
    ]
    assert document["trace"]["records"] == len(records)
    cluster_records = [r for r in records if r["kind"] == "cluster-slot"]
    assert cluster_records
    first = cluster_records[0]
    assert {"slot", "streams", "servers", "arrivals", "rejected"} <= set(first)
    assert [s["id"] for s in first["servers"]] == [0, 1, 2, 3]
    down = [
        r for r in cluster_records if not all(s["alive"] for s in r["servers"])
    ]
    assert down  # the crash window shows up with server ids in the trace


def test_scenario_flag_rejected_outside_cluster(capsys):
    with pytest.raises(SystemExit):
        main(["fig7", "--quick", "--scenario", "crash"])
    assert "--scenario" in capsys.readouterr().err


def test_parser_knows_edge():
    parser = build_parser()
    args = parser.parse_args(
        [
            "edge",
            "--quick",
            "--cache-budget",
            "0.5",
            "--prefix-policy",
            "uniform",
            "--classes",
            "gold:3:0.8,bronze:1:0.2",
        ]
    )
    assert args.command == "edge"
    assert args.cache_budget == pytest.approx(0.5)
    assert args.prefix_policy == "uniform"
    with pytest.raises(SystemExit):
        parser.parse_args(["edge", "--prefix-policy", "lru"])


def test_edge_quick(capsys):
    assert main(["edge", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "hit ratio" in out
    assert "saved" in out
    assert "bound" in out


def test_edge_stock_flags_saving_as_bound(capsys):
    # Stock preset, seed 2001: 470 of the 1,374 hits at the 25 % budget
    # join the origin past the horizon, so the saving is only a bound.
    assert main(["edge", "--seed", "2001"]) == 0
    out = capsys.readouterr().out
    flag = "≤ 56.5%, 470 of 1,374 hits never reached the origin"
    summary = out.splitlines()[-1]
    assert f"backbone bandwidth saved {flag}" in summary
    assert "deferral median 174, p99 390, longest 402 slot(s)" in summary
    assert f"budget 120: saved {flag}" in out
    assert "≤0.565" in out


def test_edge_quick_flags_only_budgets_that_drop_joins(capsys):
    # The quick preset drops no join at its 25 % focus budget, so that
    # saving prints as measured; only the 50 % budget drops joins.
    assert main(["edge", "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "backbone bandwidth saved 46.0% (analytic" in lines[-1]
    notes = [line for line in lines if line.startswith("budget ")]
    assert notes == ["budget 90: saved ≤ 70.6%, 19 of 276 hits never reached the origin"]


def test_edge_quick_with_metrics(tmp_path, capsys):
    metrics_path = tmp_path / "edge.json"
    assert (
        main(["edge", "--quick", "--metrics-out", str(metrics_path)]) == 0
    )
    assert "hit ratio" in capsys.readouterr().out
    document = json.loads(metrics_path.read_text())
    assert document["manifest"]["experiment"] == "edge"
    counters = document["metrics"]["counters"]
    assert counters["edge.cache.hits"] > 0
    assert "edge.class.premium.requests" in counters


def test_edge_rejects_bad_classes(capsys):
    # Configuration errors surface as a clean exit code 2, no traceback.
    assert main(["edge", "--quick", "--classes", "gold:3"]) == 2
    err = capsys.readouterr().err
    assert "name:weight:share" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["fig7", "--quick", "--cache-budget", "0.5"], "--cache-budget"),
        (["cluster", "--quick", "--prefix-policy", "uniform"], "--prefix-policy"),
        (["fig8", "--quick", "--classes", "a:1:0.5"], "--classes"),
    ],
)
def test_edge_flags_rejected_on_wrong_command(argv, flag, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert flag in capsys.readouterr().err


def test_parser_knows_serve_and_loadgen():
    parser = build_parser()
    assert parser.parse_args(["serve"]).command == "serve"
    args = parser.parse_args(["loadgen", "--connect", "127.0.0.1:1", "--clients", "5"])
    assert args.command == "loadgen"
    assert args.clients == 5


def test_loadgen_requires_connect(capsys):
    with pytest.raises(SystemExit):
        main(["loadgen"])
    assert "--connect" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["fig7", "--quick", "--serve-seconds", "1"], "--serve-seconds"),
        (["fig7", "--quick", "--replicas", "2"], "--replicas"),
        (["serve", "--clients", "5"], "--clients"),
        (["serve", "--compare-sim"], "--compare-sim"),
        (["fig7", "--quick", "--register-timeout", "1"], "--register-timeout"),
    ],
)
def test_serving_flags_rejected_on_wrong_command(argv, flag, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert flag in capsys.readouterr().err


def test_socket_backend_without_workers_is_a_clean_error(capsys):
    # Satellite bugfix: no traceback, an actionable message, exit code 2.
    rc = main(
        [
            "fig7",
            "--quick",
            "--backend",
            "socket",
            "--bind",
            "127.0.0.1:0",
            "--jobs",
            "1",
            "--register-timeout",
            "0.2",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "repro-cli: error:" in err
    assert "no workers registered" in err
    assert "repro-cli worker --connect" in err
    assert "Traceback" not in err


def test_serve_loadgen_loopback_pair(capsys, tmp_path):
    """The CLI pair end to end: daemon thread + loadgen with every gate on."""
    import socket
    import threading

    # Pick a free loopback port up front; loadgen's built-in connect retry
    # (wait_for_server) absorbs the race with the daemon thread binding it.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    thread = threading.Thread(
        target=main,
        args=(
            [
                "serve",
                "--bind",
                f"127.0.0.1:{port}",
                "--slot-duration",
                "0.05",
                "--segments",
                "6",
                "--serve-seconds",
                "6",
            ],
        ),
        daemon=True,
    )
    thread.start()

    metrics_path = tmp_path / "loadgen.json"
    rc = main(
        [
            "loadgen",
            "--connect",
            f"127.0.0.1:{port}",
            "--clients",
            "30",
            "--duration",
            "1",
            "--arrivals",
            "uniform",
            "--max-dropped",
            "0",
            "--p99-bound",
            "0.15",
            "--compare-sim",
            "--metrics-out",
            str(metrics_path),
        ]
    )
    # On a failed gate, loadgen has printed its JSON summary and the CLI the
    # gate's error: show both, so the failure says which gate fired.
    captured = capsys.readouterr()
    assert rc == 0, captured.out + captured.err
    out = captured.out
    summary = json.loads(out[out.index("{") : out.rindex("}") + 1])
    assert summary["dropped"] == 0
    assert summary["completed"] == 30
    assert summary["simulation"]["within_tolerance"] is True
    document = json.loads(metrics_path.read_text())
    assert document["metrics"]["counters"]["loadgen.sessions.completed"] == 30
    thread.join(timeout=15)


# ---------------------------------------------------------------------------
# --workload and adaptive-study
# ---------------------------------------------------------------------------


def test_parser_knows_adaptive_study_and_workload():
    parser = build_parser()
    args = parser.parse_args(
        ["adaptive-study", "--quick", "--workload", "flash:peak=100,decay=1"]
    )
    assert args.command == "adaptive-study"
    assert args.workload == ["flash:peak=100,decay=1"]
    args = parser.parse_args(
        ["fig7", "--workload", "20", "--workload", "diurnal:child,peak=50"]
    )
    assert args.workload == ["20", "diurnal:child,peak=50"]


def test_adaptive_study_quick(capsys):
    assert main(["adaptive-study", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "static-peak" in out and "adaptive-peak" in out
    assert "verified: yes" in out


def test_adaptive_study_quick_with_metrics(tmp_path, capsys):
    metrics_path = tmp_path / "adaptive.json"
    rc = main(
        ["adaptive-study", "--quick", "--metrics-out", str(metrics_path)]
    )
    assert rc == 0
    document = json.loads(metrics_path.read_text())
    assert document["manifest"]["experiment"] == "adaptive-study"
    assert document["manifest"]["params"]["workload"]
    assert document["metrics"]["counters"]["protocol.retunes"] >= 1


def test_fig7_quick_with_workload_sweep(capsys):
    rc = main(
        [
            "fig7",
            "--quick",
            "--workload",
            "poisson:40",
            "--workload",
            "flash:peak=120,decay=1",
        ]
    )
    assert rc == 0
    assert "DHB" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec,hint",
    [
        ("bogus:1", "unknown workload kind"),
        ("diurnal:child,peak=bogus", "peak must be a number"),
        ("flash:peak=400", "missing required parameter"),
        ("mmpp:rates=20|200", "missing required parameter"),
        ("poisson:-5", "must be > 0"),
        ("trace:/nonexistent/file.txt", "trace"),
        ("", "empty"),
    ],
)
def test_malformed_workload_specs_exit_2_with_grammar(spec, hint, capsys):
    """Malformed --workload strings are configuration errors: exit code 2,
    the grammar in the message, and no traceback."""
    rc = main(["adaptive-study", "--quick", "--workload", spec])
    assert rc == 2
    err = capsys.readouterr().err
    assert "repro-cli: error:" in err
    assert "workload spec grammar" in err
    assert hint in err
    assert "Traceback" not in err


def test_malformed_workload_on_fig7_also_clean(capsys):
    rc = main(["fig7", "--quick", "--workload", "diurnal:goth,peak=10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "workload spec grammar" in err and "Traceback" not in err


def test_non_finite_workload_on_fig7_exits_2(capsys):
    rc = main(["fig7", "--quick", "--workload", "poisson:nan"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite" in err and "workload spec grammar" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fig9", "--quick", "--workload", "20"],
        ["figures", "--workload", "20"],
        ["ablations", "--quick", "--workload", "20"],
    ],
)
def test_workload_flag_rejected_on_wrong_command(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert "--workload" in capsys.readouterr().err


def test_workload_flag_repeat_rejected_outside_sweeps(capsys):
    with pytest.raises(SystemExit):
        main(
            [
                "adaptive-study",
                "--quick",
                "--workload",
                "20",
                "--workload",
                "30",
            ]
        )
    err = capsys.readouterr().err
    assert "repeated only for the fig7/fig8 sweeps" in err
