"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import urllib.request

import pytest

from repro.cli import build_parser, main

_REPO = pathlib.Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_figure1_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.trials == 1000
        assert args.bits == 17


class TestCommands:
    def test_count_nelson_yu(self, capsys):
        assert main(["count", "--algorithm", "nelson_yu", "--n", "50000"]) == 0
        out = capsys.readouterr().out
        assert "nelson_yu" in out
        assert "rel.err" in out

    def test_count_morris_with_explicit_a(self, capsys):
        assert (
            main(
                [
                    "count",
                    "--algorithm",
                    "morris",
                    "--n",
                    "10000",
                    "--a",
                    "0.01",
                ]
            )
            == 0
        )
        assert "morris" in capsys.readouterr().out

    def test_count_all_registry_algorithms(self, capsys):
        for algorithm in (
            "morris",
            "morris_plus",
            "nelson_yu",
            "simplified_ny",
            "csuros",
            "saturating",
            "exact",
        ):
            assert (
                main(["count", "--algorithm", algorithm, "--n", "5000"]) == 0
            ), algorithm

    def test_figure1_small(self, capsys):
        assert main(["figure1", "--trials", "40"]) == 0
        out = capsys.readouterr().out
        assert "KS distance" in out
        assert "% of runs" in out

    def test_appendix_a(self, capsys):
        assert main(["appendix-a"]) == 0
        assert "vanilla" in capsys.readouterr().out

    def test_space_delta(self, capsys):
        assert main(["space", "--sweep", "delta", "--trials", "3"]) == 0
        assert "NelsonYu" in capsys.readouterr().out

    def test_space_n(self, capsys):
        assert main(["space", "--sweep", "n", "--trials", "3"]) == 0
        assert "exact counter bits" in capsys.readouterr().out

    def test_floor(self, capsys):
        assert main(["floor"]) == 0
        assert "a=1 miss" in capsys.readouterr().out

    def test_lowerbound(self, capsys):
        assert main(["lowerbound", "--t", "1024"]) == 0
        out = capsys.readouterr().out
        assert "broken" in out
        assert "predicted min bits" in out

    def test_merge_morris(self, capsys):
        assert main(["merge", "--family", "morris", "--trials", "300"]) == 0
        assert "chi^2" in capsys.readouterr().out

    def test_tradeoff(self, capsys):
        assert main(["tradeoff", "--trials", "20"]) == 0
        assert "bits" in capsys.readouterr().out

    def test_bank(self, capsys):
        assert main(["bank", "--counters", "30"]) == 0
        assert "bits/ctr" in capsys.readouterr().out

    def test_ablation_transition(self, capsys):
        assert main(["ablation", "--which", "transition"]) == 0
        assert "8/a" in capsys.readouterr().out

    def test_ablation_chernoff(self, capsys):
        assert main(["ablation", "--which", "chernoff", "--trials", "30"]) == 0
        assert "epoch dispersion" in capsys.readouterr().out

    def test_ablation_rounding(self, capsys):
        assert main(["ablation", "--which", "rounding", "--trials", "30"]) == 0
        assert "dyadic" in capsys.readouterr().out

    def test_cluster(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "3",
                    "--events",
                    "5000",
                    "--keys",
                    "100",
                    "--checkpoint-every",
                    "2000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "node-2" in out
        assert "events/s" in out
        assert "global error" in out

    def test_cluster_with_kill(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "2",
                    "--events",
                    "4000",
                    "--keys",
                    "50",
                    "--checkpoint-every",
                    "1000",
                    "--kill",
                    "1@2000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 node recoveries" in out

    def test_cluster_bad_kill_spec(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--events", "100", "--kill", "nonsense"])

    def test_cluster_gossip_aggregation(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "3",
                    "--events",
                    "5000",
                    "--keys",
                    "100",
                    "--algorithm",
                    "exact",
                    "--checkpoint-every",
                    "2000",
                    "--aggregation",
                    "gossip",
                    "--gossip-fanout",
                    "2",
                    "--gossip-every",
                    "1500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "push-pull rounds" in out
        assert "max staleness" in out
        assert "gossip aggregation: fanout 2" in out

    def test_cluster_gossip_every_requires_gossip_aggregation(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--events", "100", "--gossip-every", "50"])

    def test_cluster_gossip_fanout_requires_gossip_aggregation(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--events", "100", "--gossip-fanout", "3"])

    def test_cluster_file_storage(self, capsys, tmp_path):
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "2",
                    "--events",
                    "4000",
                    "--keys",
                    "50",
                    "--checkpoint-every",
                    "1000",
                    "--storage",
                    "file",
                    "--storage-dir",
                    str(tmp_path),
                    "--wal-segment",
                    "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bytes retained" in out
        assert "recover_cluster" in out
        assert (tmp_path / "manifest.json").exists()
        assert list(tmp_path.glob("checkpoints/node-*.ckpt"))

    def test_cluster_file_storage_requires_dir(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--events", "100", "--storage", "file"])

    def test_cluster_storage_dir_requires_file_backend(self):
        with pytest.raises(SystemExit):
            main(
                ["cluster", "--events", "100", "--storage-dir", "/tmp/x"]
            )

    def test_cluster_storage_overwrite_requires_file_backend(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--events", "100", "--storage-overwrite"])

    def test_cluster_parallel_ingest(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "3",
                    "--events",
                    "6000",
                    "--keys",
                    "100",
                    "--checkpoint-every",
                    "2000",
                    "--workers",
                    "3",
                    "--batch",
                    "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parallel ingest: 3 workers, delivery batch 32" in out
        assert "events/s" in out

    def test_cluster_rejects_zero_workers(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--events", "100", "--workers", "0"])

    def test_cluster_plan_process(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--plan",
                    "process",
                    "--nodes",
                    "2",
                    "--events",
                    "3000",
                    "--keys",
                    "100",
                    "--checkpoint-every",
                    "1500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "process plan: one worker process per node" in out
        assert "events/s" in out

    def test_cluster_plan_serial_explicit(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--plan",
                    "serial",
                    "--events",
                    "2000",
                    "--keys",
                    "100",
                ]
            )
            == 0
        )
        assert "events/s" in capsys.readouterr().out

    def test_cluster_unknown_plan_exits_2_listing_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "--plan", "threads", "--events", "100"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in ("auto", "serial", "parallel", "process"):
            assert name in err

    def test_cluster_plan_process_rejects_workers(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "cluster",
                    "--plan",
                    "process",
                    "--workers",
                    "4",
                    "--events",
                    "100",
                ]
            )

    def test_cluster_serve_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "serve"])
        assert excinfo.value.code == 2

    def test_cluster_serve_round_trip(self, capsys, tmp_path):
        assert (
            main(
                [
                    "cluster",
                    "serve",
                    "up",
                    "--dir",
                    str(tmp_path),
                    "--nodes",
                    "2",
                    "--timeout",
                    "30",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 workers up" in out
        try:
            assert main(["cluster", "serve", "ps", "--dir", str(tmp_path)]) == 0
            assert capsys.readouterr().out.count("running") == 2
            assert (
                main(["cluster", "serve", "status", "--dir", str(tmp_path)])
                == 0
            )
            assert capsys.readouterr().out.count("running") == 2
        finally:
            assert (
                main(["cluster", "serve", "down", "--dir", str(tmp_path)])
                == 0
            )
        assert capsys.readouterr().out.count("stopped") == 2
        with pytest.raises(SystemExit, match="no fleet"):
            main(["cluster", "serve", "ps", "--dir", str(tmp_path)])

    def test_cluster_serve_http_rejects_bad_port(self):
        with pytest.raises(
            SystemExit, match="--serve-http expects a port"
        ):
            main(
                ["cluster", "--events", "100", "--serve-http", "99999"]
            )

    def test_cluster_serve_http_round_trip(self):
        """--serve-http serves the finished run until SIGTERM."""
        env = dict(os.environ)
        src = str(_REPO / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "cluster",
                "--events",
                "2000",
                "--keys",
                "50",
                "--aggregation",
                "gossip",
                "--serve-http",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            url = None
            for line in process.stdout:
                if line.startswith("serving: "):
                    url = line.split()[1]
                    break
            assert url, "server never announced its URL"
            with urllib.request.urlopen(
                url + "/healthz", timeout=10
            ) as reply:
                assert json.loads(reply.read())["status"] == "ok"
            with urllib.request.urlopen(
                url + "/v1/topk?k=3", timeout=10
            ) as reply:
                assert json.loads(reply.read())["k"] == 3
        finally:
            process.send_signal(signal.SIGTERM)
            remainder = process.stdout.read()
            assert process.wait(timeout=30) == 0
        assert "serving stopped" in remainder

    def test_cluster_serve_query_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "serve", "query"])
        assert excinfo.value.code == 2

    def test_cluster_serve_query_up_without_fleet_is_loud(
        self, tmp_path
    ):
        with pytest.raises(SystemExit, match="no fleet"):
            main(
                ["cluster", "serve", "query", "up", "--dir", str(tmp_path)]
            )

    def test_cluster_serve_query_status_without_daemon_is_loud(
        self, tmp_path
    ):
        with pytest.raises(SystemExit, match="no query daemon"):
            main(
                [
                    "cluster",
                    "serve",
                    "query",
                    "status",
                    "--dir",
                    str(tmp_path),
                ]
            )

    def test_cluster_serve_query_round_trip(self, capsys, tmp_path):
        """Fleet up → query daemon up → HTTP reads → down → down."""
        assert (
            main(
                [
                    "cluster",
                    "serve",
                    "up",
                    "--dir",
                    str(tmp_path),
                    "--nodes",
                    "2",
                    "--timeout",
                    "30",
                ]
            )
            == 0
        )
        capsys.readouterr()
        try:
            assert (
                main(
                    [
                        "cluster",
                        "serve",
                        "query",
                        "up",
                        "--dir",
                        str(tmp_path),
                        "--timeout",
                        "30",
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "query daemon: pid" in out
            url = next(
                token
                for token in out.split()
                if token.startswith("http://")
            )
            with urllib.request.urlopen(
                url + "/healthz", timeout=10
            ) as reply:
                payload = json.loads(reply.read())
            assert payload["status"] == "ok"
            assert payload["replicas"] == [0, 1]
            with urllib.request.urlopen(
                url + "/v1/view", timeout=10
            ) as reply:
                view = json.loads(reply.read())
            assert view["staleness"]["consistency"] == "replica"
            assert (
                main(
                    [
                        "cluster",
                        "serve",
                        "query",
                        "status",
                        "--dir",
                        str(tmp_path),
                    ]
                )
                == 0
            )
            assert "running" in capsys.readouterr().out
        finally:
            assert (
                main(
                    [
                        "cluster",
                        "serve",
                        "query",
                        "down",
                        "--dir",
                        str(tmp_path),
                    ]
                )
                == 0
            )
            assert "query daemon:" in capsys.readouterr().out
            assert (
                main(["cluster", "serve", "down", "--dir", str(tmp_path)])
                == 0
            )

    def test_cluster_wal_fsync_requires_file_backend(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--events", "100", "--wal-fsync", "8"])

    def test_cluster_metrics_out_writes_strict_json(
        self, capsys, tmp_path
    ):
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "2",
                    "--events",
                    "3000",
                    "--keys",
                    "50",
                    "--checkpoint-every",
                    "1000",
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        assert "telemetry snapshot" in capsys.readouterr().out
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert set(snapshot) == {
            "counters",
            "gauges",
            "histograms",
            "stages",
        }
        delivered = sum(
            value
            for series, value in snapshot["counters"].items()
            if series.startswith("events_delivered_total")
        )
        assert delivered == 3000
        # Strict JSON: a re-dump with allow_nan=False must round-trip.
        json.dumps(snapshot, sort_keys=True, allow_nan=False)

    def test_cluster_metrics_out_prom_renders_prometheus(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "2",
                    "--events",
                    "2000",
                    "--keys",
                    "50",
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        text = metrics_path.read_text(encoding="utf-8")
        assert "# TYPE events_delivered_total counter" in text
        assert 'events_delivered_total{node="0"}' in text

    def test_cluster_trace_out_writes_jsonl(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "2",
                    "--events",
                    "3000",
                    "--keys",
                    "50",
                    "--checkpoint-every",
                    "1000",
                    "--kill",
                    "1@1500",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert "structured trace" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in trace_path.read_text(
                encoding="utf-8"
            ).splitlines()
        ]
        kinds = {record["type"] for record in records}
        assert {
            "event_delivered",
            "checkpoint_fence",
            "crash",
            "recover",
        } <= kinds
        assert all("position" in record for record in records)

    def test_cluster_no_telemetry_still_runs(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--nodes",
                    "2",
                    "--events",
                    "2000",
                    "--keys",
                    "50",
                    "--no-telemetry",
                ]
            )
            == 0
        )
        assert "events/s" in capsys.readouterr().out

    def test_cluster_no_telemetry_refuses_metrics_out(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "cluster",
                    "--events",
                    "100",
                    "--no-telemetry",
                    "--metrics-out",
                    "/tmp/metrics.json",
                ]
            )

    def test_cluster_no_telemetry_refuses_trace_out(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "cluster",
                    "--events",
                    "100",
                    "--no-telemetry",
                    "--trace-out",
                    "/tmp/trace.jsonl",
                ]
            )

    def test_cluster_refuses_existing_storage_dir(self, tmp_path):
        args = [
            "cluster",
            "--nodes",
            "2",
            "--events",
            "2000",
            "--keys",
            "50",
            "--storage",
            "file",
            "--storage-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        with pytest.raises(SystemExit):
            main(args)  # same dir again: refused without overwrite
        assert main([*args, "--storage-overwrite"]) == 0



_GOSSIP = ["--aggregation", "gossip"]
_MEMBERSHIP = [*_GOSSIP, "--membership"]

#: ``cluster`` invocations that must be refused before any event runs,
#: each with every other flag valid so the named flag is the only fault.
_CLUSTER_REFUSALS = {
    "membership-without-gossip": ["--membership"],
    "kill-dead-without-membership": [*_GOSSIP, "--kill-dead", "1@50"],
    "suspect-after-without-membership": [*_GOSSIP, "--suspect-after", "3"],
    "quorum-without-membership": [*_GOSSIP, "--membership-quorum", "2"],
    "heal-without-membership": [*_GOSSIP, "--membership-heal", "recover"],
    "retain-without-window": ["--retain", "2"],
    "kill-dead-no-at": [*_MEMBERSHIP, "--kill-dead", "nonsense"],
    "kill-dead-bad-event": [*_MEMBERSHIP, "--kill-dead", "1@soon"],
    "shrink-no-at": ["--shrink", "nonsense"],
    "shrink-bad-node": ["--shrink", "one@50"],
    "kill-at-end": ["--kill", "1@100"],
    "kill-past-end": ["--kill", "1@500"],
    "kill-dead-past-end": [*_MEMBERSHIP, "--kill-dead", "1@500"],
    "grow-at-end": ["--grow", "100"],
    "grow-past-end": ["--grow", "500"],
    "shrink-at-end": ["--shrink", "1@100"],
    "shrink-past-end": ["--shrink", "1@500"],
}


class TestClusterRefusals:
    @pytest.mark.parametrize(
        "flags", _CLUSTER_REFUSALS.values(), ids=_CLUSTER_REFUSALS.keys()
    )
    def test_refused_with_a_message(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "--events", "100", "--keys", "20", *flags])
        assert isinstance(excinfo.value.code, str)
        assert excinfo.value.code

    def test_explicit_parallel_plan_is_reported_at_one_worker(
        self, capsys
    ):
        args = ["cluster", "--events", "500", "--keys", "20"]
        assert main([*args, "--plan", "parallel", "--workers", "1"]) == 0
        assert "parallel ingest: 1 workers" in capsys.readouterr().out
