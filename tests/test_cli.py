"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.model == "resnet101"
        assert args.clients == 4
        assert args.methods == "edge,coca"

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--model", "alexnet"])

    def test_sweep_parses_thetas(self):
        args = build_parser().parse_args(["sweep-theta", "--thetas", "0.01,0.02"])
        assert args.thetas == "0.01,0.02"

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.shards == 4
        assert args.sync_interval == 1
        assert args.policy == "hash"
        assert not args.json

    def test_cluster_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--policy", "random"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "resnet101" in out
        assert "ucf101" in out

    def test_compare_unknown_method_fails(self, capsys):
        code = main(
            ["compare", "--methods", "edge,bogus", "--classes", "10",
             "--model", "resnet50", "--clients", "2", "--rounds", "1"]
        )
        assert code == 2

    def test_compare_runs_edge_only(self, capsys):
        code = main(
            [
                "compare",
                "--methods", "edge",
                "--dataset", "ucf101",
                "--classes", "10",
                "--model", "resnet50",
                "--clients", "2",
                "--rounds", "1",
                "--warmup", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Edge-Only" in out
        assert "30.50ms" in out

    def test_compare_json_output(self, capsys):
        code = main(
            [
                "compare",
                "--methods", "edge",
                "--dataset", "ucf101",
                "--classes", "10",
                "--model", "resnet50",
                "--clients", "2",
                "--rounds", "1",
                "--warmup", "0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["model"] == "resnet50"
        assert payload["methods"]["edge"]["latency_ms"] == pytest.approx(30.5)
        assert payload["methods"]["edge"]["samples"] == 600

    def test_cluster_runs(self, capsys):
        code = main(
            [
                "cluster",
                "--dataset", "ucf101",
                "--classes", "10",
                "--model", "resnet50",
                "--shards", "2",
                "--clients", "4",
                "--rounds", "1",
                "--warmup", "0",
                "--frames", "30",
                "--policy", "least-loaded",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "throughput" in out

    def test_cluster_json_output(self, capsys):
        code = main(
            [
                "cluster",
                "--dataset", "ucf101",
                "--classes", "10",
                "--model", "resnet50",
                "--shards", "2",
                "--clients", "4",
                "--rounds", "1",
                "--warmup", "0",
                "--frames", "30",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["shards"] == 2
        assert payload["throughput_inferences_per_s"] > 0
        assert len(payload["nodes"]) == 2
        assert payload["metrics"]["samples"] == 4 * 30

    def test_sweep_theta_runs(self, capsys):
        code = main(
            [
                "sweep-theta",
                "--dataset", "ucf101",
                "--classes", "10",
                "--model", "resnet50",
                "--clients", "2",
                "--rounds", "1",
                "--warmup", "0",
                "--thetas", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.050" in out

    def test_profile_round_runs(self, capsys):
        code = main(
            [
                "profile-round",
                "--dataset", "ucf101",
                "--classes", "10",
                "--model", "resnet50",
                "--clients", "2",
                "--rounds", "1",
                "--warmup", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for stage in ("sample-gen", "probe", "model", "collect", "allocate",
                      "merge"):
            assert stage in out
        assert "inf/s" in out

    def test_profile_round_json_output(self, capsys):
        code = main(
            [
                "profile-round",
                "--dataset", "ucf101",
                "--classes", "10",
                "--model", "resnet50",
                "--clients", "2",
                "--rounds", "1",
                "--warmup", "0",
                "--dtype", "float64",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["lookup_dtype"] == "float64"
        assert payload["scenario"]["frames"] == 2 * 300
        assert set(payload["stages_ms"]) == {
            "sample-gen", "probe", "model", "collect", "allocate", "merge"
        }
        assert payload["total_ms"] > 0
        assert payload["inferences_per_s"] > 0


SMALL = ["--classes", "10", "--model", "resnet50", "--clients", "2", "--rounds", "1",
         "--warmup", "0"]


class TestMethodRows:
    def test_compare_passes_theta_to_smtm_and_coca_only(self, monkeypatch, capsys):
        import repro.cli as cli

        seen = {}
        build_runner = cli.build_runner

        def spy(method, scenario, threshold=None):
            seen[method] = threshold
            return build_runner(method, scenario, threshold)

        monkeypatch.setattr(cli, "build_runner", spy)
        methods = "edge,learnedcache,foggycache,smtm,coca"
        assert main(["compare", "--methods", methods, "--theta", "0.07", "--json", *SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["methods"]) == methods.split(",")
        assert seen == {"Edge-Only": None, "LearnedCache": None, "FoggyCache": None,
                        "SMTM": 0.07, "CoCa": 0.07}

    def test_sweep_theta_prints_compares_coca_row(self, capsys):
        assert main(["compare", "--methods", "edge,coca", "--theta", "0.05", *SMALL]) == 0
        compare = capsys.readouterr().out.splitlines()
        assert main(["sweep-theta", "--thetas", "0.05", *SMALL]) == 0
        sweep = capsys.readouterr().out.splitlines()
        coca = next(line for line in compare if line.startswith("CoCa"))
        assert sweep[1] == "  0.050" + coca[len("CoCa".ljust(14)):]
        edge = next(line for line in compare if line.startswith("Edge-Only"))
        assert edge.endswith("—")
