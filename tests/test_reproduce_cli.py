"""Tests for the ``python -m repro`` reproduction CLI."""

from __future__ import annotations

import json

import pytest

from repro.eval import EvaluationConfig
from repro.reproduce import ARTEFACTS, build_parser, main, run_artefact


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["artefact", "all"])
        assert args.command == "artefact"
        assert args.names == ["all"]
        assert args.profile == "quick"
        assert args.output_dir is None

    def test_rejects_unknown_artefact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["artefact", "table3", "fig99"])

    def test_no_subcommand_prints_usage_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_jobs_is_a_run_flag_only(self):
        assert build_parser().parse_args(["run", "--jobs", "4"]).jobs == 4
        for argv in (
            ["--jobs", "2", "artefact", "table1"],
            ["artefact", "table1", "--jobs", "2"],
            ["run", "--executor", "thread"],
            ["--artefact", "table3"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_artefact_subcommand_inherits_root_profile(self):
        args = build_parser().parse_args(["--profile", "full", "artefact", "fig6"])
        assert args.command == "artefact"
        assert args.names == ["fig6"]
        assert args.profile == "full"

    def test_artefact_subcommand_own_profile(self):
        args = build_parser().parse_args(["artefact", "table1", "--profile", "standard"])
        assert args.profile == "standard"

    def test_artefact_subcommand_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["artefact", "fig99"])

    def test_run_subcommand_flags(self):
        args = build_parser().parse_args(
            ["run", "--models", "CALLOC", "KNN", "--epsilons", "0.1", "0.3"]
        )
        assert args.command == "run"
        assert args.models == ["CALLOC", "KNN"]
        assert args.epsilons == [0.1, 0.3]

    def test_artefact_registry_covers_every_paper_artefact(self):
        assert set(ARTEFACTS) == {
            "table1",
            "table2",
            "table3",
            "fig1",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "ablation",
            "robustness",
        }


class TestExecution:
    def test_run_table_artefact_writes_output(self, tmp_path):
        text = run_artefact("table1", EvaluationConfig.quick(), tmp_path)
        assert "Oneplus" in text
        assert (tmp_path / "table1.txt").exists()

    def test_main_with_cheap_artefact(self, capsys, tmp_path):
        exit_code = main(["artefact", "table3", "--output-dir", str(tmp_path)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "table3" in captured.out
        assert (tmp_path / "table3.txt").exists()

    def test_artefact_subcommand_runs_multiple(self, capsys, tmp_path):
        exit_code = main(["artefact", "table1", "table3", "--output-dir", str(tmp_path)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Oneplus" in captured.out
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table3.txt").exists()


class TestRegistrySubcommands:
    def test_list_models_enumerates_calloc_and_baselines(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        for name in ("CALLOC", "KNN", "GPC", "DNN", "AdvLoc", "SANGRIA", "ANVIL", "WiDeep"):
            assert name in out

    def test_list_models_tag_filter(self, capsys):
        assert main(["list-models", "--tag", "framework"]) == 0
        out = capsys.readouterr().out
        assert "CALLOC" in out
        assert "KNN" not in out

    def test_list_attacks(self, capsys):
        assert main(["list-attacks"]) == 0
        out = capsys.readouterr().out
        for name in ("FGSM", "PGD", "MIM", "MITM-manipulation", "MITM-spoofing"):
            assert name in out

    def test_list_scenarios_enumerates_every_family(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (
            "clean",
            "drift",
            "ap-outage",
            "rogue-ap",
            "unseen-device",
            "adaptive-blackbox",
        ):
            assert name in out

    def test_list_scenarios_tag_filter(self, capsys):
        assert main(["list-scenarios", "--tag", "environment"]) == 0
        out = capsys.readouterr().out
        assert "drift" in out
        assert "unseen-device" not in out

    @pytest.mark.parametrize(
        "command,kind,expected",
        [
            ("list-models", "model", "CALLOC"),
            ("list-attacks", "attack", "FGSM"),
            ("list-scenarios", "scenario", "drift"),
        ],
    )
    def test_list_json_emits_shared_catalog_format(self, capsys, command, kind, expected):
        assert main([command, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == kind
        assert document["count"] == len(document["entries"]) > 0
        names = [entry["name"] for entry in document["entries"]]
        assert expected in names
        for entry in document["entries"]:
            assert {"name", "tags", "summary", "aliases"} <= set(entry)

    def test_list_json_respects_tag_filter(self, capsys):
        assert main(["list-models", "--json", "--tag", "framework"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in document["entries"]] == ["CALLOC"]


class TestStoreSubcommand:
    def _publish(self, store_dir, tiny_campaign, name="knn", tags=("prod",)):
        from repro.api import LocalizationService
        from repro.serve import ModelStore

        service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
        return ModelStore(store_dir).publish(service, name, tags=tags)

    def test_store_list_and_inspect(self, capsys, tmp_path, tiny_campaign):
        self._publish(tmp_path, tiny_campaign)
        assert main(["store", "--store", str(tmp_path), "list"]) == 0
        out = capsys.readouterr().out
        assert "knn" in out and "prod" in out
        assert main(["store", "--store", str(tmp_path), "inspect", "knn@prod"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ref"] == "knn@v1"
        assert document["model"] == "KNN"

    def test_store_list_json(self, capsys, tmp_path, tiny_campaign):
        self._publish(tmp_path, tiny_campaign)
        assert main(["store", "--store", str(tmp_path), "list", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "served-model"
        assert document["entries"][0]["name"] == "knn"

    def test_store_promote_and_export(self, capsys, tmp_path, tiny_campaign):
        self._publish(tmp_path / "store", tiny_campaign)
        assert main(
            ["store", "--store", str(tmp_path / "store"), "promote", "knn@v1", "canary"]
        ) == 0
        assert "canary" in capsys.readouterr().out
        destination = tmp_path / "exported.npz"
        assert main(
            [
                "store", "--store", str(tmp_path / "store"),
                "export", "knn@canary", str(destination),
            ]
        ) == 0
        assert destination.exists()

    def test_store_unknown_ref_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["store", "--store", str(tmp_path), "inspect", "ghost"])


class TestServeParser:
    def test_serve_defaults(self, capsys):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8080
        assert args.max_batch == 64
        # Every request goes through the batcher; --max-batch 1 stops coalescing.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--no-batching"])
        assert excinfo.value.code == 2
        assert "--no-batching" in capsys.readouterr().err

    def test_serve_route_flags(self):
        args = build_parser().parse_args(
            ["serve", "--route", "b1/knn=knn@prod", "--route", "b2/knn=knn@v2"]
        )
        assert args.route == ["b1/knn=knn@prod", "b2/knn=knn@v2"]

    def test_aio_flag_still_parses_but_is_hidden(self, capsys):
        assert build_parser().parse_args(["serve", "--aio"]).aio is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert "--aio" not in capsys.readouterr().out


class TestServeCommand:
    @pytest.mark.parametrize("extra", [[], ["--aio"]], ids=["plain", "aio-flag"])
    def test_serve_runs_aio_front_end_with_shadow_route(
        self, monkeypatch, tmp_path, extra
    ):
        from repro.serve.aio import server as aio_server
        from repro.serve.aio.routing import RouteSpec

        calls = []
        monkeypatch.setattr(
            aio_server, "serve_aio", lambda store, **kwargs: calls.append(kwargs)
        )
        monkeypatch.setenv("REPRO_TELEMETRY", "0")  # no event sink in the cache
        route = "ep=knn@prod,shadow=knn@v1,fraction=0.5"
        assert main(["serve", "--store", str(tmp_path), "--route", route, *extra]) == 0
        assert len(calls) == 1
        spec = calls[0]["routes"]["ep"]
        assert isinstance(spec, RouteSpec)
        assert (spec.ref, spec.shadow, spec.fraction) == ("knn@prod", "knn@v1", 0.5)


class TestRunSubcommand:
    SPEC = {
        "profile": "quick",
        "models": ["KNN"],
        "devices": ["OP3"],
        "attack_methods": ["FGSM"],
        "epsilons": [0.3],
        "phi_percents": [50.0],
    }

    def test_run_with_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out_dir = tmp_path / "out"
        exit_code = main(["run", "--spec", str(spec_path), "--output-dir", str(out_dir)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "KNN" in out
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "spec.json").exists()

    def test_run_with_model_flags(self, capsys):
        exit_code = main(
            [
                "run",
                "--models", "KNN",
                "--devices", "OP3",
                "--methods", "FGSM",
                "--epsilons", "0.3",
                "--phis", "50",
            ]
        )
        assert exit_code == 0
        assert "KNN" in capsys.readouterr().out

    def test_run_requires_spec_or_models(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_rejects_spec_and_models_together(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        with pytest.raises(SystemExit):
            main(["run", "--spec", str(spec_path), "--models", "KNN"])

    def test_run_rejects_spec_and_grid_flags_together(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        with pytest.raises(SystemExit, match="--devices"):
            main(["run", "--spec", str(spec_path), "--devices", "S7"])
        with pytest.raises(SystemExit, match="--epsilons"):
            main(["run", "--spec", str(spec_path), "--epsilons", "0.5"])

    def test_run_reports_effective_profile(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        assert main(["run", "--spec", str(spec_path)]) == 0
        assert "profile=quick" in capsys.readouterr().out

    def test_run_clean_error_for_unknown_model(self, capsys):
        with pytest.raises(SystemExit, match="did you mean"):
            main(["run", "--models", "KNNN"])

    def test_run_with_scenario_flags_skips_attack_sweep(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        exit_code = main(
            [
                "run",
                "--models", "KNN",
                "--devices", "OP3",
                "--scenario", "drift", "ap-outage",
                "--no-cache",
                "--output-dir", str(out_dir),
            ]
        )
        assert exit_code == 0
        assert "KNN" in capsys.readouterr().out
        rows = (out_dir / "results.csv").read_text().splitlines()
        header, body = rows[0].split(","), rows[1:]
        scenario_col = header.index("scenario")
        assert {line.split(",")[scenario_col] for line in body} == {
            "drift",
            "ap-outage",
        }

    def test_run_clean_error_for_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit, match="scenario"):
            main(["run", "--models", "KNN", "--scenario", "earthquake"])

    def test_run_rejects_spec_and_scenario_together(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        with pytest.raises(SystemExit, match="--scenario"):
            main(["run", "--spec", str(spec_path), "--scenario", "drift"])

    def test_run_dry_run_prints_plan_without_executing(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out_dir = tmp_path / "out"
        exit_code = main(
            ["run", "--spec", str(spec_path), "--dry-run", "--output-dir", str(out_dir)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        # KNN on one building/device: 1 campaign, 1 train, 1 eval unit.
        assert "1 campaign / 1 train / 1 eval / 0 scenario units" in out
        assert "total" in out
        assert not out_dir.exists()  # nothing ran, nothing written


class TestQueueCommand:
    SPEC = TestRunSubcommand.SPEC

    def _submit(self, tmp_path, capsys) -> str:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        assert (
            main(
                ["queue", "submit", str(spec_path), "--cache-dir", str(tmp_path / "c")]
            )
            == 0
        )
        out = capsys.readouterr().out
        run_id = out.splitlines()[0].strip()
        assert run_id.startswith("run-")
        assert "submitted 3 units" in out
        return run_id

    def test_submit_work_status_result(self, capsys, tmp_path):
        run_id = self._submit(tmp_path, capsys)
        cache_flag = ["--cache-dir", str(tmp_path / "c")]

        assert main(["queue", "work", run_id, "--poll", "0.01"] + cache_flag) == 0
        assert "run complete" in capsys.readouterr().out

        assert main(["queue", "status", run_id, "--json"] + cache_flag) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] and status["succeeded"]
        assert status["units_done"] == 3

        out_dir = tmp_path / "out"
        assert (
            main(["queue", "result", run_id, "--output-dir", str(out_dir)] + cache_flag)
            == 0
        )
        assert "1 record(s)" in capsys.readouterr().out
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "spec.json").exists()

        assert main(["queue", "list"] + cache_flag) == 0
        assert run_id in capsys.readouterr().out

    def test_resubmit_errors_cleanly(self, capsys, tmp_path):
        run_id = self._submit(tmp_path, capsys)
        spec_path = tmp_path / "spec.json"
        with pytest.raises(SystemExit, match="already exists"):
            main(
                ["queue", "submit", str(spec_path), "--cache-dir", str(tmp_path / "c")]
            )
        # ... unless a fresh run id forks it explicitly.
        assert (
            main(
                [
                    "queue", "submit", str(spec_path),
                    "--run-id", "fork-1",
                    "--cache-dir", str(tmp_path / "c"),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.splitlines()[0] == "fork-1"
        assert run_id != "fork-1"

    def test_unknown_run_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no run"):
            main(
                ["queue", "status", "run-missing", "--cache-dir", str(tmp_path / "c")]
            )

    def test_result_before_completion(self, capsys, tmp_path):
        run_id = self._submit(tmp_path, capsys)
        cache_flag = ["--cache-dir", str(tmp_path / "c")]
        with pytest.raises(SystemExit, match="no result"):
            main(["queue", "result", run_id] + cache_flag)
        assert main(["queue", "result", run_id, "--allow-partial"] + cache_flag) == 0
        assert "0 record(s)" in capsys.readouterr().out
