"""Tests for the repro-em command line."""

import pytest

from repro.cli import main


class TestDatasets:
    def test_nominal_table(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "S-DG" in out

    def test_materialize_and_export(self, tmp_path, capsys):
        code = main(
            [
                "datasets",
                "--materialize",
                "--size-cap",
                "40",
                "--export-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Measured size" in out
        assert (tmp_path / "S-BR.csv").exists()
        assert len(list(tmp_path.glob("*.csv"))) == 12


class TestTrain:
    def test_logistic(self, capsys):
        assert main(["train", "--dataset", "S-BR", "--size-cap", "150"]) == 0
        out = capsys.readouterr().out
        assert "f1:" in out
        assert "attribute ranking:" in out

    def test_rules_matcher_describes_itself(self, capsys):
        code = main(
            ["train", "--dataset", "S-BR", "--size-cap", "150", "--matcher", "rules"]
        )
        assert code == 0
        assert "jaccard(" in capsys.readouterr().out


class TestExplain:
    def test_explains_a_record(self, capsys):
        code = main(
            [
                "explain",
                "--dataset",
                "S-BR",
                "--size-cap",
                "150",
                "--record",
                "0",
                "--samples",
                "32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "model match probability" in out
        assert "landmark=left" in out

    def test_with_baselines(self, capsys):
        code = main(
            [
                "explain",
                "--dataset",
                "S-BR",
                "--size-cap",
                "150",
                "--samples",
                "32",
                "--baselines",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mojito_drop" in out
        assert "mojito_copy" in out

    def test_record_out_of_range(self, capsys):
        code = main(
            ["explain", "--dataset", "S-BR", "--size-cap", "150", "--record", "9999"]
        )
        assert code == 2


class TestExperiment:
    def test_bench_preset_single_dataset(self, tmp_path, capsys):
        output = tmp_path / "tables.txt"
        code = main(
            [
                "experiment",
                "--preset",
                "bench",
                "--datasets",
                "S-BR",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        text = output.read_text()
        assert "Table 2" in text
        assert "Table 4" in text


class TestSummarize:
    def test_global_summary(self, capsys):
        code = main(
            [
                "summarize",
                "--dataset",
                "S-BR",
                "--size-cap",
                "150",
                "--per-label",
                "3",
                "--samples",
                "32",
            ]
        )
        assert code == 0
        assert "global summary" in capsys.readouterr().out


class TestCounterfactual:
    def test_flips_a_record(self, capsys):
        code = main(
            [
                "counterfactual",
                "--dataset",
                "S-BR",
                "--size-cap",
                "150",
                "--record",
                "0",
                "--samples",
                "48",
            ]
        )
        out = capsys.readouterr().out
        assert "counterfactual:" in out
        assert code in (0, 1)  # 1 = did not flip within budget


class TestReport:
    def test_html_report(self, tmp_path, capsys):
        output = tmp_path / "explanation.html"
        code = main(
            [
                "report",
                "--dataset",
                "S-BR",
                "--size-cap",
                "150",
                "--samples",
                "32",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_markdown_report(self, tmp_path):
        output = tmp_path / "explanation.md"
        code = main(
            [
                "report",
                "--dataset",
                "S-BR",
                "--size-cap",
                "150",
                "--samples",
                "32",
                "--format",
                "markdown",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert "Landmark:" in output.read_text(encoding="utf-8")


class TestProfile:
    def test_profile_output(self, capsys):
        assert main(["profile", "--dataset", "S-BR", "--size-cap", "150"]) == 0
        out = capsys.readouterr().out
        assert "record overlap" in out
        assert "attributes by class separation" in out


class TestCompare:
    def test_compare_two_runs(self, tmp_path, capsys):
        from repro.config import ExperimentConfig
        from repro.evaluation.persistence import save_result
        from repro.evaluation.runner import ExperimentRunner

        config = ExperimentConfig(
            name="a", per_label=2, lime_samples=16, size_cap=120,
            methods=("single",),
        )
        result = ExperimentRunner(config).run(["S-BR"])
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_result(result, first)
        save_result(result, second)
        assert main(["compare", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "run comparison" in out
        assert "0.000" in out  # identical runs → zero deltas


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_dataset_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "NOPE"])


class TestExplainerChoice:
    def test_shap_coupling_via_cli(self, capsys):
        code = main(
            [
                "explain",
                "--dataset",
                "S-BR",
                "--size-cap",
                "150",
                "--samples",
                "32",
                "--explainer",
                "shap",
            ]
        )
        assert code == 0
        assert "landmark=left" in capsys.readouterr().out


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert "FAIL" not in out


class TestParallelExperiment:
    def test_jobs_flag_produces_same_tables(self, tmp_path):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        base = [
            "experiment", "--preset", "bench", "--datasets", "S-BR", "S-FZ",
        ]
        assert main([*base, "--output", str(serial)]) == 0
        assert main([*base, "--jobs", "2", "--output", str(parallel)]) == 0
        assert serial.read_text() == parallel.read_text()


class TestModelDir:
    def test_artifact_saved_then_reused(self, tmp_path, capsys):
        base = [
            "train", "--dataset", "S-BR", "--size-cap", "150",
            "--model-dir", str(tmp_path),
        ]
        assert main(base) == 0
        artifacts = list(tmp_path.glob("*.pkl"))
        assert len(artifacts) == 1
        assert "logistic-S-BR-seed0-cap150" in artifacts[0].name
        # Second run loads the artifact instead of writing a new one.
        before = artifacts[0].stat().st_mtime_ns
        assert main(base) == 0
        assert artifacts[0].stat().st_mtime_ns == before

    def test_corrupt_artifact_retrained(self, tmp_path, capsys):
        base = [
            "explain", "--dataset", "S-BR", "--size-cap", "150",
            "--samples", "32", "--model-dir", str(tmp_path),
        ]
        assert main(base) == 0
        artifact = next(tmp_path.glob("*.pkl"))
        artifact.write_bytes(b"not a pickle")
        assert main(base) == 0  # degrades to retraining, not an error
        out = capsys.readouterr().out
        assert "landmark=left" in out


class TestServe:
    def test_stdio_round_trip(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        lines = "\n".join(
            [
                json.dumps({"record": 0, "method": "single", "samples": 32}),
                json.dumps({"record": 0, "method": "single", "samples": 32}),
                json.dumps({"op": "stats"}),
                json.dumps({"op": "shutdown"}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        code = main(
            [
                "serve", "--dataset", "S-BR", "--size-cap", "150",
                "--store-dir", str(tmp_path / "store"),
                "--model-dir", str(tmp_path / "models"),
            ]
        )
        assert code == 0
        responses = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert len(responses) == 4
        first, second, stats, shutdown = responses
        assert first["ok"] and second["ok"]
        # Bit-identical duplicate answered from the store.
        assert second["result"] == first["result"]
        assert stats["stats"]["service"]["store_hits"] == 1
        assert shutdown["shutdown"]
        assert (tmp_path / "store" / "service_stats.json").exists()


    def test_invalid_shard_count_is_a_configuration_error(
        self, capsys, monkeypatch
    ):
        import io

        for shards in ("0", "-3"):
            monkeypatch.setattr("sys.stdin", io.StringIO(""))
            code = main(["serve", "--size-cap", "150", "--shards", shards])
            assert code == 1
            err = capsys.readouterr().err
            assert f"n_shards must be >= 1, got {shards}" in err


class TestFlagDefaults:
    """A parse with no optional flags builds each config's own defaults."""

    def test_configs_match_their_dataclasses(self):
        from repro import cli
        from repro.bulk import BulkJobSpec
        from repro.config import (
            PRESETS,
            ServiceConfig,
            ShardConfig,
            StoreConfig,
        )
        from repro.core.engine import EngineConfig

        parse = cli._build_parser().parse_args
        assert cli._engine_config(parse(["explain"])) == EngineConfig()
        assert cli._experiment_config(parse(["experiment"])) == PRESETS["fast"]
        for name, preset in PRESETS.items():
            args = parse(["experiment", "--preset", name])
            assert cli._experiment_config(args) == preset
        for command in ("serve", "precompute", "bulk"):
            args = parse([command])
            assert cli._engine_config(args) == EngineConfig()
            assert cli._store_config(args) == StoreConfig()
        for command in ("serve", "precompute"):
            args = parse([command])
            assert cli._service_config(args) == ServiceConfig()
            assert cli._shard_config(args) == ShardConfig()
        assert cli._bulk_spec(parse(["bulk"])) == BulkJobSpec()
        assert cli._store_config(parse(["serve-shard"])) == StoreConfig()


class TestPrecomputeCommand:
    def test_warm_and_resume(self, tmp_path, capsys):
        base = [
            "precompute", "--dataset", "S-BR", "--size-cap", "150",
            "--per-label", "2", "--samples", "32",
            "--store-dir", str(tmp_path / "store"),
            "--model-dir", str(tmp_path / "models"),
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "4 submitted" in out
        assert main([*base, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "4 skipped" in out
        assert "0 submitted" in out

    def test_stats_json_written(self, tmp_path):
        import json

        store_dir = tmp_path / "store"
        code = main(
            [
                "precompute", "--dataset", "S-BR", "--size-cap", "150",
                "--per-label", "1", "--samples", "32",
                "--store-dir", str(store_dir),
            ]
        )
        assert code == 0
        payload = json.loads((store_dir / "service_stats.json").read_text())
        assert payload["service"]["computed"] == 2
        assert payload["store"]["puts"] == 2


class TestBulkCommand:
    def test_bulk_run_report_and_warm_dedup(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        base = [
            "bulk", "--dataset", "S-BR", "--size-cap", "150",
            "--per-label", "2", "--samples", "16", "--chunk-size", "2",
            "--store-dir", str(tmp_path / "store"),
            "--model-dir", str(tmp_path / "models"),
            "--report", str(report_path),
        ]
        assert main([*base, "--run-dir", str(tmp_path / "run1")]) == 0
        out = capsys.readouterr().out
        assert "bulk job: 4 pairs in 2 chunks" in out
        assert "4 computed, 0 dedup hits" in out
        assert "global summary over 8 explanations" in out
        first_report = report_path.read_bytes()
        assert (tmp_path / "run1" / "bulk.jsonl").exists()
        assert (tmp_path / "run1" / "stats.json").exists()
        assert (tmp_path / "run1" / "metrics.json").exists()

        # Warm store: everything dedups, same report bytes.
        assert main([*base, "--run-dir", str(tmp_path / "run2")]) == 0
        out = capsys.readouterr().out
        assert "0 computed, 4 dedup hits" in out
        assert report_path.read_bytes() == first_report

    def test_bulk_resume_requires_run_dir(self, capsys):
        assert main(["bulk", "--resume"]) == 2

    def test_bulk_from_csv_ledgers_bad_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "pairs.csv"
        csv_path.write_text(
            "pair_id,label,left_name,right_name\n"
            "0,1,ipa beer,ipa beer\n"
            "1,0,stout,lager\n"
            "2,WAT,pilsner,pilsner\n"
            "3,1,porter ale,porter ale\n"
            "4,0,saison,kolsch\n",
            encoding="utf-8",
        )
        code = main(
            [
                "bulk", "--input", str(csv_path), "--samples", "16",
                "--chunk-size", "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped 1 ill-formed row(s)" in captured.err
        assert "bulk job: 4 pairs" in captured.out
        assert "failure ledger: 1 entries" in captured.out

    def test_bulk_pairs_file(self, tmp_path, capsys):
        listing = tmp_path / "pairs.txt"
        listing.write_text("0\n1\n", encoding="utf-8")
        code = main(
            [
                "bulk", "--dataset", "S-BR", "--size-cap", "150",
                "--samples", "16", "--chunk-size", "2",
                "--pairs-file", str(listing),
            ]
        )
        assert code == 0
        assert "bulk job: 2 pairs in 1 chunks" in capsys.readouterr().out
