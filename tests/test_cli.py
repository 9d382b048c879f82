"""CLI surface: subcommands, artifacts, exit codes, determinism."""

import csv
import json

import pytest
from click.testing import CliRunner

from kgqa.cli import cli


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


class TestHelp:
    def test_group_lists_every_subcommand(self, runner):
        result = run(runner, "--help")
        for name in ("index-build", "index-sweep", "retrieve", "disambiguate",
                     "generate", "filter-check", "execute", "evaluate",
                     "reject-report", "make-splits", "augment-train"):
            assert name in result.output

    def test_unknown_flag_is_hard_error(self, runner):
        result = runner.invoke(cli, ["filter-check", "--nonsense", "x"])
        assert result.exit_code == 2

    def test_unknown_subcommand(self, runner):
        result = runner.invoke(cli, ["frobnicate"])
        assert result.exit_code == 2


class TestFilterCheck:
    def test_reject_line(self, runner):
        # Q1 never appears in a triple with P1: a disconnected pair.
        result = run(runner, "filter-check", "--toy",
                     "--entities", "Q1", "--predicates", "P1")
        assert result.exit_code == 0
        assert result.output.strip() == "REJECT pre-generation-filter"

    def test_pass_line(self, runner):
        result = run(runner, "filter-check", "--toy",
                     "--entities", "Q1", "--predicates", "P2")
        assert result.output.strip() == "PASS"

    def test_strict_mode(self, runner):
        result = run(runner, "filter-check", "--toy", "--mode", "strict",
                     "--entities", "Q1,Q9", "--predicates", "P2")
        assert result.output.strip() == "REJECT pre-generation-filter"


class TestIndexCommands:
    def test_sweep_grid_rows(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run(runner, "index-sweep", "--toy", "--kind", "predicate",
                     "--k1", "0.5:3.0:0.5", "--b", "0.0:1.0:0.25",
                     "--out", str(out))
        assert result.exit_code == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k1", "b", "recall_at_k"]
        assert len(rows) - 1 == 6 * 5

    def test_build_and_artifact(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run(runner, "index-build", "--toy", "--preset", "qald10",
                     "--out", str(out))
        assert result.exit_code == 0
        payload = json.loads((out / "index.json").read_text())
        assert payload["params"] == {"k1": 2.95, "b": 0.2}

    def test_retrieve_prints_hits(self, runner, tmp_path):
        result = run(runner, "retrieve", "--toy", "--query", "capital of Veltria",
                     "--k", "3", "--out", str(tmp_path / "out"))
        assert result.exit_code == 0
        assert "Q1" in result.output or "Q2" in result.output


class TestPipelineCommands:
    def test_execute_local(self, runner, tmp_path):
        result = run(runner, "execute", "--toy",
                     "--query", "SELECT ?x WHERE { wd:Q1 wdt:P2 ?x }",
                     "--out", str(tmp_path / "out"))
        assert result.exit_code == 0
        assert result.output.strip() == "Q2"

    def test_disambiguate_oracle_label(self, runner, tmp_path):
        result = run(runner, "disambiguate", "--toy",
                     "--question", "Where was Mira Okafor born?",
                     "--backend", "oracle-label", "--out", str(tmp_path / "out"))
        assert result.exit_code == 0
        assert "Q14" in result.output

    def test_generate_template(self, runner, tmp_path):
        result = run(runner, "generate", "--toy", "--question", "q",
                     "--entity-ids", "Q1", "--predicate-ids", "P2",
                     "--out", str(tmp_path / "out"))
        assert result.output.strip() == "SELECT ?x WHERE { wd:Q1 wdt:P2 ?x }"

    def test_evaluate_toy_oracle(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run(runner, "evaluate", "--toy", "--preset", "rubq2",
                     "--executor", "local", "--disambiguator", "oracle-gold",
                     "--generator", "gold-passthrough", "--out", str(out))
        assert result.exit_code == 0
        assert "f1=1.0000" in result.output
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["f1"] == "1.000000"
        assert rows[0]["acc_at_1"] == "1.000000"
        assert (out / "trace.jsonl").exists()
        assert (out / "gold_cache.json").exists()

    def test_evaluate_split_all(self, runner, tmp_path):
        from kgqa import data
        out = tmp_path / "out"
        result = run(runner, "evaluate", "--toy", "--split", "all",
                     "--dataset", data.toy_train_file(), "--out", str(out))
        assert result.exit_code == 0
        assert "n=4" in result.output

    def test_reject_report_columns(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run(runner, "reject-report", "--toy", "--corrupt-fraction", "0.5",
                     "--seed", "1", "--out", str(out))
        assert result.exit_code == 0
        with open(out / "rejection_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) >= {"dataset", "llm_rejection", "execution",
                                "filtering_and_execution"}

    def test_augment_train(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run(runner, "augment-train", "--toy", "--distractors", "2",
                     "--seed", "7", "--out", str(out))
        assert result.exit_code == 0
        lines = (out / "train_augmented.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4
        assert all({"prompt", "target", "question_id"} <= set(json.loads(l))
                   for l in lines)

    def test_make_splits(self, runner, tmp_path):
        from kgqa import data
        out = tmp_path / "out"
        result = run(runner, "make-splits", "--toy",
                     "--dataset", f"toy-train={data.toy_train_file()}",
                     "--dataset", f"toy-test={data.toy_dataset_file()}",
                     "--held-out", "toy-test", "--out", str(out))
        assert result.exit_code == 0
        train_lines = (out / "train.jsonl").read_text().strip().splitlines()
        test_lines = (out / "test.jsonl").read_text().strip().splitlines()
        assert len(train_lines) == 4
        assert len(test_lines) == 20


class TestExitCodes:
    def test_missing_dataset_is_data_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["evaluate", "--toy", "--dataset",
                                     str(tmp_path / "absent.jsonl")])
        assert result.exit_code == 3
        assert "kgqa-error code=3" in result.output

    def test_missing_snapshot_is_config_error(self, runner):
        result = runner.invoke(cli, ["filter-check", "--entities", "Q1",
                                     "--predicates", "P1"])
        assert result.exit_code == 2
        assert "kgqa-error code=2" in result.output

    def test_bad_query_is_data_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["execute", "--toy", "--query", "garbage",
                                     "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_remote_unreachable_is_service_error(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "execute", "--executor", "remote", "--endpoint", "http://127.0.0.1:1/",
            "--query", "ASK { wd:Q1 wdt:P1 wd:Q2 }", "--out", str(tmp_path / "o")])
        assert result.exit_code == 4

    @pytest.mark.parametrize("command", ["index-sweep", "reject-report",
                                         "augment-train"])
    def test_empty_split_is_config_error(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(cli, [command, "--toy", "--split", "nosuch",
                                     "--out", str(out)])
        assert result.exit_code == 2
        assert "kind=ConfigError" in result.output
        assert not out.exists()

    def test_unknown_preset_is_config_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["index-build", "--toy", "--preset", "nope",
                                     "--out", str(tmp_path / "out")])
        assert result.exit_code == 2


class TestDeterminism:
    def test_evaluate_outputs_byte_identical(self, runner, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run(runner, "evaluate", "--toy", "--preset", "rubq2",
                         "--seed", "7", "--out", str(out))
            assert result.exit_code == 0
            outputs.append(((out / "report.csv").read_bytes(),
                            (out / "trace.jsonl").read_bytes(),
                            (out / "gold_cache.json").read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][2] == outputs[1][2]

    def test_augment_byte_identical(self, runner, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(runner, "augment-train", "--toy", "--distractors", "3",
                "--seed", "11", "--out", str(out))
            blobs.append((out / "train_augmented.jsonl").read_bytes())
        assert blobs[0] == blobs[1]
