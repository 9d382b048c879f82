"""CLI surface: subcommands, artifacts, exit codes, determinism."""

import csv
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kgqa.cli import _parse_grid, cli

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


def retrieve_output(runner, tmp_path, *args):
    result = run(runner, "retrieve", "--toy", "--query", "capital of Veltria",
                 "--out", str(tmp_path / "out"), *args)
    assert result.exit_code == 0
    return result.output


class TestHelp:
    def test_readme_table_lists_every_subcommand(self):
        section = README.read_text(encoding="utf-8").split(
            "### Subcommands and artifacts\n", 1)[1].splitlines()
        start = next(i for i, line in enumerate(section) if line.startswith("|"))
        table = itertools.takewhile(lambda line: line.startswith("|"), section[start:])
        listed = [m.group(1) for m in map(re.compile(r"\| `([a-z-]+)` \|").match, table)
                  if m]
        assert sorted(listed) == sorted(cli.commands)

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

    @pytest.mark.parametrize("spec, expected", [
        ("0:1:0.6", [0.0, 0.6]),
        ("0.5:3.0:0.7", [0.5, 1.2, 1.9, 2.6]),
        ("0.3:0.9:0.2", [0.3, 0.5, 0.7, 0.9]),
        ("0.5:3.0:0.5", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        ("0.0:1.0:0.25", [0.0, 0.25, 0.5, 0.75, 1.0]),
    ], ids=["short-last-step", "short-last-step-k1", "inexact-division",
            "default-k1", "default-b"])
    def test_grid_stops_at_stop(self, spec, expected):
        assert _parse_grid(spec) == expected

    def test_sweep_grid_not_whole_steps(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run(runner, "index-sweep", "--toy", "--b", "0:1:0.6",
                     "--out", str(out))
        assert result.exit_code == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 6 * 2

    @pytest.mark.parametrize("grid, message", [
        (["--b", "0:2:0.5"], "b must be in [0, 1], got 1.5"),
        (["--k1", "-1:1:0.5"], "k1 must be >= 0, got -1.0"),
        (["--k1", "2:1:0.5"], "grids must not be empty"),
        (["--k1", "nan,1"], "k1 must be finite, got nan"),
        (["--k1", "1,inf"], "k1 must be finite, got inf"),
    ], ids=["b-above-one", "negative-k1", "empty-grid", "nan-k1", "inf-k1"])
    def test_bad_grid_exits_before_loading(self, runner, tmp_path, monkeypatch, grid,
                                           message):
        def no_load(*args):
            raise AssertionError("the snapshot was loaded")

        monkeypatch.setattr("kgqa.cli.load_snapshot", no_load)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["index-sweep", "--toy", *grid, "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["retrieve", "--query", "capital"],
        ["index-sweep"],
        ["disambiguate", "--question", "capital"],
    ], ids=["retrieve", "index-sweep", "disambiguate"])
    def test_min_degree_is_entity_only(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(cli, [*command, "--toy", "--kind", "predicate",
                                     "--min-degree", "2", "--out", str(out)])
        assert result.exit_code == 2
        assert "--min-degree applies to entity indexes only" in result.output
        assert not out.exists()

    def test_sweep_with_nothing_to_score_is_data_error(self, runner, tmp_path):
        from kgqa import data
        dataset = tmp_path / "no_predicates.jsonl"
        with open(data.toy_dataset_file(), encoding="utf-8") as src, \
                open(dataset, "w", encoding="utf-8") as dst:
            for line in src:
                row = json.loads(line)
                del row["predicates"]
                dst.write(json.dumps(row) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["index-sweep", "--toy", "--kind", "predicate",
                                     "--dataset", str(dataset), "--out", str(out)])
        assert result.exit_code == 3
        assert "kind=DataError" in result.output
        assert not out.exists()

    def test_retrieve_prints_hits(self, runner, tmp_path):
        result = run(runner, "retrieve", "--toy", "--query", "capital of Veltria",
                     "--k", "3", "--out", str(tmp_path / "out"))
        assert result.exit_code == 0
        assert "Q1" in result.output or "Q2" in result.output

    # Each field resolves on its own: flag > --config > preset > default
    # (1.5, 0.75). The rubq2 entity preset is (1.39, 0.4).
    @pytest.mark.parametrize("partial, config, full", [
        (["--k1", "9.0"], None, ["--k1", "9.0", "--b", "0.75"]),
        (["--b", "0.1"], None, ["--k1", "1.5", "--b", "0.1"]),
        (["--preset", "rubq2", "--k1", "9.0"], None, ["--k1", "9.0", "--b", "0.4"]),
        (["--preset", "rubq2"], {"b": 0.1}, ["--k1", "1.39", "--b", "0.1"]),
    ], ids=["k1-alone", "b-alone", "preset-and-k1", "preset-and-config-b"])
    def test_bm25_fields_resolve_separately(self, runner, tmp_path, partial, config,
                                            full):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            partial = partial + ["--config", str(path)]
        got = retrieve_output(runner, tmp_path, *partial)
        assert got == retrieve_output(runner, tmp_path, *full)
        assert got != retrieve_output(runner, tmp_path)


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

    # Mira Okafor (Q14) has degree 3 in the toy graph.
    @pytest.mark.parametrize("min_degree, selected", [("3", "Q14"),
                                                      ("4", "(empty selection)")])
    def test_disambiguate_min_degree(self, runner, tmp_path, min_degree, selected):
        result = run(runner, "disambiguate", "--toy",
                     "--question", "Where was Mira Okafor born?",
                     "--min-degree", min_degree, "--out", str(tmp_path / "out"))
        assert result.exit_code == 0
        assert result.output.strip() == selected

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

    @pytest.mark.parametrize("fault", ["timeout", "truncated-json", "5xx-burst"])
    def test_reasoner_fault_is_service_error(self, runner, tmp_path, fake_server, fault):
        fake_server.inject_fault(fault)
        result = runner.invoke(cli, [
            "disambiguate", "--toy", "--question", "What is the capital of Veltria?",
            "--backend", "remote", "--llm-base-url", fake_server.url,
            "--llm-model", "m", "--llm-timeout", "0.1", "--llm-max-retries", "0",
            "--out", str(tmp_path / "o")])
        assert result.exit_code == 4
        assert "kind=DisambiguationError" in result.output

    # Before the check, a k1 of nan or inf ran and rejected every question,
    # and an infinite timeout died with an OverflowError traceback (exit 1).
    @pytest.mark.parametrize("args, config, message", [
        (["evaluate", "--toy", "--k1", "nan"], None, "k1 must be finite"),
        (["evaluate", "--toy", "--k1", "inf"], None, "k1 must be finite"),
        (["evaluate", "--toy"], '{"k1": NaN}', "k1 must be finite"),
        (["execute", "--executor", "remote", "--endpoint", "http://127.0.0.1:1/",
          "--query", "ASK { wd:Q1 wdt:P1 wd:Q2 }", "--timeout", "inf"], None,
         "timeout must be finite"),
    ], ids=["nan-k1", "inf-k1", "nan-k1-config", "inf-timeout"])
    def test_non_finite_setting_is_config_error(self, runner, tmp_path, args, config,
                                                message):
        if config is not None:
            (tmp_path / "config.json").write_text(config, encoding="utf-8")
            args = [*args, "--config", str(tmp_path / "config.json")]
        out = tmp_path / "out"
        result = runner.invoke(cli, [*args, "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    def test_truncated_results_are_service_error(self, runner, tmp_path, fake_server):
        fake_server.inject_fault("truncated-json")
        result = runner.invoke(cli, [
            "execute", "--executor", "remote", "--endpoint", fake_server.url,
            "--query", "ASK { wd:Q1 wdt:P1 wd:Q2 }", "--out", str(tmp_path / "o")])
        assert result.exit_code == 4
        assert "kind=RemoteExecutionError" in result.output

    @pytest.mark.parametrize("command", ["index-sweep", "reject-report",
                                         "augment-train"])
    def test_empty_split_is_config_error(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(cli, [command, "--toy", "--split", "nosuch",
                                     "--out", str(out)])
        assert result.exit_code == 2
        assert "kind=ConfigError" in result.output
        assert not out.exists()

    # "test" is the toy questions.jsonl (test split only), "train" the toy
    # questions_train.jsonl (train split only); b is held out.
    @pytest.mark.parametrize("files, empty_side", [
        ({"a": "test", "b": "train"}, "train"),
        ({"b": "test"}, "train"),
        ({"a": "train", "b": "train"}, "test"),
    ], ids=["both-empty", "train-empty", "test-empty"])
    def test_make_splits_empty_side_is_config_error(self, runner, tmp_path, files,
                                                    empty_side):
        from kgqa import data
        paths = {"test": data.toy_dataset_file(), "train": data.toy_train_file()}
        out = tmp_path / "out"
        args = ["make-splits", "--toy", "--held-out", "b", "--out", str(out)]
        for name, kind in files.items():
            args += ["--dataset", f"{name}={paths[kind]}"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert "kind=ConfigError" in result.output
        assert f"no examples on the {empty_side} side" in result.output
        assert not out.exists()

    def test_unknown_preset_is_config_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["retrieve", "--toy", "--query", "q",
                                     "--preset", "nope", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    # Before the check, a list preset crashed with a TypeError traceback,
    # k1 true ran as k1 = 1.0, and a number as a file path made open()
    # read that file descriptor; --toy ignored the file keys altogether.
    @pytest.mark.parametrize("config, message", [
        ({"preset": ["x"]}, "'preset' must be a string"),
        ({"k1": True}, "'k1' must be a number"),
        ({"b": "0.5"}, "'b' must be a number"),
        ({"entity_file": 7}, "'entity_file' must be a string"),
        ({"k_1": 2.0}, "unknown config key 'k_1'"),
    ], ids=["list-preset", "bool-k1", "string-b", "number-path", "unknown-key"])
    def test_mistyped_config_is_config_error(self, runner, tmp_path, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["retrieve", "--toy", "--query", "capital of Veltria",
                                     "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert "kind=ConfigError" in result.output
        assert message in result.output
        assert not out.exists()

    # Before the fix, the remote executor never opened --config: a missing
    # file exited 4 after trying the endpoint, and an unknown key ran.
    @pytest.mark.parametrize("executor", ["local", "remote"])
    @pytest.mark.parametrize("config, code, kind", [
        (None, 3, "OSError"), ({"k_1": 2.0}, 2, "ConfigError"),
    ], ids=["missing-file", "unknown-key"])
    def test_execute_checks_config_on_every_executor(self, runner, tmp_path, executor,
                                                     config, code, kind):
        path = tmp_path / "config.json"
        if config is not None:
            path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(cli, [
            "execute", "--toy", "--executor", executor, "--endpoint", "http://127.0.0.1:1/",
            "--query", "ASK { wd:Q1 wdt:P1 wd:Q2 }", "--config", str(path),
            "--out", str(out)])
        assert result.exit_code == code
        assert f"kind={kind}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_evaluate_workers_below_one_is_config_error(self, runner, tmp_path, workers):
        result = run(runner, "evaluate", "--toy", "--workers", workers,
                     "--out", str(tmp_path / "out"))
        assert result.exit_code == 2
        assert "--workers" in result.output
        assert not (tmp_path / "out").exists()


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

    def test_evaluate_workers_write_the_same_bytes(self, runner, tmp_path):
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / workers
            result = run(runner, "evaluate", "--toy", "--workers", workers,
                         "--out", str(out))
            assert result.exit_code == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("report.csv", "trace.jsonl", "gold_cache.json")])
        assert outputs[0] == outputs[1]

    def test_damaged_snapshot_entry_writes_the_same_bytes(self, runner, tmp_path, empty_cache):
        """A snapshot entry whose ``degrees`` is not 1-d reads as a miss, so
        the next run parses the files and rewrites the entry."""
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(runner, "evaluate", "--toy", "--out", str(first)).exit_code == 0
        (entry,) = empty_cache.glob("snapshot-*.npz")
        with np.load(entry) as loaded:
            arrays = dict(loaded)
        arrays["degrees"] = np.array(3)
        with open(entry, "wb") as fh:
            np.savez(fh, **arrays)
        assert run(runner, "evaluate", "--toy", "--out", str(again)).exit_code == 0
        for name in ("report.csv", "trace.jsonl", "gold_cache.json"):
            assert (first / name).read_bytes() == (again / name).read_bytes(), name
        with np.load(entry) as loaded:
            assert loaded["degrees"].ndim == 1

    def test_augment_byte_identical(self, runner, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(runner, "augment-train", "--toy", "--distractors", "3",
                "--seed", "11", "--out", str(out))
            blobs.append((out / "train_augmented.jsonl").read_bytes())
        assert blobs[0] == blobs[1]


class TestImports:
    """``requests`` is imported only when a remote client is built."""

    CHILD = """
import runpy, sys
sys.argv = ["kgqa", *sys.argv[1:]]
try:
    runpy.run_module("kgqa.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
print("requests" in sys.modules)
"""

    @staticmethod
    def imports_requests(tmp_path, code, *args):
        env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(tmp_path / "cache")}
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()[-1]

    def test_importing_the_cli_leaves_requests_out(self, tmp_path):
        code = "import sys, kgqa.cli; print('requests' in sys.modules)"
        assert self.imports_requests(tmp_path, code) == "False"

    def test_local_evaluate_leaves_requests_out(self, tmp_path):
        out = tmp_path / "out"
        assert self.imports_requests(tmp_path, self.CHILD, "evaluate", "--toy",
                                     "--out", str(out)) == "False"
        assert (out / "report.csv").is_file()

    def test_building_a_remote_client_imports_requests(self, tmp_path):
        code = ("import sys, kgqa.cli\n"
                "from kgqa.sparql import EndpointConfig, RemoteExecutor\n"
                "RemoteExecutor(EndpointConfig('http://127.0.0.1:9'))\n"
                "print('requests' in sys.modules)")
        assert self.imports_requests(tmp_path, code) == "True"
