"""Dataset loading, split tooling, and report plumbing."""

import json

import pytest

from kgqa.errors import ConfigError, LoadError
from kgqa.evaluation import (
    QaExample,
    load_dataset,
    make_generalization_splits,
)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def example_row(eid="e1", **overrides):
    row = {"id": eid, "question": "who?", "sparql": "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
           "entities": ["Q1"], "split": "test"}
    row.update(overrides)
    return row


class TestLoadDataset:
    def test_two_wellformed_lines(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl",
                           [example_row("a"), example_row("b", split="train")])
        loaded = load_dataset(path)
        assert len(loaded.examples) == 2
        assert loaded.split_counts == {"test": 1, "train": 1}
        assert loaded.line_errors == ()

    def test_missing_sparql_reported_others_loaded(self, tmp_path):
        bad = example_row("b")
        del bad["sparql"]
        path = write_jsonl(tmp_path / "d.jsonl", [example_row("a"), bad])
        loaded = load_dataset(path)
        assert len(loaded.examples) == 1
        assert loaded.line_errors == ((2, "missing keys: sparql"),)

    def test_line_errors_in_line_order(self, tmp_path):
        """Blank lines are skipped but still counted; each bad line gets one
        message, in line order."""
        lines = [json.dumps(example_row("a")), "", "   ", "{not json",
                 json.dumps(example_row("b")) + " {}", "[1]", json.dumps({"id": "c"}),
                 json.dumps(example_row("d", question="")),
                 json.dumps(example_row("e", sparql="")), json.dumps(example_row("f"))]
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_dataset(path)
        assert [ex.id for ex in loaded.examples] == ["a", "f"]
        assert loaded.line_errors == (
            (4, "invalid JSON: Expecting property name enclosed in double quotes"),
            (5, "invalid JSON: Extra data"),
            (6, "expected a JSON object"),
            (7, "missing keys: question, sparql, entities, split"),
            (8, "question and sparql must be non-empty"),
            (9, "question and sparql must be non-empty"),
        )
        assert loaded.split_counts == {"test": 2}

    def test_no_valid_examples_lists_every_bad_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(["", "{not json", json.dumps({"nope": 1}),
                                   json.dumps(example_row("a", sparql=""))]) + "\n",
                        encoding="utf-8")
        with pytest.raises(LoadError) as err:
            load_dataset(path)
        assert err.value.offenders == [
            (str(path), 2, "invalid JSON: Expecting property name enclosed in double quotes"),
            (str(path), 3, "missing keys: id, question, sparql, entities, split"),
            (str(path), 4, "question and sparql must be non-empty"),
        ]
        assert str(err.value).splitlines()[0] == f"{path}: no valid examples"

    def test_blank_file_has_no_valid_examples(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n  \n\t\n", encoding="utf-8")
        with pytest.raises(LoadError) as err:
            load_dataset(path)
        assert err.value.offenders == []
        assert str(err.value) == f"{path}: no valid examples"

    def test_zero_valid_examples(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [{"nope": 1}])
        with pytest.raises(LoadError):
            load_dataset(path)

    def test_bad_entity_ids_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl",
                           [example_row("a", entities=["X1"]), example_row("b")])
        loaded = load_dataset(path)
        assert len(loaded.examples) == 1
        assert "X1" in loaded.line_errors[0][1]

    def test_optional_fields(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [example_row(
            "a", predicates=["P1"], dataset="demo", answers=["Q2"])])
        example = load_dataset(path).examples[0]
        assert example.gold_predicates == {"P1"}
        assert example.dataset == "demo"
        assert example.gold_answers.terms == {"Q2"}

    @pytest.mark.parametrize("row", [None, 7, "row", [1]],
                             ids=["null", "number", "string", "array"])
    def test_row_that_is_not_an_object(self, tmp_path, row):
        path = write_jsonl(tmp_path / "d.jsonl", [example_row("a"), row])
        loaded = load_dataset(path)
        assert [ex.id for ex in loaded.examples] == ["a"]
        assert loaded.line_errors == ((2, "expected a JSON object"),)

    # Before the check these loaded through str(): a null question became
    # the question "None".
    @pytest.mark.parametrize("field, value", [
        ("id", 7), ("question", None), ("sparql", ["SELECT"]), ("split", 1),
        ("dataset", None), ("dataset", {"name": "demo"}),
    ])
    def test_field_that_is_not_a_string(self, tmp_path, field, value):
        path = write_jsonl(tmp_path / "d.jsonl",
                           [example_row("a"), example_row("b", **{field: value})])
        loaded = load_dataset(path)
        assert [ex.id for ex in loaded.examples] == ["a"]
        assert loaded.line_errors == ((2, f"{field} must be a string"),)

    def test_dataset_and_split_names_are_shared(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl",
                           [example_row("a", dataset="demo"), example_row("b", dataset="demo")])
        first, second = load_dataset(path).examples
        assert first.dataset is second.dataset and first.split is second.split

    @pytest.mark.parametrize("field, value", [
        ("entities", "Q1"), ("entities", None), ("entities", [1]),
        ("predicates", 7), ("predicates", None), ("predicates", ["P1", 2]),
        ("answers", [1, 2]), ("answers", "Q12"), ("answers", {"Q1": 1}),
    ])
    def test_field_that_is_not_an_array_of_strings(self, tmp_path, field, value):
        path = write_jsonl(tmp_path / "d.jsonl",
                           [example_row("a"), example_row("b", **{field: value})])
        loaded = load_dataset(path)
        assert [ex.id for ex in loaded.examples] == ["a"]
        assert loaded.line_errors == ((2, f"{field} must be an array of strings"),)

    def test_toy_dataset_counts(self):
        from kgqa import data
        loaded = load_dataset(data.toy_dataset_file())
        assert loaded.split_counts == {"test": 20}


def make_examples(dataset, n_train, n_test):
    rows = []
    for i in range(n_train):
        rows.append(QaExample(id=f"{dataset}-tr{i}", question="q", gold_query="s",
                              gold_entities={"Q1"}, dataset=dataset, split="train"))
    for i in range(n_test):
        rows.append(QaExample(id=f"{dataset}-te{i}", question="q", gold_query="s",
                              gold_entities={"Q1"}, dataset=dataset, split="test"))
    return rows


class TestGeneralizationSplits:
    def test_holdout(self):
        datasets = {
            "qald10": make_examples("qald10", 2, 1),
            "rubq2": make_examples("rubq2", 3, 1),
            "pat": make_examples("pat", 1, 1),
            "lcquad2": make_examples("lcquad2", 4, 2),
        }
        train, test = make_generalization_splits(datasets, "qald10")
        assert {ex.dataset for ex in train} == {"rubq2", "pat", "lcquad2"}
        assert all(ex.split == "train" for ex in train)
        assert len(train) == 8
        assert [ex.dataset for ex in test] == ["qald10"]

    def test_train_order_stable(self):
        datasets = {
            "b": make_examples("b", 2, 0),
            "a": make_examples("a", 2, 0),
            "c": make_examples("c", 0, 1),
        }
        train, _ = make_generalization_splits(datasets, "c")
        assert [ex.id for ex in train] == ["a-tr0", "a-tr1", "b-tr0", "b-tr1"]

    def test_unknown_heldout(self):
        with pytest.raises(ConfigError):
            make_generalization_splits({"a": []}, "zzz")

    def test_two_datasets_degenerate(self):
        datasets = {"a": make_examples("a", 2, 1), "b": make_examples("b", 1, 1)}
        train, test = make_generalization_splits(datasets, "b")
        assert [ex.dataset for ex in train] == ["a", "a"]
        assert [ex.dataset for ex in test] == ["b"]
