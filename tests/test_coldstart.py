"""tools/coldstart.py: cold, warm and base ``kgqa evaluate`` processes."""

import importlib.util
import json
import shutil
from pathlib import Path

from kgqa import data as toy_data

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("coldstart", ROOT / "tools" / "coldstart.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cold_then_warm_processes_on_the_toy_graph(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name, source in (("entities.jsonl", toy_data.toy_entity_file()),
                         ("predicates.jsonl", toy_data.toy_predicate_file()),
                         ("triples.tsv", toy_data.toy_triple_file()),
                         ("questions.jsonl", toy_data.toy_dataset_file())):
        shutil.copyfile(source, data / name)
    _tool().main(["--data", str(data), "--runs", "1", "--base", str(ROOT / "src")])
    *lines, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert [line["kind"] for line in lines] == ["base", "cold", "warm"]
    cold = {"snapshot.miss": 1, "snapshot.write": 1, "bm25.miss": 2, "bm25.write": 2}
    assert lines[0]["cache"] == lines[1]["cache"] == cold
    assert lines[2]["cache"] == {"snapshot.hit": 1, "bm25.hit": 2}
    assert set(summary) == {"cold_median_s", "warm_median_s", "base_median_s",
                            "cold_over_base", "warm_over_base"}
