"""The CI workflow installs every dependency that pyproject.toml declares,
and one leg installs the lowest versions it allows.

Parsed with regular expressions, not tomllib, because CI also runs
Python 3.10.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _name(requirement):
    """Normalized distribution name: specifiers and extras dropped."""
    return re.sub(r"[-_.]+", "-", NAME.match(requirement.strip()).group(0)).lower()


def _toml_items(text, key):
    match = re.search(rf"^{key}\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, f"no {key} array in pyproject.toml"
    return re.findall(r'"([^"]+)"', match.group(1))


def _toml_array(text, key):
    return [_name(item) for item in _toml_items(text, key)]


def test_install_step_names_every_declared_dependency():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = _toml_array(pyproject, "dependencies") + _toml_array(pyproject, "test")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = re.findall(r"^\s*run:\s*python -m pip install (.+)$", workflow, re.M)
    assert len(steps) == 1, steps
    installed = {_name(tok) for tok in steps[0].split() if not tok.startswith("-")}
    assert {"numpy", "pytest"} <= set(declared)
    assert sorted(set(declared) - installed) == []


def test_lower_bounds_leg_pins_every_declared_minimum():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minimums = {}
    for item in _toml_items(pyproject, "dependencies"):
        match = re.fullmatch(r"([A-Za-z0-9._-]+)>=([0-9]+\.[0-9]+)", item)
        assert match, f"runtime dependency without a X.Y lower bound: {item}"
        minimums[_name(match.group(1))] = match.group(2)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert "--constraint=${{matrix.constraints}}" in workflow
    named = re.findall(r"constraints:\s*\[?\"?([^\"\]\s]+)", workflow)
    assert named and all((ROOT / path).is_file() for path in named), named
    leg = re.search(r'-\s*python-version:\s*"3\.10"\s*\n\s*constraints:\s*(\S+)', workflow)
    assert leg, "no Python 3.10 leg with its own constraints file"
    pins = {}
    for line in (ROOT / leg.group(1)).read_text(encoding="utf-8").splitlines():
        line = line.split("#")[0].strip()
        if line:
            name, _, version = line.partition("==")
            pins[_name(name)] = version
    assert pins == {name: f"{minimum}.*" for name, minimum in minimums.items()}


def _step(name):
    """The text of the one workflow step called ``name``."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = re.split(r"^\s*- (?:name|uses):", workflow, flags=re.M)
    (step,) = [s for s in steps if s.strip().startswith(name + "\n")]
    return step


def test_cold_and_warm_cache_runs_are_compared():
    """Two `evaluate --toy` runs in fresh processes share a job-temp cache,
    the first filling it and the second reading it, and their outputs must
    be byte-identical. Between them the step checks that the cold run wrote
    a snapshot entry and exactly one index entry. Two `reject-report --toy`
    runs, which read every case's relations, do the same over a cache
    directory of their own, so that the first of them is cold too."""
    step = _step("Cold and warm cache runs agree")
    assert re.search(r"XDG_CACHE_HOME:\s*\$\{\{\s*runner\.temp\s*\}\}/", step)
    runs = re.findall(r'PYTHONPATH=src python -m kgqa\.cli evaluate --toy --out "([^"]+)"', step)
    assert len(runs) == 2 and len(set(runs)) == 2, runs
    assert re.search(r"^\s*ls \S*kgqa/snapshot-\*\.npz$", step, re.M)
    # The cold run caches one index, the entity index; the predicate index is not cached.
    assert re.search(r'^\s*test "\$\(ls \S*kgqa/bm25-\*\.npz \| wc -l\)" -eq 1$', step, re.M)
    rejects = re.findall(r'XDG_CACHE_HOME="([^"]+)" PYTHONPATH=src python -m kgqa\.cli '
                         r'reject-report --toy --out "([^"]+)"', step)
    assert len(rejects) == 2 and rejects[0][0] == rejects[1][0], rejects
    assert rejects[0][1] != rejects[1][1]
    assert re.search(r"^\s*ls \S*kgqa-reject-cache/kgqa/snapshot-\*\.npz$", step, re.M)
    compared = re.findall(r"for f in ([^;]+); do cmp ", step)
    assert [files.split() for files in compared] == [
        ["report.csv", "trace.jsonl", "gold_cache.json"],
        ["rejection_report.csv", "rejection_trace.jsonl"]]


def test_damaged_cache_entry_falls_back():
    """A toy run fills a job-temp cache of the step's own, a one-liner
    replaces the snapshot entry's ``degrees`` with a 0-d array, and a second
    run, which must read that entry as a miss, must write byte-identical
    outputs. The cold and warm step keeps its own cache directory."""
    step = _step("A damaged cache entry falls back")
    home = r"XDG_CACHE_HOME:\s*\$\{\{\s*runner\.temp\s*\}\}/(\S+)"
    own, cold = re.search(home, step), re.search(home, _step("Cold and warm cache runs agree"))
    assert own and cold and own.group(1) != cold.group(1)
    runs = list(re.finditer(r'PYTHONPATH=src python -m kgqa\.cli evaluate --toy --out "([^"]+)"',
                            step))
    assert len(runs) == 2 and runs[0].group(1) != runs[1].group(1)
    damage = re.search(r"""^\s*python3 -c '(.+)' "\$XDG_CACHE_HOME"$""", step, re.M)
    assert damage and runs[0].end() < damage.start() < runs[1].start()
    assert "snapshot-*.npz" in damage.group(1)
    assert 'a["degrees"] = np.array(3)' in damage.group(1)
    compared = re.search(r'for f in ([^;]+); do cmp "([^"]+)/\$f" "([^"]+)/\$f"; done', step)
    assert compared and compared.group(1).split() == ["report.csv", "trace.jsonl",
                                                      "gold_cache.json"]
    assert [compared.group(2), compared.group(3)] == [run.group(1) for run in runs]


def _assert_benchmark_step(name, args):
    """The step runs perfbench with ``args`` in its own cache directory and
    fails unless the result line says correct with no failed question. The
    benchmark exits 0 whatever it finds, so the step reads its last line;
    bash makes a failing benchmark fail the pipe."""
    step = _step(name)
    assert re.search(r"^\s*shell:\s*bash\s*$", step, re.M)
    assert re.search(r"XDG_CACHE_HOME:\s*\$\{\{\s*runner\.temp\s*\}\}/", step)
    run = re.search(r"python3 perfbench/run\.py (.+?) \| tail -n 1 > \"([^\"]+)\"", step)
    assert run and run.group(1).split() == args
    check = re.search(r"python3 -c '(.+)' \"([^\"]+)\"", step)
    assert check and check.group(2) == run.group(2)
    assert 'r["correct"] is True and r["failed"] == 0' in check.group(1)


def test_remote_workload_must_report_correct_and_no_failures():
    """qa-remote runs both remote clients against the fake endpoints."""
    _assert_benchmark_step("Both remote clients run end to end",
                           ["--workload", "qa-remote", "--seed", "1",
                            "--seconds", "3", "--trace", "0"])


def test_retrieval_workload_must_report_correct_and_no_failures():
    """qa-retrieval runs BM25 entity search over its 100k-entity catalog,
    the one workload no other step runs."""
    _assert_benchmark_step("BM25 entity search runs end to end on qa-retrieval",
                           ["--workload", "qa-retrieval", "--seed", "1",
                            "--seconds", "3", "--trace", "0"])


def test_traced_join_workload_must_report_correct_and_no_failures():
    """perfbench's traced runner executes the gold and the generated query
    separately, and each traced pass must reproduce the untraced pass of
    ``run_example``, which runs each distinct query once, question by
    question."""
    _assert_benchmark_step("Untraced and traced runners agree on qa-join",
                           ["--workload", "qa-join", "--seed", "1",
                            "--seconds", "3", "--trace", "1"])


def test_cold_and_warm_processes_are_compared_on_a_pruned_generated_graph():
    """tools/coldstart.py runs a cold and a warm ``kgqa evaluate`` process
    over a generated qa-join graph pruned at min_degree 10, and exits 1 when
    their outputs differ. The cold and warm processes of a round share one
    fresh cache directory, so the warm one reads the entries the cold one
    wrote."""
    step = _step("Cold and warm processes agree on a pruned qa-join graph")
    assert re.search(r"^\s*shell:\s*bash\s*$", step, re.M)
    commands = [line.strip() for line in step.splitlines() if line.strip().startswith("python3")]
    assert commands == [
        'python3 perfbench/gen.py --workload qa-join --seed 1 --out "$RUNNER_TEMP/qa-join-data"',
        'python3 tools/coldstart.py --data "$RUNNER_TEMP/qa-join-data" --min-degree 10 --runs 1',
    ]
