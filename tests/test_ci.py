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


def test_cold_and_warm_cache_runs_are_compared():
    """Two `evaluate --toy` runs in fresh processes share a job-temp cache,
    the first filling it and the second reading it, and their outputs must
    be byte-identical."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = re.split(r"^\s*- (?:name|uses):", workflow, flags=re.M)
    (step,) = [s for s in steps if "XDG_CACHE_HOME" in s]
    assert re.search(r"XDG_CACHE_HOME:\s*\$\{\{\s*runner\.temp\s*\}\}/", step)
    runs = re.findall(r'PYTHONPATH=src python -m kgqa\.cli evaluate --toy --out "([^"]+)"', step)
    assert len(runs) == 2 and len(set(runs)) == 2, runs
    assert re.search(r"ls .*kgqa/snapshot-\*\.npz .*kgqa/bm25-\*\.npz", step)
    compared = re.search(r"for f in ([^;]+); do cmp ", step)
    assert compared and compared.group(1).split() == ["report.csv", "trace.jsonl",
                                                      "gold_cache.json"]
