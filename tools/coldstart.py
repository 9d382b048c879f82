#!/usr/bin/env python3
"""Wall time of ``kgqa evaluate`` in fresh processes, cold and warm.

    python3 tools/coldstart.py --data DIR [--min-degree N] [--runs 5] [--base OTHER/src]

DIR holds ``entities.jsonl``, ``predicates.jsonl``, ``triples.tsv`` and
``questions.jsonl``, the layout perfbench generates under
``.bench_work/<workload>/data``. Each round runs three kinds of process:

  cold  an empty cache directory, as on the first run over new inputs;
  warm  the directory the round's cold process filled;
  base  (with ``--base``) the package imported from another source tree,
        with an empty cache directory of its own.

The base process runs first in even rounds and last in odd ones. Every
process evaluates the whole dataset (``--split all``) with the default
oracle, passthrough generator and local executor. The script prints one
JSON line per process (wall time, including interpreter start, and the
process's cache hits, misses and writes from ``kgqa.cache.counts``), then
the medians and their ratios to the base. It exits 1 if any two processes
wrote different ``report.csv``, ``trace.jsonl`` or ``gold_cache.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
OUTPUTS = ("report.csv", "trace.jsonl", "gold_cache.json")
# Runs the CLI and reports the process's cache counts on stderr at exit.
_CHILD = """
import atexit, json, runpy, sys
try:
    from kgqa.cache import counts
except ImportError:  # a tree without the cache or its counts
    counts = None
if counts is not None:
    atexit.register(lambda: print("COUNTS " + json.dumps(
        {f"{kind}.{what}": n for (kind, what), n in sorted(counts.items())}),
        file=sys.stderr))
sys.argv = ["kgqa", *sys.argv[1:]]
runpy.run_module("kgqa.cli", run_name="__main__")
"""


def run(src, cache_home, data, min_degree, out):
    """One ``kgqa evaluate`` process: ``(wall seconds, cache counts)``."""
    env = {**os.environ, "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(cache_home),
           "PYTHONHASHSEED": "0"}
    args = [sys.executable, "-c", _CHILD, "evaluate",
            "--entity-file", str(data / "entities.jsonl"),
            "--predicate-file", str(data / "predicates.jsonl"),
            "--triple-file", str(data / "triples.tsv"),
            "--dataset", str(data / "questions.jsonl"), "--split", "all",
            "--min-degree", str(min_degree), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(args, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"kgqa evaluate exited {proc.returncode}:\n{proc.stderr}")
    counts = [line[len("COUNTS "):] for line in proc.stderr.splitlines()
              if line.startswith("COUNTS ")]
    return wall, json.loads(counts[-1]) if counts else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--min-degree", type=int, default=1)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--base", type=Path, default=None,
                    help="another checkout's src directory to compare with")
    args = ap.parse_args(argv)

    walls = {"cold": [], "warm": [], "base": []}
    reference, differ = None, []
    with tempfile.TemporaryDirectory(prefix="kgqa-coldstart-") as tmp:
        tmp = Path(tmp)
        for i in range(args.runs):
            steps = [("cold", SRC, "round"), ("warm", SRC, "round")]
            if args.base is not None:
                base = ("base", args.base, "base")
                steps = [base, *steps] if i % 2 == 0 else [*steps, base]
            for kind, src, home in steps:
                out = tmp / f"{kind}-{i}"
                wall, counts = run(src, tmp / f"{home}-{i}", args.data, args.min_degree, out)
                walls[kind].append(wall)
                print(json.dumps({"round": i, "kind": kind, "wall_s": round(wall, 3),
                                  "cache": counts}), flush=True)
                outputs = [(out / name).read_bytes() for name in OUTPUTS]
                if reference is None:
                    reference = outputs
                elif outputs != reference:
                    differ.append(f"{kind}-{i}")
    medians = {kind: statistics.median(w) for kind, w in walls.items() if w}
    summary = {f"{kind}_median_s": round(m, 3) for kind, m in medians.items()}
    if "base" in medians:
        summary.update({f"{kind}_over_base": round(medians[kind] / medians["base"], 3)
                        for kind in ("cold", "warm")})
    print(json.dumps(summary))
    if differ:
        sys.exit(f"outputs differ from the first run's: {', '.join(differ)}")


if __name__ == "__main__":
    main()
