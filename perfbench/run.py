#!/usr/bin/env python3
"""kgqa benchmark: seeded synthetic graphs, closed-loop QA workloads.

    python3 perfbench/run.py --workload qa-join --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Generated inputs and outputs go to ``.bench_work/<workload>/``.

Workloads (each closed loop: a client sends its next question only after
the previous one completed):

  qa-retrieval  1 client. 100k-entity catalog with Zipf-skewed words,
                one-hop SELECT/ASK questions, oracle-gold selection,
                gold-passthrough generation, local executor. BM25 search
                dominates.
  qa-join       1 client. Hub-skewed graph pruned at min_degree=10;
                two-hop SELECT DISTINCT, COUNT on hub objects and one-hop
                questions on surviving entities. Local execution dominates.
  qa-remote     2 clients, like ``kgqa evaluate --workers 2``. Remote
                reasoner, remote generator and remote executor against
                fake endpoints in a child process, with seeded one-off
                503/429 replies.

A run generates the inputs from ``--seed`` in a child process, then sets
up (snapshot load, dataset load, degree pruning, both index builds) at
least three times, reports the median and keeps the last. A short
warm-up follows, on its own freshly loaded examples.

``--trace 0`` times ``kgqa.pipeline.run_example`` per question for
``--seconds``, in passes over the question set, each pass on freshly
loaded examples (the pipeline caches gold answers on the example
objects). It prints the end-to-end metrics, taken over the whole loop
(see ``loop_metrics``). ``--trace 1`` alternates untraced passes with traced
passes, which call each layer's public functions themselves and record
spans around them, and prints the per-layer metrics. Both check every
answer against the generator's expected answers; each traced pass must
also reproduce the untraced pass before it question by question.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A question
fails when it raises, when its gold answers differ from the expected
ones, or when an accepted answer set differs from them; ``failed`` over
``attempted`` is the failed share.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = {
    "qa-retrieval": {"clients": 1, "remote": False},
    "qa-join": {"clients": 1, "remote": False},
    "qa-remote": {"clients": 2, "remote": True},
}
# Set-up runs at least SETUP_MIN times and, while their total stays under
# SETUP_BUDGET_S, up to SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0
WARMUP_QUESTIONS = 8
TRACE_ROUNDS = 3  # untraced/traced pass pairs in a --trace 1 run
K = 10
FAKE_DELAY_S = 0.004


# Printed, but left out of the JSON result: each is zero by construction
# on the workloads that do not use its layer (no local parsing on
# qa-remote, no HTTP calls on the local workloads).
PRINTED_ONLY = {"sparql.parse_busy_s", "llmclient.call_ms_p50", "sparql.remote.call_ms_p50"}


def _import_kgqa():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "kgqa" / "__init__.py").is_file():
        sys.exit(f"error: no kgqa package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kgqa

    if Path(kgqa.__file__).resolve().parent != (SRC / "kgqa").resolve():
        sys.exit(f"error: imported kgqa from {kgqa.__file__}, not from {SRC}")


def percentile_tail(values):
    """(value, percentile, samples): the highest percentile with at least
    ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def generate_inputs(workload, seed, data_dir):
    subprocess.run([sys.executable, str(BENCH_DIR / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(data_dir)], check=True)
    return json.loads((data_dir / "shape.json").read_text())


class Setup:
    """Snapshot, dataset and both indexes, timed stage by stage."""

    def __init__(self, data_dir, min_degree):
        from kgqa.evaluation import load_dataset
        from kgqa.kgstore import load_snapshot, prune_by_degree
        from kgqa.retrieval import Bm25Index, Bm25Params

        params = Bm25Params(1.5, 0.75)
        t0 = time.perf_counter()
        self.snapshot = load_snapshot(data_dir / "entities.jsonl",
                                      data_dir / "predicates.jsonl",
                                      data_dir / "triples.tsv")
        t1 = time.perf_counter()
        self.dataset = load_dataset(data_dir / "questions.jsonl")
        t2 = time.perf_counter()
        pruned = prune_by_degree(self.snapshot, min_degree)
        t3 = time.perf_counter()
        self.entity_index = Bm25Index.build(self.snapshot.entities.values(), params,
                                            pruned_ids=pruned)
        self.predicate_index = Bm25Index.build(self.snapshot.predicates.values(), params)
        t4 = time.perf_counter()
        self.indexed_entities = len(pruned)
        self.times = {"kgstore.load_s": t1 - t0, "evaluation.dataset_load_s": t2 - t1,
                      "kgstore.prune_s": t3 - t2, "retrieval.build_s": t4 - t3,
                      "setup_s": t4 - t0}


class FakeEndpoints:
    """The fake chat and SPARQL server, in a child process."""

    def __init__(self, tables):
        # The child serves until its stdin closes, which also happens when
        # this process dies without reaching close().
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "fakes.py"), "--tables", str(tables),
             "--delay", str(FAKE_DELAY_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"fake endpoints did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def remote_configs(base):
    from kgqa.llmclient import ReasonerClientConfig
    from kgqa.sparql import EndpointConfig

    llm = ReasonerClientConfig(base_url=f"{base}/v1/chat/completions",
                               model_name="fake-reasoner",
                               api_key_env="KGQA_BENCH_API_KEY", timeout=10.0,
                               max_retries=2, temperature=0.0, max_in_flight=4,
                               backoff_base=0.01)
    endpoint = EndpointConfig(base_url=f"{base}/sparql", timeout=10.0, max_retries=2,
                              politeness_delay=0.002,
                              user_agent="kgqa-bench/0.1 (synthetic endpoint)",
                              max_in_flight=2, backoff_base=0.01)
    return llm, endpoint


def pipeline_config(setup, remote, session_factory):
    """Wire the workload's backends, as ``kgqa evaluate`` does."""
    from kgqa.disambiguation import GoldOracle, RemoteReasoner
    from kgqa.generation import GoldPassthrough, RemoteLlmGenerator
    from kgqa.guard import GuardPolicy
    from kgqa.llmclient import ChatCompletionsClient
    from kgqa.pipeline import PipelineConfig
    from kgqa.sparql import LocalExecutor, RemoteExecutor

    if remote is None:
        disambiguator = GoldOracle()
        generator = GoldPassthrough({ex.id: ex.gold_query for ex in setup.dataset.examples})
        executor = LocalExecutor(setup.snapshot)
    else:
        llm, endpoint = remote
        disambiguator = RemoteReasoner(ChatCompletionsClient(llm, session_factory("llmclient")))
        generator = RemoteLlmGenerator(ChatCompletionsClient(llm, session_factory("llmclient")))
        executor = RemoteExecutor(endpoint, session_factory("sparql.remote"))
    return PipelineConfig(snapshot=setup.snapshot, entity_index=setup.entity_index,
                          predicate_index=setup.predicate_index,
                          disambiguator=disambiguator, generator=generator,
                          executor=executor, policy=GuardPolicy(filter="alg1", execution=True),
                          k=K, workers=1)


def closed_loop(load_pass, run_one, clients, seconds=None, passes=None, limit=None):
    """Closed loop over passes of freshly loaded examples.

    Each client takes the next question as soon as its previous one is
    done. With ``seconds``, clients stop taking questions once that much
    time has passed and the first pass has been handed out in full; with
    ``passes``, after that many passes. ``limit`` caps a pass's length.
    Returns ([(pass, index, start, end, outcome or error text)], wall_s).
    """
    lock = threading.Lock()
    state = {"pass": -1, "examples": (), "next": 0}
    records = [[] for _ in range(clients)]
    start = time.perf_counter()

    def take():
        with lock:
            if state["next"] == len(state["examples"]):
                done = state["pass"] + 1
                if passes is not None and done >= passes:
                    return None
                if seconds is not None and done >= 1 and \
                        time.perf_counter() - start >= seconds:
                    return None
                state["examples"] = load_pass()[:limit]
                state["pass"], state["next"] = done, 0
            elif seconds is not None and state["pass"] >= 1 and \
                    time.perf_counter() - start >= seconds:
                return None
            item = (state["pass"], state["next"], state["examples"][state["next"]])
            state["next"] += 1
            return item

    def client(mine):
        while (item := take()) is not None:
            pass_no, index, example = item
            t0 = time.perf_counter()
            try:
                result = run_one(example)
            except Exception:  # a failed question is counted, not fatal
                result = traceback.format_exc()
            mine.append((pass_no, index, t0, time.perf_counter(), result))

    threads = [threading.Thread(target=client, args=(records[i],)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return sorted((r for mine in records for r in mine), key=lambda r: r[:2]), wall


def loop_metrics(records, wall):
    """Throughput and latency of a timed loop.

    Throughput is the questions completed per second of the loop. The
    latency samples are every question of the complete passes, so each
    question counts equally; the tail is their highest percentile with at
    least ten samples beyond it. On a shared machine whose speed drifts,
    these whole-run figures repeat more closely from run to run than
    best-of-passes figures do.
    """
    passes = {}
    for pass_no, _index, start, end, _outcome in records:
        passes.setdefault(pass_no, []).append(1000 * (end - start))
    complete = [latencies for latencies in passes.values()
                if len(latencies) == len(passes[0])]
    latencies = [v for pass_latencies in complete for v in pass_latencies]
    tail, tail_pct, samples = percentile_tail(latencies)
    return {
        "questions_per_s": len(records) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "tail_percentile": tail_pct,
        "latency_samples": samples,
        "complete_passes": len(complete),
        "questions": len(records),
    }


def outcome_key(outcome):
    """What two runs of one question must agree on."""
    return (outcome.verdict.stage if outcome.verdict else None, outcome.answers,
            outcome.gold_answers, outcome.entities_selected,
            outcome.predicates_selected, outcome.error)


def check(records, expected):
    """Failed-question count; every pass must also repeat the first pass."""
    failed = 0
    first = {}
    for _pass, index, _start, _end, outcome in records:
        if isinstance(outcome, str):
            failed += 1
            continue
        want = tuple(expected[outcome.question_id])
        bad = (outcome.error is not None or outcome.gold_answers != want
               or (outcome.verdict.accepted and outcome.answers != want))
        key = outcome_key(outcome)
        if first.setdefault(index, key) != key:
            bad = True
        failed += bad
    return failed


def first_pass(records):
    outcomes = [r[4] for r in records if r[0] == 0]
    return [o for o in outcomes if not isinstance(o, str)]


def write_outputs(dataset, outcomes, out_dir):
    """report.csv and trace.jsonl through kgqa.evaluation's writers; the
    row macro-averages like ``evaluate_end_to_end`` over one dataset."""
    from kgqa.evaluation import (STAGE_COLUMNS, DatasetReportRow, EvalReport,
                                 write_report_csv, write_trace_jsonl)

    n = max(1, len(outcomes))
    rejected = [o for o in outcomes if not o.verdict.accepted]
    tallies = {stage: sum(o.verdict.stage == stage for o in rejected)
               for stage in STAGE_COLUMNS}
    row = DatasetReportRow(dataset=dataset, n=len(outcomes),
                           f1=sum(o.metrics.f1 for o in outcomes) / n,
                           acc_at_1=sum(o.metrics.acc_at_1 for o in outcomes) / n,
                           rejected_pct=100.0 * len(rejected) / n, stage_tallies=tallies)
    t0 = time.perf_counter()
    write_report_csv(EvalReport(rows=(row,), outcomes=tuple(outcomes)),
                     out_dir / "report.csv")
    write_trace_jsonl(outcomes, out_dir / "trace.jsonl")
    return row, time.perf_counter() - t0


def layer_metrics(tracer, setup_times, write_s, untraced_wall, traced_wall, questions):
    from tracing import self_times

    spans, counts = tracer.spans()
    self_time = self_times(spans)
    busy, durations = {}, {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + self_time[s.sid]
        durations.setdefault(s.name, []).append(s.end - s.start)

    def calls(name):
        return [s for s in spans if s.name == name]

    def ms_p50(name):
        return 1000 * statistics.median(durations[name]) if name in durations else 0.0

    def retries(name, statuses):
        return sum(1 for s in calls(name) if statuses(s.attrs["status"]))

    disamb = calls("disambiguation")
    execute_ms = [1000 * d for d in durations.get("sparql.execute", [])]
    layers = {
        "kgstore.load_s": (setup_times["kgstore.load_s"], "s"),
        "kgstore.prune_s": (setup_times["kgstore.prune_s"], "s"),
        "kgstore.match_calls": (counts.get("kgstore.match_calls", 0), "count"),
        "kgstore.match_rows_per_answer": (
            counts.get("kgstore.match_rows", 0) / max(1, counts.get("sparql.answer_terms", 0)),
            "rows/answer"),
        "retrieval.build_s": (setup_times["retrieval.build_s"], "s"),
        "retrieval.search_calls": (len(durations["retrieval.search"]), "count"),
        # Entity searches only: predicate searches over 40 documents would
        # make the median jump between the two catalogs.
        "retrieval.search_ms_p50": (1000 * statistics.median(
            s.end - s.start for s in calls("retrieval.search")
            if s.attrs["kind"] == "entity"), "ms"),
        "retrieval.search_busy_s": (busy["retrieval.search"], "s"),
        "retrieval.entity_recall_at_k": (
            counts["retrieval.entity_recall_sum"] / questions, "ratio"),
        "disambiguation.busy_s": (busy["disambiguation"], "s"),
        "disambiguation.empty_share": (
            sum(1 for s in disamb if not s.attrs["selected"]) / len(disamb), "ratio"),
        "disambiguation.off_list": (sum(s.attrs["off_list"] for s in disamb), "count"),
        "guard.filter_busy_s": (busy["guard.filter"], "s"),
        "guard.filter_rejections": (
            sum(1 for s in calls("guard.filter") if s.attrs["rejected"]), "count"),
        "generation.busy_s": (busy.get("generation", 0.0), "s"),
        "generation.failures": (
            sum(1 for s in calls("generation") if s.attrs.get("failed")), "count"),
        "sparql.parse_busy_s": (busy.get("sparql.parse", 0.0), "s"),
        "sparql.execute_busy_s": (busy["sparql.execute"], "s"),
        "sparql.execute_ms_p50": (statistics.median(execute_ms), "ms"),
        "sparql.execute_ms_tail": (percentile_tail(execute_ms)[0], "ms"),
        "llmclient.calls": (len(calls("llmclient")), "count"),
        "llmclient.retries": (
            retries("llmclient", lambda status: status == 429 or status >= 500), "count"),
        "llmclient.call_ms_p50": (ms_p50("llmclient"), "ms"),
        "sparql.remote.calls": (len(calls("sparql.remote")), "count"),
        "sparql.remote.retries": (
            retries("sparql.remote", lambda status: status in (429, 503)), "count"),
        "sparql.remote.call_ms_p50": (ms_p50("sparql.remote"), "ms"),
        "metrics.score_busy_s": (busy["metrics.score"], "s"),
        "evaluation.dataset_load_s": (setup_times["evaluation.dataset_load_s"], "s"),
        "evaluation.write_s": (write_s, "s"),
        "pipeline.overhead_s": (busy["question"], "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return layers, spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_kgqa()

    from kgqa.evaluation import load_dataset
    from kgqa.pipeline import run_example
    import numpy
    from tracing import CountingSession, CountingSnapshot, Tracer, plain_session, \
        traced_example

    spec = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    data_dir = work / "data"
    shape = generate_inputs(args.workload, args.seed, data_dir)
    expected = {k: tuple(v) for k, v in
                json.loads((data_dir / "expected.json").read_text()).items()}

    fakes = FakeEndpoints(data_dir / "remote.json") if spec["remote"] else None
    sessions = []
    try:
        setup, setup_runs = None, []
        while len(setup_runs) < SETUP_MIN or (
                len(setup_runs) < SETUP_MAX
                and sum(run["setup_s"] for run in setup_runs) < SETUP_BUDGET_S):
            setup = None  # free the previous copy before building the next
            setup = Setup(data_dir, shape["min_degree"])
            setup_runs.append(setup.times)
        setup_times = {name: statistics.median(run[name] for run in setup_runs)
                       for name in setup_runs[0]}
        # Pruning must keep exactly the entities the generator counted.
        pruned_ok = setup.indexed_entities == shape["surviving_entities"]
        remote = remote_configs(fakes.base) if fakes else None

        def session(make):
            sessions.append(make())
            return sessions[-1]

        cfg = pipeline_config(setup, remote, lambda _name: session(plain_session))

        def fresh():
            return load_dataset(data_dir / "questions.jsonl").examples

        closed_loop(fresh, lambda ex: run_example(ex, cfg), spec["clients"],
                    passes=1, limit=WARMUP_QUESTIONS)

        info = {
            "workload": args.workload, "seed": args.seed, "clients": spec["clients"],
            "trace": args.trace, "seconds": args.seconds,
            "machine": {"nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__, "platform": platform.platform()},
            "graph": {"entities": len(setup.snapshot.entities),
                      "predicates": len(setup.snapshot.predicates),
                      "triples": len(setup.snapshot.triples),
                      "indexed_entities": setup.indexed_entities,
                      "min_degree": shape["min_degree"]},
            "dataset": {"questions": len(setup.dataset.examples),
                        "miss_questions": shape["miss_questions"]},
            "pipeline": {"k": K, "bm25": {"k1": 1.5, "b": 0.75}, "filter": "alg1",
                         "execution_check": True,
                         "disambiguator": type(cfg.disambiguator).__name__,
                         "generator": type(cfg.generator).__name__,
                         "executor": type(cfg.executor).__name__},
            "setup_repeats": len(setup_runs),
        }
        if remote:
            info["remote"] = {"llm": dataclasses.asdict(remote[0]),
                              "endpoint": dataclasses.asdict(remote[1]),
                              "fake_delay_s": FAKE_DELAY_S}

        if args.trace == 0:
            records, loop_wall = closed_loop(fresh, lambda ex: run_example(ex, cfg),
                                             spec["clients"], seconds=args.seconds)
            outcomes = first_pass(records)
            row, write_s = write_outputs(args.workload, outcomes, work)
            failed = check(records, expected)
            loop = loop_metrics(records, loop_wall)
            metrics = {
                "questions_per_s": (loop.pop("questions_per_s"), "1/s"),
                "latency_p50_ms": (loop.pop("latency_p50_ms"), "ms"),
                "latency_tail_ms": (loop.pop("latency_tail_ms"), "ms"),
                "setup_s": (setup_times["setup_s"], "s"),
                "wall_s": (setup_times["setup_s"] + loop_wall + write_s, "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                 "MiB"),
                "macro_f1": (row.f1, "ratio"),
                "rejected_share": (row.rejected_pct / 100, "ratio"),
            }
            info["latency"] = {**loop, "loop_s": loop_wall}
            attempted = len(records)
            correct = pruned_ok and failed == 0 and len(outcomes) == len(expected)
        else:
            # Untraced and traced passes alternate; the tracing overhead
            # compares the fastest pass of each kind, and the layer metrics
            # come from the last traced pass.
            untraced_walls, traced_walls = [], []
            mismatched = failed = attempted = 0
            for _round in range(TRACE_ROUNDS):
                untraced, wall = closed_loop(
                    fresh, lambda ex: run_example(ex, cfg), spec["clients"], passes=1)
                untraced_walls.append(wall)
                tracer = Tracer()
                traced_cfg = pipeline_config(
                    setup, remote, lambda name: session(lambda: CountingSession(tracer, name)))
                counting_snapshot = CountingSnapshot(setup.snapshot, tracer)
                traced, wall = closed_loop(
                    fresh, lambda ex: traced_example(ex, traced_cfg, tracer, counting_snapshot),
                    spec["clients"], passes=1)
                traced_walls.append(wall)
                untraced_keys = {r[1]: outcome_key(r[4]) for r in untraced
                                 if not isinstance(r[4], str)}
                mismatched += sum(1 for r in traced if isinstance(r[4], str)
                                  or untraced_keys.get(r[1]) != outcome_key(r[4]))
                failed += check(untraced, expected) + check(traced, expected)
                attempted += len(untraced) + len(traced)
            outcomes = first_pass(traced)
            row, write_s = write_outputs(args.workload, outcomes, work)
            metrics, spans = layer_metrics(tracer, setup_times, write_s, min(untraced_walls),
                                           min(traced_walls), len(outcomes))
            with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
                for s in spans:
                    fh.write(json.dumps(s.to_dict()) + "\n")
            info["trace_check"] = {"rounds": TRACE_ROUNDS, "questions": len(traced),
                                   "mismatched": mismatched,
                                   "untraced_wall_s": untraced_walls,
                                   "traced_wall_s": traced_walls}
            correct = (pruned_ok and failed == 0 and mismatched == 0
                       and len(outcomes) == len(expected))
    finally:
        for open_session in sessions:
            open_session.close()
        if fakes:
            fakes.close()

    info["failed_share"] = failed / attempted
    print(json.dumps({"info": info}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name not in PRINTED_ONLY},
    }))


if __name__ == "__main__":
    # String hashes are salted per process, and with them the layout of
    # the program's dicts and sets; on a 2-vCPU VM that alone moved the
    # latency median of identical runs by up to a quarter. Every run
    # therefore uses one fixed salt.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    main()
