"""End-to-end pipeline runs over the bundled toy data."""

import csv
import dataclasses
import json
import random
import threading
from dataclasses import replace

import pytest

from kgqa import data as toy_data
from kgqa.disambiguation import GoldOracle, RemoteReasoner
from kgqa.errors import DisambiguationError, ExecutionError
from kgqa.evaluation import (
    QaExample,
    evaluate_end_to_end,
    load_dataset,
    write_gold_cache,
    write_report_csv,
    write_trace_jsonl,
)
from kgqa.generation import GoldPassthrough, RemoteLlmGenerator, TemplateGenerator
from kgqa.guard import GuardPolicy
from kgqa.ids import is_entity_id
from kgqa.llmclient import ChatCompletionsClient, ReasonerClientConfig
from kgqa.pipeline import (
    PipelineConfig,
    build_rejection_suite,
    run_example,
    run_rejection_study,
)
from kgqa.guard import rejection_report
from kgqa.retrieval import Bm25Index, PRESETS
from kgqa.sparql import AnswerSet, EndpointConfig, LocalExecutor, RemoteExecutor


@pytest.fixture
def toy_examples():
    return [ex for ex in load_dataset(toy_data.toy_dataset_file()).examples]


def oracle_config(snapshot, examples, policy=None, k=10):
    preset = PRESETS["rubq2"]
    return PipelineConfig(
        snapshot=snapshot,
        entity_index=Bm25Index.build(snapshot.entities.values(), preset.entity),
        predicate_index=Bm25Index.build(snapshot.predicates.values(),
                                        preset.predicate),
        disambiguator=GoldOracle(),
        generator=GoldPassthrough({ex.id: ex.gold_query for ex in examples}),
        executor=LocalExecutor(snapshot),
        policy=policy or GuardPolicy(filter="alg1", execution=True),
        k=k,
    )


class TestOracleBound:
    def test_clean_run_is_perfect(self, toy_snapshot, toy_examples):
        cfg = oracle_config(toy_snapshot, toy_examples)
        report = evaluate_end_to_end(toy_examples, cfg)
        row = report.rows[0]
        assert row.n == 20
        assert row.f1 == 1.0
        assert row.acc_at_1 == 1.0
        assert row.rejected_pct == 0.0

    def test_one_corrupted_gold_of_ten(self, toy_snapshot, toy_examples):
        examples = toy_examples[:10]
        executor = LocalExecutor(toy_snapshot)
        for ex in examples:  # cache correct answers before corrupting
            ex.gold_answers = executor.run(ex.gold_query)
        examples[3].gold_query = examples[3].gold_query.replace("wdt:P", "wdt:P99")
        cfg = oracle_config(toy_snapshot, examples)
        report = evaluate_end_to_end(examples, cfg)
        row = report.rows[0]
        assert row.f1 == pytest.approx(0.9, abs=1e-12)
        rejected = [o for o in report.outcomes if not o.verdict.accepted]
        assert len(rejected) == 1
        assert rejected[0].question_id == examples[3].id
        assert rejected[0].verdict.stage in ("pre-generation-filter", "empty-result")

    def test_rejected_examples_predict_nothing(self, toy_snapshot, toy_examples):
        examples = toy_examples[:5]
        executor = LocalExecutor(toy_snapshot)
        for ex in examples:
            ex.gold_answers = executor.run(ex.gold_query)
        examples[0].gold_query = "SELECT ?x WHERE { wd:Q1 wdt:P999 ?x }"
        cfg = oracle_config(toy_snapshot, examples)
        report = evaluate_end_to_end(examples, cfg)
        outcome = next(o for o in report.outcomes
                       if o.question_id == examples[0].id)
        assert not outcome.verdict.accepted
        assert outcome.answers == ()
        assert outcome.metrics.f1 == 0.0

    def test_trace_fields_complete(self, toy_snapshot, toy_examples):
        cfg = oracle_config(toy_snapshot, toy_examples)
        outcome = run_example(toy_examples[0], cfg)
        assert outcome.question_id == "toy-001"
        assert outcome.entity_candidates
        assert outcome.predicate_candidates
        assert outcome.entities_selected == ("Q1",)
        assert outcome.predicates_selected == ("P2",)
        assert outcome.query_text == toy_examples[0].gold_query
        assert outcome.verdict.accepted
        assert outcome.answers == ("Q2",)
        assert outcome.gold_answers == ("Q2",)
        assert outcome.metrics.f1 == 1.0

    def test_workers_match_serial(self, toy_snapshot, toy_examples):
        serial_cfg = oracle_config(toy_snapshot, toy_examples)
        serial = evaluate_end_to_end(toy_examples, serial_cfg)
        parallel_cfg = oracle_config(toy_snapshot, toy_examples)
        parallel_cfg.workers = 4
        parallel = evaluate_end_to_end(toy_examples, parallel_cfg)
        assert serial.rows == parallel.rows
        assert [o.question_id for o in serial.outcomes] == \
            [o.question_id for o in parallel.outcomes]


class TestGoldAnswersOnExamples:
    def test_run_example_only_reads_the_example(self, toy_snapshot, toy_examples):
        cfg = oracle_config(toy_snapshot, toy_examples)
        before = [dataclasses.replace(ex) for ex in toy_examples]
        outcomes = [run_example(ex, cfg) for ex in toy_examples]
        assert toy_examples == before
        assert all(ex.gold_answers is None for ex in toy_examples)
        assert all(o.gold_answers for o in outcomes)

    def test_evaluate_keeps_gold_answers_on_the_calling_thread(self, toy_snapshot,
                                                                toy_examples):
        writers = []

        class Recording(QaExample):
            def __setattr__(self, name, value):
                if name == "gold_answers":
                    writers.append(threading.current_thread())
                super().__setattr__(name, value)

        examples = [Recording(**vars(ex)) for ex in toy_examples]
        examples[0].gold_query = "SELECT ?x WHERE { FILTER }"  # a gold error
        writers.clear()
        cfg = oracle_config(toy_snapshot, examples)
        cfg.workers = 4
        report = evaluate_end_to_end(examples, cfg)
        assert writers == [threading.main_thread()] * (len(examples) - 1)
        assert examples[0].gold_answers is None
        by_id = {o.question_id: o for o in report.outcomes}
        for ex in examples[1:]:
            assert tuple(ex.gold_answers.sorted_terms()) == by_id[ex.id].gold_answers

    def test_gold_cache_holds_the_outcomes_without_gold_errors(self, toy_snapshot,
                                                               toy_examples, tmp_path):
        examples = toy_examples[:3]
        examples[1].gold_query = "SELECT ?x WHERE { FILTER }"
        report = evaluate_end_to_end(examples, oracle_config(toy_snapshot, examples))
        write_gold_cache(report.outcomes, tmp_path / "gold_cache.json")
        cached = json.loads((tmp_path / "gold_cache.json").read_text())
        assert cached == {"answers": {o.question_id: list(o.gold_answers)
                                      for o in report.outcomes if not o.gold_error}}
        assert sorted(cached["answers"]) == [examples[0].id, examples[2].id]


class CountingExecutor:
    """Records every query it is asked to run; fails the first ``fail``
    calls with an ExecutionError."""

    def __init__(self, inner, fail=0):
        self.inner = inner
        self.fail = fail
        self.calls = []

    def run(self, query_text):
        self.calls.append(query_text)
        if len(self.calls) <= self.fail:
            raise ExecutionError("endpoint went away")
        return self.inner.run(query_text)


class TestOneRunPerQuery:
    """The guard reads the gold run's answers when the generated query is
    the gold one, so each distinct query runs once per question."""

    def _run(self, snapshot, examples, generated=None, fail=0):
        example = examples[0]
        cfg = oracle_config(snapshot, examples)
        cfg.executor = CountingExecutor(LocalExecutor(snapshot), fail)
        if generated is not None:
            cfg.generator = GoldPassthrough(generated)
        return run_example(example, cfg), cfg.executor.calls

    def test_gold_query_runs_once(self, toy_snapshot, toy_examples):
        outcome, calls = self._run(toy_snapshot, toy_examples)
        assert calls == [toy_examples[0].gold_query]
        assert outcome.verdict.accepted
        assert outcome.answers == outcome.gold_answers == ("Q2",)
        assert outcome.metrics.f1 == 1.0

    def test_same_query_spelled_otherwise_runs_again(self, toy_snapshot, toy_examples):
        # Only the text is compared, so a respelled query reaches the executor.
        gold = toy_examples[0].gold_query
        variant = "  " + gold.replace(" ", "\n\t ")
        outcome, calls = self._run(toy_snapshot, toy_examples, variant)
        assert calls == [gold, variant]
        assert outcome.query_text == variant
        assert outcome.answers == ("Q2",)

    def test_rebound_prefix_reaches_the_remote_endpoint(self, toy_snapshot,
                                                        toy_examples, fake_server):
        # The gold query's body under a PREFIX line that binds wdt: to the
        # wrong namespace parses to the gold query, but an endpoint reads
        # the PREFIX line and finds nothing.
        example = toy_examples[0]
        rebound = "PREFIX wdt: <http://www.wikidata.org/prop/>\n" + example.gold_query
        endpoints = ToyEndpoints(toy_snapshot, toy_examples)
        sent = []

        def respond(request):
            kind, text = endpoints.key(request)
            if kind == "sparql":
                sent.append(text)
                if text != example.gold_query:
                    return 200, {"head": {"vars": ["v"]}, "results": {"bindings": []}}
            return endpoints(request)

        fake_server.responder = respond
        cfg = remote_config(toy_snapshot, toy_examples, fake_server.url)
        cfg.generator = GoldPassthrough(rebound)
        outcome = run_example(example, cfg)
        assert sent == [example.gold_query, rebound]
        assert outcome.query_text == rebound
        assert not outcome.verdict.accepted
        assert outcome.answers == ()
        assert outcome.metrics.f1 == 0.0

    @pytest.mark.parametrize("generated", ["SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                                           "SELECT ?x WHERE { FILTER }"],
                             ids=["other-query", "unparsable"])
    def test_other_query_runs(self, toy_snapshot, toy_examples, generated):
        outcome, calls = self._run(toy_snapshot, toy_examples, generated)
        assert calls == [toy_examples[0].gold_query, generated]
        assert outcome.query_text == generated
        assert outcome.answers != ("Q2",)

    def test_gold_answers_on_the_example_are_not_a_run(self, toy_snapshot, toy_examples):
        # Cached answers that disagree with the graph: reusing them as the
        # guard's answers would score a perfect match.
        toy_examples[0].gold_answers = AnswerSet.of(["Q3"])
        outcome, calls = self._run(toy_snapshot, toy_examples)
        assert calls == [toy_examples[0].gold_query]
        assert outcome.gold_answers == ("Q3",)
        assert outcome.answers == ("Q2",)
        assert outcome.metrics.f1 == 0.0

    def test_failed_gold_run_is_not_reused(self, toy_snapshot, toy_examples):
        outcome, calls = self._run(toy_snapshot, toy_examples, fail=1)
        assert calls == [toy_examples[0].gold_query] * 2
        assert outcome.gold_error
        assert outcome.error == "gold query failed: endpoint went away"
        assert outcome.verdict.accepted
        assert outcome.answers == ("Q2",)
        assert outcome.metrics is None

    def test_outcome_keeps_one_copy_of_the_answers(self, toy_snapshot, toy_examples):
        outcome, _ = self._run(toy_snapshot, toy_examples)
        assert outcome.answers is outcome.gold_answers
        assert outcome.verdict.accepted and outcome.verdict.answers is None


class TestTemplateBaseline:
    def test_template_generator_runs_but_underperforms(self, toy_snapshot,
                                                       toy_examples):
        cfg = oracle_config(toy_snapshot, toy_examples)
        cfg.generator = TemplateGenerator()
        report = evaluate_end_to_end(toy_examples, cfg)
        row = report.rows[0]
        # One-hop template answers the simple questions, misses the rest.
        assert 0.0 < row.f1 < 1.0


class TestRejectionStudy:
    def test_half_corrupted_suite(self, toy_snapshot, toy_examples):
        cfg = oracle_config(toy_snapshot, toy_examples)
        cases = build_rejection_suite(toy_examples, toy_snapshot, 0.5, seed=3)
        assert sum(case.corrupted for case in cases) == 10
        outcomes = run_rejection_study(cases, cfg)
        for case, outcome in zip(cases, outcomes):
            if case.corrupted:
                assert not outcome.correct
                assert outcome.predicates_selected == case.predicate_override
                assert outcome.filter_rejected
            else:
                assert outcome.correct
                assert not outcome.execution_rejected
                assert not outcome.filter_rejected

    def test_report_catches_at_least_95_pct(self, toy_snapshot, toy_examples):
        cfg = oracle_config(toy_snapshot, toy_examples)
        cases = build_rejection_suite(toy_examples, toy_snapshot, 0.5, seed=3)
        rows = rejection_report(run_rejection_study(cases, cfg))
        row = rows[0]
        caught = float(row["filtering_and_execution"].rstrip("%"))
        assert caught >= 95.0
        assert row["false_rejection_filtering_and_execution"] == "0.0%"
        assert row["llm_rejection"] == "0.0%"

    def test_determinism_of_suite(self, toy_snapshot, toy_examples):
        first = build_rejection_suite(toy_examples, toy_snapshot, 0.5, seed=9)
        second = build_rejection_suite(toy_examples, toy_snapshot, 0.5, seed=9)
        assert [c.corrupted for c in first] == [c.corrupted for c in second]
        assert [c.query_override for c in first] == [c.query_override for c in second]

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_fraction_outside_unit_interval(self, toy_snapshot, toy_examples, fraction):
        with pytest.raises(ValueError):
            build_rejection_suite(toy_examples, toy_snapshot, fraction, seed=0)

    def test_failed_generation_is_execution_rejected(self, toy_snapshot, toy_examples):
        examples = toy_examples[:2]
        examples[0].gold_predicates = set()  # empty selection: the template cannot fill
        cfg = oracle_config(toy_snapshot, examples)
        cfg.generator = TemplateGenerator()
        cases = build_rejection_suite(examples, toy_snapshot, 0.0)
        failed, generated = run_rejection_study(cases, cfg)
        assert failed.query_text is None
        assert failed.verdict.stage == "parse"
        assert failed.execution_rejected
        assert failed.error is None
        assert not failed.correct
        assert generated.verdict.accepted
        assert not generated.execution_rejected

    @pytest.mark.parametrize("generator", ["gold-passthrough", "template"])
    def test_uncorrupted_case_matches_run_example(self, toy_snapshot, toy_examples,
                                                  generator):
        cfg = oracle_config(toy_snapshot, toy_examples)
        if generator == "template":
            cfg.generator = TemplateGenerator()
        unfiltered = replace(cfg, policy=GuardPolicy(filter="off", execution=True))
        cases = build_rejection_suite(toy_examples, toy_snapshot, 0.5, seed=3)
        outcomes = run_rejection_study(cases, cfg)
        clean = [(case, outcome) for case, outcome in zip(cases, outcomes)
                 if not case.corrupted]
        assert len(clean) == 10
        for case, outcome in clean:
            expected = run_example(case.example, unfiltered)
            assert outcome.entities_selected == expected.entities_selected
            assert outcome.predicates_selected == expected.predicates_selected
            assert outcome.query_text == expected.query_text
            assert outcome.verdict == expected.verdict
            assert outcome.answers == expected.answers
            assert outcome.metrics == expected.metrics
            assert outcome.execution_rejected == (not expected.verdict.accepted)


class TestGoldError:
    """A question whose gold query fails is tagged, not scored."""

    def _config(self, snapshot, examples):
        cfg = oracle_config(snapshot, examples)
        cfg.generator = GoldPassthrough({ex.id: ex.gold_query for ex in examples})
        return cfg

    def test_rejected_question_is_left_out_of_the_averages(self, toy_snapshot,
                                                             toy_examples, tmp_path):
        examples = toy_examples[:2]
        examples[0].gold_query = "SELECT ?x WHERE { FILTER }"
        cfg = self._config(toy_snapshot, examples)
        # The second question is generated wrongly: a real score of zero.
        cfg.generator = GoldPassthrough({
            examples[0].id: examples[0].gold_query,
            examples[1].id: "SELECT ?x WHERE { wd:Q1 wdt:P999 ?x }"})
        report = evaluate_end_to_end(examples, cfg)
        failed = next(o for o in report.outcomes if o.question_id == examples[0].id)
        assert failed.gold_error
        assert failed.error.startswith("gold query failed: ")
        assert failed.metrics is None
        assert failed.gold_answers == ()
        assert not failed.verdict.accepted
        row = report.rows[0]
        assert (row.n, row.n_gold_error) == (2, 1)
        assert (row.f1, row.acc_at_1) == (0.0, 0)  # was 0.5: the failed gold scored 1.0
        write_report_csv(report, tmp_path / "report.csv")
        with open(tmp_path / "report.csv", newline="") as fh:
            header, values = list(csv.reader(fh))
        assert dict(zip(header, values))["n_gold_error"] == "1"
        write_trace_jsonl(report.outcomes, tmp_path / "trace.jsonl")
        line = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
        assert line["metrics"] is None
        assert line["error"].startswith("gold query failed: ")

    def test_row_without_scored_question_averages_to_zero(self, toy_snapshot,
                                                          toy_examples):
        examples = toy_examples[:1]
        examples[0].gold_query = "SELECT ?x WHERE { FILTER }"
        report = evaluate_end_to_end(examples, self._config(toy_snapshot, examples))
        row = report.rows[0]
        assert (row.n, row.n_gold_error, row.f1, row.acc_at_1) == (1, 1, 0.0, 0.0)
        assert row.rejected_pct == 100.0

    def test_rejection_study_leaves_the_case_unlabelled(self, toy_snapshot,
                                                        toy_examples):
        examples = toy_examples[:3]
        examples[0].gold_query = "SELECT ?x WHERE { FILTER }"
        cfg = self._config(toy_snapshot, examples)
        cases = build_rejection_suite(examples, toy_snapshot, 0.0)
        outcomes = run_rejection_study(cases, cfg)
        assert outcomes[0].correct is None
        row = rejection_report(outcomes)[0]
        assert (row["n"], row["n_incorrect"]) == (3, 0)
        assert row["false_rejection_execution"] == "0.0%"


# --- remote backends -----------------------------------------------------

ENTITY_URI = "http://www.wikidata.org/entity/"


class ToyEndpoints:
    """Content-keyed chat and SPARQL replies over the toy graph.

    Chat prompts are keyed by their kind (entity, predicate or
    generation) and question, and answered from the dataset's gold ids
    and queries; SPARQL requests are keyed by their query text and
    answered by executing it on the toy snapshot. A key listed in
    ``flaky`` fails with 503 on every other arrival, the first included;
    one listed in ``broken`` fails with 500 on its first arrival. With
    ``barrier`` set, the first request of each linking and SPARQL key
    waits on it.
    """

    def __init__(self, snapshot, examples, flaky=(), broken=(), barrier=None):
        self.executor = LocalExecutor(snapshot)
        self.by_question = {ex.question: ex for ex in examples}
        self.flaky = set(flaky)
        self.broken = set(broken)
        self.barrier = barrier
        self.barrier_broken = False
        self.replies = {}  # key -> statuses, in arrival order
        self._lock = threading.Lock()

    @staticmethod
    def key(request):
        if request.path.endswith("/sparql"):
            return "sparql", request.query["query"][0]
        prompt = request.json()["messages"][-1]["content"]
        question = [line for line in prompt.splitlines()
                    if line.startswith("Question: ")][-1][len("Question: "):]
        if "Candidate entities:" in prompt:
            return "entity", question
        if "Candidate predicates:" in prompt:
            return "predicate", question
        return "generation", question

    def __call__(self, request):
        key = self.key(request)
        with self._lock:
            statuses = self.replies.setdefault(key, [])
            arrival = len(statuses)
            status = 200
            if key in self.flaky and arrival % 2 == 0:
                status = 503
            elif key in self.broken and arrival == 0:
                status = 500
            statuses.append(status)
        if self.barrier is not None and arrival == 0 and key[0] != "generation":
            try:
                self.barrier.wait()
            except threading.BrokenBarrierError:
                self.barrier_broken = True
        if status != 200:
            return status, "busy"
        kind, text = key
        if kind == "sparql":
            return 200, self._results(text)
        example = self.by_question[text]
        if kind == "generation":
            content = f"Here is the query.\n```sparql\n{example.gold_query}\n```"
        else:
            ids = example.gold_entities if kind == "entity" else example.gold_predicates
            content = f"Reasoning first.\n<answer>{', '.join(sorted(ids))}</answer>"
        return 200, {"choices": [{"message": {"content": content}}]}

    def _results(self, query):
        answers = self.executor.run(query)
        if answers.truth is not None:
            return {"head": {}, "boolean": answers.truth}
        bindings = [{"v": {"type": "uri", "value": ENTITY_URI + term}
                     if is_entity_id(term) else {"type": "literal", "value": term}}
                    for term in answers.sorted_terms()]
        return {"head": {"vars": ["v"]}, "results": {"bindings": bindings}}


class _Delegate:
    """Wraps a backend under another type, so ``run_example`` takes its
    sequential path while making the same remote calls."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def remote_config(snapshot, examples, url, sequential=False):
    cfg = oracle_config(snapshot, examples)
    llm = ChatCompletionsClient(ReasonerClientConfig(
        base_url=url + "v1/chat/completions", model_name="m", timeout=10.0,
        max_retries=2, backoff_base=0.0))
    cfg.disambiguator = RemoteReasoner(llm)
    cfg.generator = RemoteLlmGenerator(llm)
    cfg.executor = RemoteExecutor(EndpointConfig(
        base_url=url + "sparql", timeout=10.0, max_retries=2, politeness_delay=0.0,
        backoff_base=0.0))
    if sequential:
        cfg.disambiguator = _Delegate(cfg.disambiguator)
        cfg.executor = _Delegate(cfg.executor)
    return cfg


def flaky_keys(examples):
    """A seeded share of the keys of every kind, to be served as flaky."""
    rng = random.Random(5)
    keys = set()
    for ex in examples:
        for kind in ("entity", "predicate", "generation"):
            if rng.random() < 0.4:
                keys.add((kind, ex.question))
        if rng.random() < 0.4:
            keys.add(("sparql", ex.gold_query))
    return keys


class TestRemoteOverlap:
    def test_gold_and_both_links_are_in_flight_together(self, toy_snapshot,
                                                        toy_examples, fake_server):
        example = toy_examples[0]
        # Three first arrivals must meet: gold query, entity and predicate
        # linking. Calls made one after another break the barrier instead.
        endpoints = ToyEndpoints(toy_snapshot, toy_examples,
                                 barrier=threading.Barrier(3, timeout=2.0))
        fake_server.responder = endpoints
        outcome = run_example(example, remote_config(toy_snapshot, toy_examples,
                                                     fake_server.url))
        assert not endpoints.barrier_broken
        assert outcome.verdict.accepted
        assert outcome.answers == outcome.gold_answers == ("Q2",)

    def test_outcome_and_calls_match_the_sequential_path(self, toy_snapshot,
                                                         fake_server):
        runs = {}
        for sequential in (True, False):
            examples = load_dataset(toy_data.toy_dataset_file()).examples
            endpoints = ToyEndpoints(toy_snapshot, examples, flaky=flaky_keys(examples))
            fake_server.responder = endpoints
            cfg = remote_config(toy_snapshot, examples, fake_server.url, sequential)
            runs[sequential] = ([run_example(ex, cfg) for ex in examples],
                                endpoints.replies)
        (reference, reference_calls), (overlapped, calls) = runs[True], runs[False]
        for want, got in zip(reference, overlapped):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
        # The same requests and retries per key, in the same order.
        assert calls == reference_calls
        assert sum(status == 503 for statuses in calls.values() for status in statuses) > 0

    def test_evaluate_outputs_are_byte_identical(self, toy_snapshot, fake_server,
                                                 tmp_path):
        outputs = {}
        for name, sequential, workers in (("sequential", True, 1),
                                          ("overlapped", False, 2)):
            examples = load_dataset(toy_data.toy_dataset_file()).examples
            fake_server.responder = ToyEndpoints(toy_snapshot, examples,
                                                 flaky=flaky_keys(examples))
            cfg = remote_config(toy_snapshot, examples, fake_server.url, sequential)
            cfg.workers = workers
            report = evaluate_end_to_end(examples, cfg)
            out = tmp_path / name
            out.mkdir()
            write_report_csv(report, out / "report.csv")
            write_trace_jsonl(report.outcomes, out / "trace.jsonl")
            outputs[name] = [(out / f).read_bytes() for f in ("report.csv", "trace.jsonl")]
        assert outputs["overlapped"] == outputs["sequential"]

    def test_entity_error_wins_when_both_links_fail(self, toy_snapshot, toy_examples,
                                                    fake_server):
        endpoints = ToyEndpoints(toy_snapshot, toy_examples)

        def respond(request):
            kind, _ = endpoints.key(request)
            if kind in ("entity", "predicate"):
                return 400, f"{kind} refused"
            return endpoints(request)

        fake_server.responder = respond
        cfg = remote_config(toy_snapshot, toy_examples, fake_server.url)
        with pytest.raises(DisambiguationError) as err:
            run_example(toy_examples[0], cfg)
        assert "entity refused" in str(err.value)

    def test_gold_error_is_recorded(self, toy_snapshot, toy_examples, fake_server):
        example = toy_examples[0]
        fake_server.responder = ToyEndpoints(
            toy_snapshot, toy_examples, broken={("sparql", example.gold_query)})
        outcome = run_example(example, remote_config(toy_snapshot, toy_examples,
                                                     fake_server.url))
        assert outcome.gold_error
        assert outcome.error.startswith("gold query failed: HTTP 500")
        assert outcome.metrics is None
        assert outcome.verdict.accepted  # the generated query's own call succeeded
