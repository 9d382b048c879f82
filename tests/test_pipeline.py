"""End-to-end pipeline runs over the bundled toy data."""

from dataclasses import replace

import pytest

from kgqa import data as toy_data
from kgqa.disambiguation import GoldOracle
from kgqa.evaluation import evaluate_end_to_end, load_dataset
from kgqa.generation import GoldPassthrough, TemplateGenerator
from kgqa.guard import GuardPolicy
from kgqa.pipeline import (
    PipelineConfig,
    build_rejection_suite,
    run_example,
    run_rejection_study,
)
from kgqa.guard import rejection_report
from kgqa.retrieval import Bm25Index, PRESETS
from kgqa.sparql import LocalExecutor


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
