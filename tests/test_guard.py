"""Ontology filtering, guard staging, and the rejection report."""

import random
from dataclasses import dataclass

from kgqa.errors import ExecutionError, GenerationError
from kgqa.guard import (
    GuardPolicy,
    check_entity_mismatch,
    guard_pipeline,
    rejection_report,
    strict_check_entity_mismatch,
)
from kgqa.kgstore import EntityRecord, PredicateRecord, snapshot_from_records
from kgqa.sparql import LocalExecutor


def brute_force_mismatch(triples, entities, predicates, strict=False):
    """Oracle: explicit double loop, full triple scan per entity. The
    relaxed check fails unless some entity touches a predicate, the strict
    one unless there are entities and every one of them does."""
    touches = []
    for entity in entities:
        incoming, outgoing = set(), set()
        for s, r, o in triples:
            if o == entity:
                incoming.add(r)
            elif s == entity:
                outgoing.add(r)
        touches.append(bool((incoming | outgoing) & set(predicates)))
    if strict:
        return not (touches and all(touches))
    return not any(touches)


def make_snapshot(triples, extra_entities=(), extra_predicates=()):
    entity_ids = sorted({x for t in triples for x in (t[0], t[2])
                         if x.startswith("Q")} | set(extra_entities))
    predicate_ids = sorted({t[1] for t in triples} | set(extra_predicates))
    return snapshot_from_records(
        [EntityRecord(e, e.lower()) for e in entity_ids],
        [PredicateRecord(p, p.lower()) for p in predicate_ids],
        triples,
    )


class TestCheckEntityMismatch:
    def test_connected_pair(self):
        snap = make_snapshot([("Q1", "P1", "Q2")])
        assert check_entity_mismatch(snap, {"Q1"}, {"P1"}) is False

    def test_disjoint_relations(self):
        snap = make_snapshot([("Q1", "P1", "Q2")], extra_predicates=["P9"])
        assert check_entity_mismatch(snap, {"Q1"}, {"P9"}) is True

    def test_any_entity_clears_the_set(self):
        snap = make_snapshot([("Q3", "P9", "Q4"), ("Q1", "P1", "Q2")])
        assert check_entity_mismatch(snap, {"Q1", "Q3"}, {"P9"}) is False

    def test_empty_sets_mismatch(self):
        snap = make_snapshot([("Q1", "P1", "Q2")])
        assert check_entity_mismatch(snap, set(), {"P1"}) is True
        assert check_entity_mismatch(snap, {"Q1"}, set()) is True
        assert check_entity_mismatch(snap, set(), set()) is True

    def test_unknown_ids_have_empty_profiles(self):
        snap = make_snapshot([("Q1", "P1", "Q2")])
        assert check_entity_mismatch(snap, {"Q777"}, {"P1"}) is True

    def test_matches_brute_force_on_random_kgs(self):
        rng = random.Random(1312)
        for _ in range(300):
            entities = [f"Q{i}" for i in range(1, rng.randint(3, 12))]
            predicates = [f"P{i}" for i in range(1, rng.randint(2, 6))]
            triples = sorted({
                (rng.choice(entities), rng.choice(predicates), rng.choice(entities))
                for _ in range(rng.randint(0, 100))
            })
            snap = make_snapshot(triples, entities, predicates)
            # Q99 is outside the catalog and touches nothing.
            pool = [*entities, "Q99"]
            picked_entities = set(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
            picked_predicates = set(rng.sample(predicates,
                                               rng.randint(0, len(predicates))))
            for checker, strict in ((check_entity_mismatch, False),
                                    (strict_check_entity_mismatch, True)):
                assert checker(snap, picked_entities, picked_predicates) == \
                    brute_force_mismatch(triples, picked_entities, picked_predicates, strict)

    def test_monotone_under_triple_addition(self):
        rng = random.Random(777)
        for _ in range(300):
            entities = [f"Q{i}" for i in range(1, 8)]
            predicates = [f"P{i}" for i in range(1, 5)]
            triples = sorted({
                (rng.choice(entities), rng.choice(predicates), rng.choice(entities))
                for _ in range(rng.randint(0, 20))
            })
            snap = make_snapshot(triples, entities, predicates)
            picked_entities = set(rng.sample(entities, rng.randint(1, 3)))
            picked_predicates = set(rng.sample(predicates, rng.randint(1, 3)))
            before = check_entity_mismatch(snap, picked_entities, picked_predicates)
            extra = (rng.choice(entities), rng.choice(predicates),
                     rng.choice(entities))
            grown = make_snapshot(sorted(set(triples) | {extra}),
                                  entities, predicates)
            after = check_entity_mismatch(grown, picked_entities, picked_predicates)
            if before is False:
                assert after is False


class TestStrictVariant:
    def test_all_entities_connect(self):
        snap = make_snapshot([("Q1", "P1", "Q2"), ("Q3", "P1", "Q4")])
        assert strict_check_entity_mismatch(snap, {"Q1", "Q3"}, {"P1"}) is False

    def test_one_disconnected_entity_trips(self):
        snap = make_snapshot([("Q3", "P9", "Q4"), ("Q1", "P1", "Q2")])
        # Contrast case: the relaxed check clears this set, strict does not.
        assert check_entity_mismatch(snap, {"Q1", "Q3"}, {"P9"}) is False
        assert strict_check_entity_mismatch(snap, {"Q1", "Q3"}, {"P9"}) is True

    def test_single_entity_agreement(self):
        snap = make_snapshot([("Q1", "P1", "Q2")])
        assert strict_check_entity_mismatch(snap, {"Q1"}, {"P1"}) is False
        assert check_entity_mismatch(snap, {"Q1"}, {"P1"}) is False

    def test_strict_implies_relaxed(self):
        rng = random.Random(55)
        for _ in range(200):
            entities = [f"Q{i}" for i in range(1, 8)]
            predicates = [f"P{i}" for i in range(1, 5)]
            triples = sorted({
                (rng.choice(entities), rng.choice(predicates), rng.choice(entities))
                for _ in range(rng.randint(0, 25))
            })
            snap = make_snapshot(triples, entities, predicates)
            picked_entities = set(rng.sample(entities, rng.randint(0, 4)))
            picked_predicates = set(rng.sample(predicates, rng.randint(0, 3)))
            strict = strict_check_entity_mismatch(snap, picked_entities,
                                                  picked_predicates)
            relaxed = check_entity_mismatch(snap, picked_entities, picked_predicates)
            if strict is False:
                assert relaxed is False


class _FailingExecutor:
    def run(self, query_text):
        raise ExecutionError("executor blew up")


class TestGuardPipeline:
    def _snapshot(self):
        return make_snapshot([("Q1", "P1", "Q2")], extra_predicates=["P9"])

    def test_filter_reject_skips_generation(self):
        snap = self._snapshot()
        calls = []

        def generator():
            calls.append(1)
            return "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"

        verdict = guard_pipeline(
            snapshot=snap, entities={"Q1"}, predicates={"P9"},
            query=generator, executor=LocalExecutor(snap),
            policy=GuardPolicy(filter="alg1", execution=True))
        assert not verdict.accepted
        assert verdict.stage == "pre-generation-filter"
        assert calls == []  # generator never invoked

    def test_empty_result_rejected(self):
        snap = self._snapshot()
        verdict = guard_pipeline(
            snapshot=snap, entities={"Q2"}, predicates={"P1"},
            query="SELECT ?x WHERE { wd:Q2 wdt:P1 ?x }",
            executor=LocalExecutor(snap), policy=GuardPolicy())
        assert not verdict.accepted
        assert verdict.stage == "empty-result"

    def test_happy_path_accepted(self):
        snap = self._snapshot()
        verdict = guard_pipeline(
            snapshot=snap, entities={"Q1"}, predicates={"P1"},
            query="SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
            executor=LocalExecutor(snap), policy=GuardPolicy())
        assert verdict.accepted
        assert verdict.stage == "accepted"
        assert verdict.answers.terms == {"Q2"}

    def test_ask_false_is_an_answer(self):
        snap = self._snapshot()
        verdict = guard_pipeline(
            snapshot=snap, entities={"Q1"}, predicates={"P1"},
            query="ASK { wd:Q2 wdt:P1 wd:Q1 }",
            executor=LocalExecutor(snap), policy=GuardPolicy())
        assert verdict.accepted
        assert verdict.answers.truth is False

    def test_parse_failure_stage(self):
        snap = self._snapshot()
        verdict = guard_pipeline(
            snapshot=snap, entities={"Q1"}, predicates={"P1"},
            query="SELECT ?x WHERE { FILTER(?x) }",
            executor=LocalExecutor(snap), policy=GuardPolicy())
        assert verdict.stage == "parse"
        assert "unsupported-construct" in verdict.detail

    def test_execution_error_stage(self):
        snap = self._snapshot()
        verdict = guard_pipeline(
            snapshot=snap, entities={"Q1"}, predicates={"P1"},
            query="SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
            executor=_FailingExecutor(), policy=GuardPolicy())
        assert verdict.stage == "execution-error"

    def test_generation_failure_becomes_verdict(self):
        snap = self._snapshot()

        def generator():
            raise GenerationError("insufficient candidates")

        verdict = guard_pipeline(
            snapshot=snap, entities={"Q1"}, predicates={"P1"},
            query=generator, executor=LocalExecutor(snap), policy=GuardPolicy())
        assert not verdict.accepted
        assert verdict.stage == "parse"
        assert "insufficient candidates" in verdict.detail

    def test_all_policies_off_accepts_empty(self):
        snap = self._snapshot()
        verdict = guard_pipeline(
            snapshot=snap, entities=set(), predicates=set(),
            query="SELECT ?x WHERE { wd:Q2 wdt:P1 ?x }",
            executor=LocalExecutor(snap),
            policy=GuardPolicy(filter="off", execution=False))
        assert verdict.accepted
        assert verdict.answers.terms == set()

    def test_all_policies_off_still_requires_parse(self):
        snap = self._snapshot()
        verdict = guard_pipeline(
            snapshot=snap, entities=set(), predicates=set(),
            query="not sparql at all",
            executor=LocalExecutor(snap),
            policy=GuardPolicy(filter="off", execution=False))
        assert not verdict.accepted
        assert verdict.stage == "parse"

    def test_strict_policy_uses_strict_checker(self):
        snap = make_snapshot([("Q3", "P9", "Q4"), ("Q1", "P1", "Q2")])
        context = dict(
            snapshot=snap, entities={"Q1", "Q3"}, predicates={"P9"},
            query="ASK { wd:Q3 wdt:P9 wd:Q4 }", executor=LocalExecutor(snap))
        relaxed = guard_pipeline(**context, policy=GuardPolicy(filter="alg1"))
        strict = guard_pipeline(**context, policy=GuardPolicy(filter="strict"))
        assert relaxed.accepted
        assert not strict.accepted

    def test_verdict_invariant(self):
        snap = self._snapshot()
        for policy in (GuardPolicy(), GuardPolicy(filter="off", execution=False)):
            for query in ("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }", "garbage"):
                verdict = guard_pipeline(
                    snapshot=snap, entities={"Q1"}, predicates={"P1"},
                    query=query, executor=LocalExecutor(snap), policy=policy)
                assert verdict.accepted == (verdict.stage == "accepted")


@dataclass
class _StudyOutcome:
    dataset: str
    correct: bool
    llm_rejected: bool = False
    execution_rejected: bool = False
    filter_rejected: bool = False


class TestRejectionReport:
    def test_percentages(self):
        outcomes = [_StudyOutcome("d", correct=False,
                                  execution_rejected=(i < 6)) for i in range(10)]
        rows = rejection_report(outcomes)
        assert rows[0]["execution"] == "60.0%"
        assert rows[0]["n_incorrect"] == 10

    def test_zero_incorrect_not_applicable(self):
        outcomes = [_StudyOutcome("d", correct=True) for _ in range(4)]
        rows = rejection_report(outcomes)
        assert rows[0]["execution"] == "n/a"
        assert rows[0]["false_rejection_execution"] == "0.0%"

    def test_combined_policy_is_union(self):
        outcomes = [
            _StudyOutcome("d", correct=False, filter_rejected=True),
            _StudyOutcome("d", correct=False, execution_rejected=True),
            _StudyOutcome("d", correct=False),
        ]
        rows = rejection_report(outcomes)
        assert rows[0]["filtering_and_execution"] == "66.7%"

    def test_false_rejection_rate(self):
        outcomes = [
            _StudyOutcome("d", correct=True, execution_rejected=True),
            _StudyOutcome("d", correct=True),
            _StudyOutcome("d", correct=False, execution_rejected=True),
        ]
        rows = rejection_report(outcomes)
        assert rows[0]["false_rejection_execution"] == "50.0%"
        assert rows[0]["execution"] == "100.0%"

    def test_grouped_by_dataset(self):
        outcomes = [_StudyOutcome("a", correct=False, execution_rejected=True),
                    _StudyOutcome("b", correct=False)]
        rows = rejection_report(outcomes)
        assert [r["dataset"] for r in rows] == ["a", "b"]
