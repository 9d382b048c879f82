"""Per-question orchestration: retrieve, disambiguate, guard, generate,
execute, score.

``run_example`` produces a full trace for one question. The rejection
study runs every case through it with the filter off, so each generation
is executed and each rejection policy can be evaluated analytically
against the ground-truth correctness of the generation.
"""

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from kgqa.disambiguation import disambiguate
from kgqa.errors import KgqaError
from kgqa.generation import GenerationRequest, GoldPassthrough, generate
from kgqa.guard import (
    GuardContext,
    GuardPolicy,
    GuardVerdict,
    check_entity_mismatch,
    guard_pipeline,
)
from kgqa.metrics import MetricRecord, score
from kgqa.sparql.answers import AnswerSet


@dataclass
class PipelineConfig:
    snapshot: object
    entity_index: object
    predicate_index: object
    disambiguator: object
    generator: object
    executor: object
    policy: GuardPolicy = field(default_factory=GuardPolicy)
    k: int = 10
    seed: int = 0
    workers: int = 1
    fewshot_examples: tuple = ()


@dataclass
class PipelineOutcome:
    question_id: str
    dataset: str
    question: str
    entity_candidates: tuple[tuple[str, float], ...] = ()
    predicate_candidates: tuple[tuple[str, float], ...] = ()
    entities_selected: tuple[str, ...] = ()
    predicates_selected: tuple[str, ...] = ()
    query_text: Optional[str] = None
    verdict: Optional[GuardVerdict] = None
    answers: tuple[str, ...] = ()
    gold_answers: tuple[str, ...] = ()
    metrics: Optional[MetricRecord] = None
    llm_rejected: bool = False
    error: Optional[str] = None
    # Rejection-study fields (None outside study mode).
    correct: Optional[bool] = None
    execution_rejected: Optional[bool] = None
    filter_rejected: Optional[bool] = None


def _candidate_records(index, ids):
    return tuple(
        (cid, index.by_id[cid].label, index.by_id[cid].description) for cid in ids
    )


def _gold_answers(example, cfg) -> AnswerSet:
    if example.gold_answers is not None:
        return example.gold_answers
    answers = cfg.executor.run(example.gold_query)
    example.gold_answers = answers  # cache for reuse across runs
    return answers


def run_example(example, cfg: PipelineConfig) -> PipelineOutcome:
    outcome = PipelineOutcome(
        question_id=example.id, dataset=example.dataset, question=example.question,
    )
    try:
        gold = _gold_answers(example, cfg)
    except KgqaError as exc:
        outcome.error = f"gold query failed: {exc}"
        gold = AnswerSet.empty()
    outcome.gold_answers = tuple(gold.sorted_terms())

    entity_candidates = cfg.entity_index.search(example.question, cfg.k)
    predicate_candidates = cfg.predicate_index.search(example.question, cfg.k)
    entity_sel = disambiguate(
        example.question, entity_candidates, "entity", cfg.disambiguator,
        catalog=cfg.entity_index.by_id, gold=example.gold_entities,
    )
    predicate_sel = disambiguate(
        example.question, predicate_candidates, "predicate", cfg.disambiguator,
        catalog=cfg.predicate_index.by_id, gold=example.gold_predicates,
    )
    outcome.entity_candidates = entity_candidates.hits
    outcome.predicate_candidates = predicate_candidates.hits
    outcome.entities_selected = entity_sel.selected
    outcome.predicates_selected = predicate_sel.selected

    def generate_query() -> str:
        request = GenerationRequest(
            question=example.question,
            entities=_candidate_records(cfg.entity_index, entity_sel.selected),
            predicates=_candidate_records(cfg.predicate_index, predicate_sel.selected),
            fewshot_examples=cfg.fewshot_examples,
            question_id=example.id,
        )
        return generate(request, cfg.generator).query_text

    verdict = guard_pipeline(GuardContext(
        snapshot=cfg.snapshot,
        entities=set(entity_sel.selected),
        predicates=set(predicate_sel.selected),
        query=generate_query,
        executor=cfg.executor,
        policy=cfg.policy,
    ))
    outcome.verdict = verdict
    outcome.query_text = verdict.query_text
    predicted = verdict.answers if verdict.accepted else AnswerSet.empty()
    outcome.answers = tuple(predicted.sorted_terms())
    outcome.metrics = score(gold, predicted)
    return outcome


# --- rejection study -------------------------------------------------------

@dataclass
class StudyCase:
    example: object
    query_override: Optional[str] = None       # corrupted query text, if any
    predicate_override: Optional[tuple[str, ...]] = None  # corrupted selection
    corrupted: bool = False
    llm_rejected: bool = False


def build_rejection_suite(examples, snapshot, fraction: float = 0.5,
                          seed: int = 0) -> list[StudyCase]:
    """Corrupt a deterministic share of generations.

    Half of the corrupted cases swap every predicate in the gold query for
    a dangling id absent from the graph; the other half reuse a cataloged
    predicate that none of the question's entities touches. Both the query
    text and the predicate selection are corrupted, so filtering and
    execution policies each get a chance to catch the case.

    Only SELECT-form queries are corruption targets: a corrupted ASK or
    COUNT still returns an answer ("false" / "0"), which would make the
    case invisible to execution-based rejection and ambiguous to label.
    """
    from kgqa.sparql import parse  # deferred: avoids import cycle at module load

    rng = random.Random(seed)
    eligible = []
    for idx, example in enumerate(examples):
        try:
            if parse(example.gold_query).form == "select":
                eligible.append(idx)
        except KgqaError:
            continue
    if not 0 <= fraction <= 1:
        raise ValueError(f"corrupt fraction must be in [0, 1], got {fraction}")
    n_corrupt = min(round(len(examples) * fraction), len(eligible))
    rng.shuffle(eligible)
    corrupt_at = set(eligible[:n_corrupt])
    dangling = "P999999"
    while dangling in snapshot.predicates:
        dangling += "9"

    cases = []
    for idx, example in enumerate(examples):
        if idx not in corrupt_at:
            cases.append(StudyCase(example=example))
            continue
        replacement = dangling
        if idx % 2 == 0:
            disconnected = _disconnected_predicate(snapshot, example.gold_entities)
            if disconnected is not None:
                replacement = disconnected
        query = example.gold_query
        for pid in sorted(example.gold_predicates, key=len, reverse=True):
            query = query.replace(f"wdt:{pid}", f"wdt:{replacement}")
        cases.append(StudyCase(example=example, query_override=query,
                               predicate_override=(replacement,), corrupted=True))
    return cases


def _disconnected_predicate(snapshot, entity_ids) -> Optional[str]:
    touched = set()
    for eid in entity_ids:
        profile = snapshot.profiles.get(eid)
        if profile is not None:
            touched |= profile.incoming | profile.outgoing
    for pid in sorted(snapshot.predicates):
        if pid not in touched:
            return pid
    return None


def run_rejection_study(cases, cfg: PipelineConfig) -> list[PipelineOutcome]:
    """Run every case through ``run_example`` with the filter off, so each
    generation reaches execution, and record per-policy rejection flags."""
    study = replace(cfg, policy=GuardPolicy(filter="off", execution=True))
    outcomes = []
    for case in cases:
        case_cfg = study
        if case.query_override is not None:
            case_cfg = replace(study, generator=GoldPassthrough(case.query_override))
        outcome = run_example(case.example, case_cfg)
        if case.predicate_override is not None:
            outcome.predicates_selected = case.predicate_override
        outcome.llm_rejected = case.llm_rejected
        outcome.filter_rejected = check_entity_mismatch(
            cfg.snapshot, set(outcome.entities_selected), set(outcome.predicates_selected))
        outcome.execution_rejected = not outcome.verdict.accepted
        outcome.correct = outcome.metrics.acc_at_1 == 1
        outcomes.append(outcome)
    return outcomes
