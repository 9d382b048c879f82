"""Per-question orchestration: retrieve, disambiguate, guard, generate,
execute, score.

``run_example`` produces a full trace for one question, running each
distinct query at most once: a generated query equal to the gold one reads
the gold run's answers. The rejection study runs every case through it
with the filter off, so each generation is executed and each rejection
policy can be evaluated analytically against the ground-truth correctness
of the generation.
"""

import random
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional

from kgqa.disambiguation import RemoteReasoner, disambiguate
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
from kgqa.sparql.parser import parse
from kgqa.sparql.remote import RemoteExecutor


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


@dataclass(slots=True)
class PipelineOutcome:
    question_id: str
    dataset: str
    question: str
    # ``CandidateSet.hits``: (id, score) pairs, read like tuples.
    entity_candidates: Sequence[tuple[str, float]] = ()
    predicate_candidates: Sequence[tuple[str, float]] = ()
    entities_selected: tuple[str, ...] = ()
    predicates_selected: tuple[str, ...] = ()
    query_text: Optional[str] = None
    # The guard's verdict without its answer set; ``answers`` holds the
    # accepted answers as a sorted tuple.
    verdict: Optional[GuardVerdict] = None
    answers: tuple[str, ...] = ()
    gold_answers: tuple[str, ...] = ()
    metrics: Optional[MetricRecord] = None
    llm_rejected: bool = False
    error: Optional[str] = None
    # The gold query failed: ``error`` says why, ``metrics`` stays None and
    # the question is left out of the averages.
    gold_error: bool = False
    # Rejection-study fields (None outside study mode).
    correct: Optional[bool] = None
    execution_rejected: Optional[bool] = None
    filter_rejected: Optional[bool] = None


def _candidate_records(index, ids):
    return tuple(
        (cid, index.by_id[cid].label, index.by_id[cid].description) for cid in ids
    )


def _gold_run(example, cfg) -> tuple[AnswerSet, bool]:
    """The gold answers, and whether they come from running the gold query
    now. Answers already on the example are not a run."""
    if example.gold_answers is not None:
        return example.gold_answers, False
    return cfg.executor.run(example.gold_query), True


class _GoldReuse:
    """The executor the guard uses for one question whose gold query ran:
    a query with the gold query's text reads the gold run's answers; any
    other query runs. Only the text is compared: a remote endpoint reads
    the text, ``PREFIX`` bindings included, which the parsed form drops."""

    __slots__ = ("executor", "gold_query", "gold")

    def __init__(self, executor, gold_query: str, gold: AnswerSet):
        self.executor = executor
        self.gold_query = gold_query
        self.gold = gold

    def run(self, query_text: str) -> AnswerSet:
        if query_text == self.gold_query:
            return self.gold
        return self.executor.run(query_text)


def _stage(pool, fn, *args, **kwargs):
    """Start one stage and return a thunk that gives its result.

    With a pool the stage runs there; without one it runs now, on the
    caller's thread. Either way its error is raised when the thunk is
    called, so the caller sees failures in the order it reads results.
    """
    if pool is not None:
        return pool.submit(fn, *args, **kwargs).result
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        error = exc  # ``exc`` itself is unbound when the handler ends

        def reraise():
            raise error
        return reraise
    return lambda: result


def run_example(example, cfg: PipelineConfig) -> PipelineOutcome:
    """Run one question through every stage and score it.

    The gold query and the two disambiguations need nothing from each
    other. When their backends are remote they are in flight together:
    the gold query and predicate linking on a per-question pool, entity
    linking on the caller's thread. Local backends run on the caller's
    thread, where a handoff to a pool would only add cost. Results are
    read in the order gold, entity, predicate, and all of them before
    generation starts.

    The guard executes the generated query only when its text differs from
    the gold query that ran: the same text reads the gold run's answers, so
    each distinct query runs once. A gold run that failed, and gold answers
    already on the example, are not reused; the guard then runs the
    generated query itself.
    """
    outcome = PipelineOutcome(
        question_id=example.id, dataset=example.dataset, question=example.question,
    )
    remote_gold = isinstance(cfg.executor, RemoteExecutor)
    remote_links = isinstance(cfg.disambiguator, RemoteReasoner)
    overlap = remote_gold or remote_links
    with ThreadPoolExecutor(max_workers=2) if overlap else nullcontext() as pool:
        gold_run = _stage(pool if remote_gold else None, _gold_run, example, cfg)
        entity_candidates = cfg.entity_index.search(example.question, cfg.k)
        predicate_candidates = cfg.predicate_index.search(example.question, cfg.k)
        link_pool = pool if remote_links else None
        predicate_link = _stage(
            link_pool, disambiguate, example.question, predicate_candidates, "predicate",
            cfg.disambiguator, catalog=cfg.predicate_index.by_id,
            gold=example.gold_predicates,
        )
        entity_link = _stage(
            None, disambiguate, example.question, entity_candidates, "entity",
            cfg.disambiguator, catalog=cfg.entity_index.by_id,
            gold=example.gold_entities,
        )
        try:
            gold, gold_ran = gold_run()
        except KgqaError as exc:
            outcome.error = f"gold query failed: {exc}"
            outcome.gold_error = True
            gold, gold_ran = None, False
        entity_sel = entity_link()
        predicate_sel = predicate_link()
    executor = cfg.executor
    if gold is not None:
        outcome.gold_answers = tuple(gold.sorted_terms())
        if gold_ran:
            executor = _GoldReuse(executor, example.gold_query, gold)
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
        executor=executor,
        policy=cfg.policy,
    ))
    outcome.verdict = replace(verdict, answers=None)
    outcome.query_text = verdict.query_text
    predicted = verdict.answers if verdict.accepted else AnswerSet.empty()
    if gold is None:  # without gold answers there is nothing to score against
        outcome.answers = tuple(predicted.sorted_terms())
        return outcome
    outcome.answers = (outcome.gold_answers if predicted.terms == gold.terms
                       else tuple(predicted.sorted_terms()))
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
        outcome.correct = None if outcome.gold_error else outcome.metrics.acc_at_1 == 1
        outcomes.append(outcome)
    return outcomes
