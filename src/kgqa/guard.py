"""Rejection machinery: ontology filtering plus execution-based checks.

The pre-generation filter inspects the selected entity and predicate
sets against the knowledge graph: if no selected entity touches any
selected predicate (in either direction), generation is pointless and
the question is rejected before the generator runs. A strict variant
requires every entity to connect. After generation, parse failures,
execution failures, and (policy permitting) empty results reject the
query. A false ASK answer is an answer, not an empty result.
"""

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from kgqa.errors import ExecutionError, GenerationError, QueryParseError
from kgqa.kgstore import Snapshot, relation_profile_or_empty
from kgqa.sparql.answers import AnswerSet

STAGE_FILTER = "pre-generation-filter"
STAGE_PARSE = "parse"
STAGE_EXECUTION_ERROR = "execution-error"
STAGE_EMPTY = "empty-result"
STAGE_ACCEPTED = "accepted"

def check_entity_mismatch(snapshot: Snapshot, entities, predicates) -> bool:
    """True when no selected entity touches any selected predicate.

    One connected entity clears the whole set; empty entity or predicate
    sets therefore stay mismatched (nothing can clear them).
    """
    predicate_set = set(predicates)
    mismatch = True
    for entity in entities:
        profile = relation_profile_or_empty(snapshot, entity)
        if (profile.incoming | profile.outgoing) & predicate_set:
            mismatch = False
            break
    return mismatch


def strict_check_entity_mismatch(snapshot: Snapshot, entities, predicates) -> bool:
    """True when ANY selected entity fails to touch the predicate set."""
    entities = list(entities)
    predicate_set = set(predicates)
    if not entities or not predicate_set:
        return True
    for entity in entities:
        profile = relation_profile_or_empty(snapshot, entity)
        if not (profile.incoming | profile.outgoing) & predicate_set:
            return True
    return False


# The pre-generation check of each filter mode; "off" runs none.
FILTER_CHECKERS = {"alg1": check_entity_mismatch, "strict": strict_check_entity_mismatch}
FILTER_MODES = ("off", *FILTER_CHECKERS)


@dataclass(frozen=True)
class GuardPolicy:
    filter: str = "alg1"  # one of FILTER_MODES
    execution: bool = True

    def __post_init__(self):
        if self.filter not in FILTER_MODES:
            raise ValueError(f"filter must be one of {FILTER_MODES}, got {self.filter!r}")


@dataclass(frozen=True, slots=True)
class GuardVerdict:
    accepted: bool
    stage: str
    detail: str = ""
    query_text: Optional[str] = None
    answers: Optional[AnswerSet] = None


@dataclass
class GuardContext:
    snapshot: Snapshot
    entities: set[str]
    predicates: set[str]
    query: Union[str, Callable[[], str]]  # callable runs only after the filter passes
    executor: object  # .run(query_text) -> AnswerSet
    policy: GuardPolicy = field(default_factory=GuardPolicy)


def guard_pipeline(ctx: GuardContext) -> GuardVerdict:
    """Apply the configured stages in order; failures become verdicts."""
    checker = FILTER_CHECKERS.get(ctx.policy.filter)
    if checker is not None and checker(ctx.snapshot, ctx.entities, ctx.predicates):
        return GuardVerdict(
            accepted=False, stage=STAGE_FILTER,
            detail=(f"no selected entity relates to the selected predicates "
                    f"(entities={sorted(ctx.entities)}, "
                    f"predicates={sorted(ctx.predicates)})"),
        )
    if callable(ctx.query):
        try:
            query_text = ctx.query()
        except GenerationError as exc:
            return GuardVerdict(accepted=False, stage=STAGE_PARSE,
                                detail=f"no query generated: {exc}")
    else:
        query_text = ctx.query
    try:
        answers = ctx.executor.run(query_text)
    except QueryParseError as exc:
        return GuardVerdict(accepted=False, stage=STAGE_PARSE, detail=str(exc),
                            query_text=query_text)
    except ExecutionError as exc:
        return GuardVerdict(accepted=False, stage=STAGE_EXECUTION_ERROR,
                            detail=str(exc), query_text=query_text)
    if ctx.policy.execution and not answers.terms:
        return GuardVerdict(accepted=False, stage=STAGE_EMPTY,
                            detail="query returned no results",
                            query_text=query_text, answers=answers)
    return GuardVerdict(accepted=True, stage=STAGE_ACCEPTED,
                        query_text=query_text, answers=answers)


POLICY_COLUMNS = ("llm_rejection", "execution", "filtering_and_execution")


def _pct(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "n/a"
    return f"{100.0 * numerator / denominator:.1f}%"


def rejection_report(outcomes) -> list[dict]:
    """Per-dataset catch rates of each rejection policy.

    Each outcome must carry ``dataset``, ``correct``, ``llm_rejected``,
    ``execution_rejected`` and ``filter_rejected`` (see the rejection
    study runner). For every policy the report gives the share of
    incorrect generations it rejected, plus the false-rejection rate over
    correct generations. An outcome whose ``correct`` is None (its gold
    query failed) is in neither group.
    """
    by_dataset: dict[str, list] = {}
    for outcome in outcomes:
        by_dataset.setdefault(outcome.dataset, []).append(outcome)
    rows = []
    for dataset in sorted(by_dataset):
        group = by_dataset[dataset]
        incorrect = [o for o in group if o.correct is False]
        correct = [o for o in group if o.correct]
        flags = {
            "llm_rejection": lambda o: bool(o.llm_rejected),
            "execution": lambda o: bool(o.execution_rejected),
            "filtering_and_execution":
                lambda o: bool(o.filter_rejected) or bool(o.execution_rejected),
        }
        row = {"dataset": dataset, "n": len(group), "n_incorrect": len(incorrect)}
        for name, rejected in flags.items():
            row[name] = _pct(sum(1 for o in incorrect if rejected(o)), len(incorrect))
        for name, rejected in flags.items():
            row[f"false_rejection_{name}"] = _pct(
                sum(1 for o in correct if rejected(o)), len(correct))
        rows.append(row)
    return rows


def write_rejection_csv(rows, path) -> None:
    header = ["dataset", "n", "n_incorrect", *POLICY_COLUMNS,
              *[f"false_rejection_{c}" for c in POLICY_COLUMNS]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in header})
