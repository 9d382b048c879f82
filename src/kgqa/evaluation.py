"""Dataset loading, end-to-end scoring, and split tooling.

Datasets are JSON Lines with keys id, question, sparql, entities, split
(plus optional predicates, dataset, answers), read by the catalogs' reader
``kgstore.read_jsonl``, so a malformed line is reported as in a catalog.
Reports are macro-averaged per dataset over the questions whose gold query
ran; the others are counted apart. Every question also leaves a JSON trace
line. Gold answer sets come from executing the gold query once;
`evaluate_end_to_end` keeps them on the examples and `gold_cache.json`
records them.
"""

import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from kgqa.errors import ConfigError, LoadError
from kgqa.ids import is_entity_id
from kgqa.kgstore import read_jsonl
from kgqa.pipeline import PipelineConfig, PipelineOutcome, run_example
from kgqa.sparql.answers import AnswerSet

STAGE_COLUMNS = ("pre-generation-filter", "parse", "execution-error", "empty-result")


@dataclass
class QaExample:
    id: str
    question: str
    gold_query: str
    gold_entities: set[str]
    gold_predicates: set[str] = field(default_factory=set)
    gold_answers: Optional[AnswerSet] = None
    dataset: str = "default"
    split: str = "test"


@dataclass(frozen=True)
class DatasetLoadResult:
    examples: tuple[QaExample, ...]
    line_errors: tuple[tuple[int, str], ...]
    split_counts: dict[str, int]


_REQUIRED_KEYS = ("id", "question", "sparql", "entities", "split")
# Fields that must hold a string when present; ``dataset`` is optional.
_STRING_KEYS = ("id", "question", "sparql", "split", "dataset")


def _string_array(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_dataset(path) -> DatasetLoadResult:
    """Load examples, tolerating bad lines; fails only when nothing loads.
    Each line error is (line number, message), in line order."""
    examples = []
    offenders: list[tuple[str, int, str]] = []
    split_counts: dict[str, int] = {}
    where = str(path)
    for lineno, obj in read_jsonl(path, _REQUIRED_KEYS, offenders):
        wrong = next((key for key in _STRING_KEYS
                      if not isinstance(obj.get(key, ""), str)), None)
        if wrong:
            offenders.append((where, lineno, f"{wrong} must be a string"))
            continue
        if not obj["question"] or not obj["sparql"]:
            offenders.append((where, lineno, "question and sparql must be non-empty"))
            continue
        answers = obj.get("answers")
        arrays = (("entities", obj["entities"]), ("predicates", obj.get("predicates", [])),
                  ("answers", [] if answers is None else answers))
        wrong = next((key for key, value in arrays if not _string_array(value)), None)
        if wrong:
            offenders.append((where, lineno, f"{wrong} must be an array of strings"))
            continue
        entities = set(obj["entities"])
        bad = [e for e in entities if not is_entity_id(e)]
        if bad:
            offenders.append((where, lineno, f"bad entity ids: {', '.join(sorted(bad))}"))
            continue
        # Every row repeats its dataset and split names: one string each.
        example = QaExample(
            id=obj["id"],
            question=obj["question"],
            gold_query=obj["sparql"],
            gold_entities=entities,
            gold_predicates=set(obj.get("predicates", ())),
            gold_answers=AnswerSet.of(answers) if answers is not None else None,
            dataset=sys.intern(obj.get("dataset", "default")),
            split=sys.intern(obj["split"]),
        )
        examples.append(example)
        split_counts[example.split] = split_counts.get(example.split, 0) + 1
    if not examples:
        raise LoadError(f"{path}: no valid examples", offenders)
    return DatasetLoadResult(examples=tuple(examples),
                             line_errors=tuple((no, msg) for _, no, msg in offenders),
                             split_counts=split_counts)


@dataclass(frozen=True)
class DatasetReportRow:
    dataset: str
    n: int
    f1: float
    acc_at_1: float
    rejected_pct: float
    stage_tallies: dict[str, int]
    n_gold_error: int = 0  # questions left out of f1 and acc_at_1


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[DatasetReportRow, ...]
    outcomes: tuple[PipelineOutcome, ...]


def evaluate_end_to_end(examples: Sequence[QaExample], cfg: PipelineConfig) -> EvalReport:
    """Run the full pipeline per example and macro-average per dataset."""
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(lambda ex: run_example(ex, cfg), examples))
    else:
        outcomes = [run_example(ex, cfg) for ex in examples]
    # run_example only reads its example. The gold answers are kept on the
    # examples here, on the caller's thread once every question is done, so
    # a later run over the same examples reuses them.
    for example, outcome in zip(examples, outcomes):
        if example.gold_answers is None and not outcome.gold_error:
            example.gold_answers = AnswerSet(frozenset(outcome.gold_answers))
    outcomes.sort(key=lambda o: (o.dataset, o.question_id))

    by_dataset: dict[str, list[PipelineOutcome]] = {}
    for outcome in outcomes:
        by_dataset.setdefault(outcome.dataset, []).append(outcome)
    rows = []
    for dataset in sorted(by_dataset):
        group = by_dataset[dataset]
        n = len(group)
        scored = [o for o in group if not o.gold_error]
        f1 = sum(o.metrics.f1 for o in scored) / len(scored) if scored else 0.0
        acc = sum(o.metrics.acc_at_1 for o in scored) / len(scored) if scored else 0.0
        rejected = [o for o in group if o.verdict is not None and not o.verdict.accepted]
        tallies = {stage: 0 for stage in STAGE_COLUMNS}
        for outcome in rejected:
            if outcome.verdict.stage in tallies:
                tallies[outcome.verdict.stage] += 1
        rows.append(DatasetReportRow(
            dataset=dataset, n=n, f1=f1, acc_at_1=acc,
            rejected_pct=100.0 * len(rejected) / n, stage_tallies=tallies,
            n_gold_error=n - len(scored),
        ))
    return EvalReport(rows=tuple(rows), outcomes=tuple(outcomes))


def write_report_csv(report: EvalReport, path) -> None:
    header = ["dataset", "n", "f1", "acc_at_1", "rejected_pct"]
    header += [f"n_{stage}" for stage in STAGE_COLUMNS]
    header.append("n_gold_error")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in report.rows:
            writer.writerow([
                row.dataset, row.n, f"{row.f1:.6f}", f"{row.acc_at_1:.6f}",
                f"{row.rejected_pct:.2f}",
                *[row.stage_tallies[stage] for stage in STAGE_COLUMNS],
                row.n_gold_error,
            ])


def outcome_to_dict(outcome: PipelineOutcome) -> dict:
    verdict = outcome.verdict
    return {
        "question_id": outcome.question_id,
        "dataset": outcome.dataset,
        "question": outcome.question,
        "entity_candidates": [[i, s] for i, s in outcome.entity_candidates],
        "predicate_candidates": [[i, s] for i, s in outcome.predicate_candidates],
        "entities_selected": list(outcome.entities_selected),
        "predicates_selected": list(outcome.predicates_selected),
        "query_text": outcome.query_text,
        "verdict": None if verdict is None else {
            "accepted": verdict.accepted, "stage": verdict.stage,
            "detail": verdict.detail,
        },
        "answers": list(outcome.answers),
        "gold_answers": list(outcome.gold_answers),
        "metrics": None if outcome.metrics is None else {
            "precision": outcome.metrics.precision, "recall": outcome.metrics.recall,
            "f1": outcome.metrics.f1, "acc_at_1": outcome.metrics.acc_at_1,
        },
        "llm_rejected": outcome.llm_rejected,
        "error": outcome.error,
        "correct": outcome.correct,
        "execution_rejected": outcome.execution_rejected,
        "filter_rejected": outcome.filter_rejected,
    }


def write_trace_jsonl(outcomes, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for outcome in outcomes:
            fh.write(json.dumps(outcome_to_dict(outcome), ensure_ascii=False,
                                sort_keys=True) + "\n")


def write_gold_cache(outcomes, path) -> None:
    """Write each outcome's gold answer set, keyed by question id, leaving out
    questions whose gold query failed; the file depends only on the answers,
    so identical runs write identical bytes."""
    payload = {
        "answers": {
            o.question_id: list(o.gold_answers) for o in outcomes if not o.gold_error
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def make_generalization_splits(datasets: dict[str, Sequence[QaExample]],
                               held_out: str):
    """Train on every other dataset's train split, test on the held-out
    dataset's test split."""
    if held_out not in datasets:
        raise ConfigError(
            f"unknown held-out dataset {held_out!r}; have {sorted(datasets)}")
    train = []
    for name in sorted(datasets):
        if name == held_out:
            continue
        train.extend(ex for ex in datasets[name] if ex.split == "train")
    train.sort(key=lambda ex: (ex.dataset, ex.id))
    test = [ex for ex in datasets[held_out] if ex.split == "test"]
    return train, test
