"""Dataset loading, end-to-end scoring, and split tooling.

Datasets are JSON Lines with keys id, question, sparql, entities, split
(plus optional predicates, dataset, answers). Reports are macro-averaged
per dataset; every question also leaves a JSON trace line. Gold answer
sets come from executing the gold query once and are cached.
"""

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from kgqa.errors import ConfigError, LoadError
from kgqa.ids import is_entity_id
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


def load_dataset(path, format: str = "jsonl") -> DatasetLoadResult:
    """Load examples, tolerating bad lines; fails only when nothing loads."""
    if format != "jsonl":
        raise ConfigError(f"unsupported dataset format {format!r}")
    examples = []
    line_errors = []
    split_counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                line_errors.append((lineno, f"invalid JSON: {exc.msg}"))
                continue
            missing = [k for k in _REQUIRED_KEYS if k not in obj]
            if missing:
                line_errors.append((lineno, f"missing keys: {', '.join(missing)}"))
                continue
            if not str(obj["question"]) or not str(obj["sparql"]):
                line_errors.append((lineno, "question and sparql must be non-empty"))
                continue
            entities = {str(e) for e in obj["entities"]}
            bad = [e for e in entities if not is_entity_id(e)]
            if bad:
                line_errors.append((lineno, f"bad entity ids: {', '.join(sorted(bad))}"))
                continue
            answers = obj.get("answers")
            example = QaExample(
                id=str(obj["id"]),
                question=str(obj["question"]),
                gold_query=str(obj["sparql"]),
                gold_entities=entities,
                gold_predicates={str(p) for p in obj.get("predicates", ())},
                gold_answers=AnswerSet.of(answers) if answers is not None else None,
                dataset=str(obj.get("dataset", "default")),
                split=str(obj["split"]),
            )
            examples.append(example)
            split_counts[example.split] = split_counts.get(example.split, 0) + 1
    if not examples:
        raise LoadError(f"{path}: no valid examples",
                        [(str(path), no, msg) for no, msg in line_errors])
    return DatasetLoadResult(examples=tuple(examples),
                             line_errors=tuple(line_errors),
                             split_counts=split_counts)


@dataclass(frozen=True)
class DatasetReportRow:
    dataset: str
    n: int
    f1: float
    acc_at_1: float
    rejected_pct: float
    stage_tallies: dict[str, int]


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
    outcomes.sort(key=lambda o: (o.dataset, o.question_id))

    by_dataset: dict[str, list[PipelineOutcome]] = {}
    for outcome in outcomes:
        by_dataset.setdefault(outcome.dataset, []).append(outcome)
    rows = []
    for dataset in sorted(by_dataset):
        group = by_dataset[dataset]
        n = len(group)
        f1 = sum(o.metrics.f1 for o in group) / n
        acc = sum(o.metrics.acc_at_1 for o in group) / n
        rejected = [o for o in group if o.verdict is not None and not o.verdict.accepted]
        tallies = {stage: 0 for stage in STAGE_COLUMNS}
        for outcome in rejected:
            if outcome.verdict.stage in tallies:
                tallies[outcome.verdict.stage] += 1
        rows.append(DatasetReportRow(
            dataset=dataset, n=n, f1=f1, acc_at_1=acc,
            rejected_pct=100.0 * len(rejected) / n, stage_tallies=tallies,
        ))
    return EvalReport(rows=tuple(rows), outcomes=tuple(outcomes))


def write_report_csv(report: EvalReport, path) -> None:
    header = ["dataset", "n", "f1", "acc_at_1", "rejected_pct"]
    header += [f"n_{stage}" for stage in STAGE_COLUMNS]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in report.rows:
            writer.writerow([
                row.dataset, row.n, f"{row.f1:.6f}", f"{row.acc_at_1:.6f}",
                f"{row.rejected_pct:.2f}",
                *[row.stage_tallies[stage] for stage in STAGE_COLUMNS],
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


def write_gold_cache(examples, path) -> None:
    """Write each example's gold answer set, keyed by question id; the file
    depends only on the answers, so identical runs write identical bytes."""
    payload = {
        "answers": {
            ex.id: sorted(ex.gold_answers.terms)
            for ex in examples if ex.gold_answers is not None
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
