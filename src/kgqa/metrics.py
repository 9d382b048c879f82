"""Execution-match metrics over gold and predicted answer sets.

With C the intersection of gold T and predicted P: precision = |C|/|P|,
recall = |C|/|T|, F1 = 2pr/(p+r), and Acc@1 fires iff the intersection
covers all of T. Empty-set conventions: both empty counts as a correct
"no answer" (all ones); predicting answers for an empty gold set scores
zero, including Acc@1 (deliberately overriding the bare indicator, which
would fire vacuously); predicting nothing for a non-empty gold set scores
zero.
"""

from dataclasses import dataclass

from kgqa.sparql.answers import AnswerSet


@dataclass(frozen=True)
class MetricRecord:
    precision: float
    recall: float
    f1: float
    acc_at_1: int


def score(gold: AnswerSet, predicted: AnswerSet) -> MetricRecord:
    gold_terms = gold.terms
    predicted_terms = predicted.terms
    if not gold_terms and not predicted_terms:
        return MetricRecord(1.0, 1.0, 1.0, 1)
    if not gold_terms:
        return MetricRecord(0.0, 0.0, 0.0, 0)
    if not predicted_terms:
        return MetricRecord(0.0, 0.0, 0.0, 0)
    common = len(gold_terms & predicted_terms)
    precision = common / len(predicted_terms)
    recall = common / len(gold_terms)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    acc = 1 if common == len(gold_terms) else 0
    return MetricRecord(precision, recall, f1, acc)

