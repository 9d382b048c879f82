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


@dataclass(frozen=True, slots=True)
class MetricRecord:
    precision: float
    recall: float
    f1: float
    acc_at_1: int


# Shared by every perfect and every zero score; records are immutable.
_PERFECT = MetricRecord(1.0, 1.0, 1.0, 1)
_ZERO = MetricRecord(0.0, 0.0, 0.0, 0)


def score(gold: AnswerSet, predicted: AnswerSet) -> MetricRecord:
    gold_terms = gold.terms
    predicted_terms = predicted.terms
    if not gold_terms and not predicted_terms:
        return _PERFECT
    if not gold_terms or not predicted_terms:
        return _ZERO
    common = len(gold_terms & predicted_terms)
    if common == 0:
        return _ZERO
    if common == len(gold_terms) == len(predicted_terms):
        return _PERFECT
    precision = common / len(predicted_terms)
    recall = common / len(gold_terms)
    f1 = 2 * precision * recall / (precision + recall)
    acc = 1 if common == len(gold_terms) else 0
    return MetricRecord(precision, recall, f1, acc)

