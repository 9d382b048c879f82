"""Execution-match metric formulas, conventions, and properties."""

import random

import pytest

from kgqa.metrics import score
from kgqa.sparql.answers import AnswerSet


def answers(*terms):
    return AnswerSet(terms=frozenset(terms))


class TestWorkedExamples:
    def test_identity(self):
        record = score(answers("Q1", "Q2"), answers("Q1", "Q2"))
        assert (record.precision, record.recall, record.f1, record.acc_at_1) == \
            (1.0, 1.0, 1.0, 1)

    def test_superset_prediction(self):
        record = score(answers("Q1", "Q2"), answers("Q1", "Q2", "Q3"))
        assert record.precision == pytest.approx(2 / 3, abs=1e-12)
        assert record.recall == 1.0
        assert record.f1 == pytest.approx(0.8, abs=1e-12)
        assert record.acc_at_1 == 1  # full gold coverage suffices

    def test_disjoint(self):
        record = score(answers("Q1", "Q2"), answers("Q3"))
        assert (record.precision, record.recall, record.f1, record.acc_at_1) == \
            (0.0, 0.0, 0.0, 0)


class TestEmptySetConventions:
    def test_both_empty(self):
        record = score(answers(), answers())
        assert (record.precision, record.recall, record.f1, record.acc_at_1) == \
            (1.0, 1.0, 1.0, 1)

    def test_empty_gold_nonempty_prediction(self):
        # The bare indicator would fire here; deliberately scored as wrong.
        record = score(answers(), answers("Q1"))
        assert (record.precision, record.recall, record.f1, record.acc_at_1) == \
            (0.0, 0.0, 0.0, 0)

    def test_nonempty_gold_empty_prediction(self):
        record = score(answers("Q1"), answers())
        assert (record.precision, record.recall, record.f1, record.acc_at_1) == \
            (0.0, 0.0, 0.0, 0)


def random_pair(rng):
    universe = [f"Q{i}" for i in range(1, 12)]
    gold = frozenset(rng.sample(universe, rng.randint(0, 6)))
    predicted = frozenset(rng.sample(universe, rng.randint(0, 6)))
    return AnswerSet(terms=gold), AnswerSet(terms=predicted)


class TestProperties:
    def test_symmetry_swaps_p_and_r(self):
        rng = random.Random(8)
        for _ in range(2000):
            gold, predicted = random_pair(rng)
            forward = score(gold, predicted)
            backward = score(predicted, gold)
            assert forward.precision == backward.recall
            assert forward.recall == backward.precision
            assert forward.f1 == backward.f1

    def test_f1_zero_iff_no_intersection(self):
        rng = random.Random(9)
        for _ in range(2000):
            gold, predicted = random_pair(rng)
            if not gold.terms and not predicted.terms:
                continue
            record = score(gold, predicted)
            assert (record.f1 == 0.0) == (not gold.terms & predicted.terms)

    def test_acc_iff_full_recall(self):
        rng = random.Random(10)
        for _ in range(2000):
            gold, predicted = random_pair(rng)
            record = score(gold, predicted)
            assert (record.acc_at_1 == 1) == (record.recall == 1.0)

    def test_bounds(self):
        rng = random.Random(11)
        for _ in range(1000):
            gold, predicted = random_pair(rng)
            record = score(gold, predicted)
            assert 0.0 <= record.precision <= 1.0
            assert 0.0 <= record.recall <= 1.0
            assert 0.0 <= record.f1 <= 1.0
            assert record.acc_at_1 in (0, 1)
