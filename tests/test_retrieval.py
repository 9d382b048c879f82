"""BM25 indexing, search, recall, sweeps, presets, and persistence."""

import json
import math
import random
from collections import Counter

import pytest

from kgqa.errors import DataError, IndexBuildError, LoadError
from kgqa.kgstore import EntityRecord, PredicateRecord
from kgqa.retrieval import (
    INDEX_FORMAT,
    INDEX_VERSION,
    Bm25Index,
    Bm25Params,
    PRESETS,
    recall_at_k,
    sweep,
    tokenize,
)


def reference_rank(doc_tokens, query_tokens, k1, b, k):
    """Independent reference: score every document from raw term counts.

    Same variant as the implementation is meant to use: idf is
    ln((N - df + 0.5)/(df + 0.5) + 1); query tokens are summed in order
    including duplicates; zero-score docs are dropped; ties break by
    ascending doc id. Doc ids are the list index rendered as D<i>.
    """
    n = len(doc_tokens)
    avgdl = sum(len(d) for d in doc_tokens) / n
    df = Counter()
    for tokens in doc_tokens:
        for term in set(tokens):
            df[term] += 1
    scored = []
    for i, tokens in enumerate(doc_tokens):
        counts = Counter(tokens)
        dl = len(tokens)
        score = 0.0
        for term in query_tokens:
            tf = counts.get(term, 0)
            if tf == 0 or df[term] == 0:
                continue
            idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
            score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        if score > 0.0:
            scored.append((f"D{i:03d}", score))
    scored.sort(key=lambda h: (-h[1], h[0]))
    return scored[:k]


def index_from_token_docs(doc_tokens, params):
    records = [PredicateRecord(f"P{i + 1}", " ".join(tokens) or "emptydoc", "")
               for i, tokens in enumerate(doc_tokens)]
    return Bm25Index(records, params, "predicate")


def random_corpus(rng, max_docs=50, max_terms=8, vocab_size=30):
    vocab = [f"term{i}" for i in range(vocab_size)]
    n_docs = rng.randint(2, max_docs)
    return [
        [rng.choice(vocab) for _ in range(rng.randint(1, max_terms))]
        for _ in range(n_docs)
    ]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bm25Params(-0.1, 0.5)
        with pytest.raises(ValueError):
            Bm25Params(1.0, 1.5)
        with pytest.raises(ValueError):
            Bm25Params(1.0, -0.01)
        assert Bm25Params(5.18, 0.01).k1 == 5.18  # large k1 is legitimate

    def test_presets_verbatim(self):
        assert PRESETS["qald10"].entity == Bm25Params(2.95, 0.2)
        assert PRESETS["qald10"].predicate == Bm25Params(5.18, 0.01)
        assert PRESETS["lcquad2"].entity == Bm25Params(2.45, 0.2)
        assert PRESETS["lcquad2"].predicate == Bm25Params(2.95, 0.01)
        assert PRESETS["rubq2"].entity == Bm25Params(1.39, 0.4)
        assert PRESETS["rubq2"].predicate == Bm25Params(2.0, 0.01)
        assert PRESETS["pat"].entity == Bm25Params(1.0, 0.7)
        assert PRESETS["pat"].predicate == Bm25Params(0.1, 0.01)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Paris, the Capital-City (of France)!") == \
            ["paris", "the", "capital", "city", "of", "france"]

    def test_underscore_splits(self):
        assert tokenize("a_b c") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("?! --") == []


class TestSearch:
    def test_exact_label_ranks_first(self):
        records = [EntityRecord("Q1", "paris"), EntityRecord("Q2", "london"),
                   EntityRecord("Q3", "berlin")]
        index = Bm25Index.build(records, Bm25Params(1.5, 0.75))
        assert index.search("paris", 3).ids() == ["Q1"]

    def test_predicate_catalog_of_twelve(self, toy_snapshot):
        index = Bm25Index.build(toy_snapshot.predicates.values(), Bm25Params(2.0, 0.01))
        assert len(index.doc_ids) == 12

    def test_k_larger_than_corpus(self):
        records = [EntityRecord("Q1", "alpha beta"), EntityRecord("Q2", "alpha gamma")]
        index = Bm25Index.build(records, Bm25Params(1.2, 0.4))
        hits = index.search("alpha", 100).hits
        assert len(hits) == 2

    def test_out_of_vocabulary_query(self):
        records = [EntityRecord("Q1", "alpha"), EntityRecord("Q2", "beta")]
        index = Bm25Index.build(records, Bm25Params(1.2, 0.4))
        assert index.search("zzz unknown", 5).hits == ()

    def test_query_with_no_tokens(self):
        records = [EntityRecord("Q1", "alpha")]
        index = Bm25Index.build(records, Bm25Params(1.2, 0.4))
        result = index.search("?!", 5)
        assert result.hits == ()

    def test_capital_of_france_toy(self):
        records = [
            EntityRecord("Q90", "Paris", "capital of France"),
            EntityRecord("Q84", "London", "capital of the United Kingdom"),
            EntityRecord("Q64", "Berlin", "capital of Germany"),
            EntityRecord("Q142", "France", "country in Europe"),
        ]
        params = Bm25Params(1.5, 0.75)
        index = Bm25Index.build(records, params)
        got = index.search("capital of France", 4)
        doc_tokens = [tokenize(f"{r.label} {r.description}")
                      for r in sorted(records, key=lambda r: r.id)]
        expected = reference_rank(doc_tokens, tokenize("capital of France"),
                                  params.k1, params.b, 4)
        ids_sorted = [r.id for r in sorted(records, key=lambda r: r.id)]
        expected_ids = [ids_sorted[int(d[1:])] for d, _ in expected]
        assert got.ids() == expected_ids
        assert got.ids()[0] == "Q90"

    @pytest.mark.parametrize("k, expected", [
        (3, ["Q10", "Q2", "Q9"]),
        (2, ["Q10", "Q2"]),
    ], ids=["whole-tie", "tie-straddles-cut-off"])
    def test_tie_break_ascending_id(self, k, expected):
        records = [EntityRecord("Q9", "same words"), EntityRecord("Q10", "same words"),
                   EntityRecord("Q2", "same words")]
        index = Bm25Index.build(records, Bm25Params(1.2, 0.0))
        result = index.search("same", k)
        assert result.ids() == expected
        assert all(type(score) is float for _, score in result.hits)

    def test_hand_computed_score(self):
        # Corpus: "red apple", "green apple pie", "banana"; query "apple".
        # df=2, N=3, avgdl=2; doc 1 has tf=1, dl=2, so the saturation term is
        # (1*(k1+1))/(1 + k1*(1 - b + b*2/2)) = (k1+1)/(1+k1) = 1 and the
        # score reduces to idf = ln((3-2+0.5)/(2+0.5)+1) = ln(1.6).
        records = [PredicateRecord("P1", "red apple"),
                   PredicateRecord("P2", "green apple pie"),
                   PredicateRecord("P3", "banana")]
        index = Bm25Index(records, Bm25Params(1.5, 0.75), "predicate")
        hits = dict(index.search("apple", 3).hits)
        assert hits["P1"] == pytest.approx(math.log(1.6), abs=1e-9)

    def test_matches_reference_on_random_corpora(self):
        rng = random.Random(20240501)
        for _ in range(30):
            doc_tokens = random_corpus(rng)
            params = Bm25Params(rng.choice([0.1, 0.9, 1.2, 2.95, 5.18]),
                                rng.choice([0.0, 0.01, 0.4, 0.75, 1.0]))
            records = [PredicateRecord(f"D{i:03d}", " ".join(t), "")
                       for i, t in enumerate(doc_tokens)]
            index = Bm25Index(records, params, "predicate")
            for _ in range(5):
                query = [rng.choice([t for d in doc_tokens for t in d] + ["oov"])
                         for _ in range(rng.randint(1, 4))]
                expected = reference_rank(doc_tokens, query, params.k1, params.b, 10)
                got = index.search(" ".join(query), 10).hits
                assert [h[0] for h in got] == [h[0] for h in expected]
                for (_, a), (_, b) in zip(got, expected):
                    assert a == pytest.approx(b, rel=1e-12)

    def test_deterministic_output(self):
        records = [EntityRecord(f"Q{i}", f"doc shared tok{i}") for i in range(1, 8)]
        index = Bm25Index.build(records, Bm25Params(1.2, 0.6))
        first = index.search("shared tok3", 5)
        second = index.search("shared tok3", 5)
        assert first == second

    def test_concurrent_searches_agree(self, toy_snapshot):
        from concurrent.futures import ThreadPoolExecutor
        index = Bm25Index.build(toy_snapshot.entities.values(), Bm25Params(1.39, 0.4))
        queries = ["capital of Veltria", "Mira Okafor", "research vessel",
                   "glass foundry", "Lake Ondir"] * 8
        expected = [index.search(q, 10) for q in queries]
        fresh = Bm25Index.build(toy_snapshot.entities.values(), Bm25Params(1.39, 0.4))
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda q: fresh.search(q, 10), queries))
        assert got == expected

    def test_irrelevant_doc_never_intrudes_and_set_is_stable(self):
        rng = random.Random(99)
        for _ in range(20):
            doc_tokens = random_corpus(rng, max_docs=20)
            params = Bm25Params(1.2, rng.choice([0.0, 0.3, 0.75]))
            query = " ".join(doc_tokens[0][:2])
            base = index_from_token_docs(doc_tokens, params)
            before = base.search(query, 50)
            bigger = index_from_token_docs(
                doc_tokens + [["unrelatedzz", "fillerzz"]], params)
            after = bigger.search(query, 50)
            assert {h[0] for h in before.hits} == {h[0] for h in after.hits}

    def test_irrelevant_doc_preserves_order_without_length_norm(self):
        # With b=0 and a single-term query the idf is a common factor, so
        # relative order is provably stable under corpus growth.
        rng = random.Random(100)
        for _ in range(20):
            doc_tokens = random_corpus(rng, max_docs=20)
            params = Bm25Params(1.2, 0.0)
            query = doc_tokens[0][0]
            before = index_from_token_docs(doc_tokens, params).search(query, 50)
            after = index_from_token_docs(
                doc_tokens + [["unrelatedzz"]], params).search(query, 50)
            assert [h[0] for h in before.hits] == [h[0] for h in after.hits]

    def test_irrelevant_doc_can_reorder_via_length_normalization(self):
        # Characterization: with b > 0 the added document shifts avgdl, which
        # can flip the order of a short low-tf doc and a long high-tf doc.
        docs = [["target"],
                ["target"] * 9 + [f"pad{i}" for i in range(91)],
                ["other"]]
        params = Bm25Params(1.2, 0.75)
        before = index_from_token_docs(docs, params).search("target", 5).ids()
        grown = index_from_token_docs(
            docs + [[f"filler{i}" for i in range(400)]], params).search("target", 5).ids()
        assert before == ["P1", "P2"]
        assert grown == ["P2", "P1"]


class TestBuild:
    def test_empty_catalog(self):
        with pytest.raises(IndexBuildError):
            Bm25Index.build([], Bm25Params(1.2, 0.5))

    def test_empty_after_pruning(self):
        records = [EntityRecord("Q1", "a")]
        with pytest.raises(IndexBuildError):
            Bm25Index.build(records, Bm25Params(1.2, 0.5), pruned_ids=set())

    def test_pruned_ids_restrict_docs(self):
        records = [EntityRecord("Q1", "alpha"), EntityRecord("Q2", "alpha")]
        index = Bm25Index.build(records, Bm25Params(1.2, 0.5), pruned_ids={"Q2"})
        assert index.doc_ids == ["Q2"]


class TestRecall:
    def _index(self):
        records = [EntityRecord("Q1", "alpha"), EntityRecord("Q2", "beta"),
                   EntityRecord("Q3", "gamma")]
        return Bm25Index.build(records, Bm25Params(1.2, 0.5))

    def test_full_hit(self):
        result = recall_at_k(self._index(), [("alpha", {"Q1"})], 2)
        assert result.value == 1.0
        assert result.skipped == 0

    def test_half_hit(self):
        result = recall_at_k(self._index(), [("alpha", {"Q1", "Q2"})], 2)
        assert result.value == 0.5

    def test_empty_gold_skipped_and_tallied(self):
        result = recall_at_k(self._index(),
                             [("alpha", set()), ("beta", {"Q2"})], 2)
        assert result.value == 1.0
        assert result.evaluated == 1
        assert result.skipped == 1

    def test_unknown_gold_id_rejected(self):
        with pytest.raises(DataError):
            recall_at_k(self._index(), [("alpha", {"Q99"})], 2)

    def test_monotone_in_k(self):
        rng = random.Random(5)
        doc_tokens = random_corpus(rng, max_docs=30)
        index = index_from_token_docs(doc_tokens, Bm25Params(1.2, 0.5))
        examples = []
        for _ in range(10):
            i = rng.randrange(len(doc_tokens))
            examples.append((" ".join(doc_tokens[i][:3]), {f"P{i + 1}"}))
        previous = 0.0
        for k in (1, 2, 5, 10, 30):
            value = recall_at_k(index, examples, k).value
            assert value >= previous - 1e-12
            previous = value


class TestSweep:
    def test_degenerate_grid(self):
        records = [EntityRecord("Q1", "alpha")]

        def builder(params):
            return Bm25Index.build(records, params)

        result = sweep(builder, [("alpha", {"Q1"})], [1.3], [0.2], 5)
        assert result.best == Bm25Params(1.3, 0.2)
        assert result.table == ((1.3, 0.2, 1.0),)

    def test_length_normalization_cell_wins(self):
        # Gold doc is long: with b=1 the length penalty drops it out of the
        # top-1; with b=0 it ties on score and wins the id tie-break.
        records = [
            PredicateRecord("P1", " ".join(["goal"] + [f"x{i}" for i in range(30)])),
            PredicateRecord("P2", "goal"),
        ]

        def builder(params):
            return Bm25Index(records, params, "predicate")

        examples = [("goal", {"P1"})]
        result = sweep(builder, examples, [1.2], [0.0, 1.0], 1)
        table = dict(((k1, b), r) for k1, b, r in result.table)
        assert table[(1.2, 0.0)] == 1.0
        assert table[(1.2, 1.0)] == 0.0
        assert result.best == Bm25Params(1.2, 0.0)

    def test_tie_break_smaller_pair(self):
        records = [EntityRecord("Q1", "alpha")]

        def builder(params):
            return Bm25Index.build(records, params)

        result = sweep(builder, [("alpha", {"Q1"})], [2.0, 0.5], [0.4, 0.1], 3)
        assert result.best == Bm25Params(0.5, 0.1)

    def test_grid_order_of_table(self):
        records = [EntityRecord("Q1", "alpha")]

        def builder(params):
            return Bm25Index.build(records, params)

        result = sweep(builder, [("alpha", {"Q1"})], [1.0, 2.0], [0.1, 0.2], 3)
        assert [(k1, b) for k1, b, _ in result.table] == \
            [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]


_HEADER = {"format": INDEX_FORMAT, "version": INDEX_VERSION, "kind": "entity"}
_DOC = {"id": "Q1", "label": "alpha"}


class TestPersistence:
    def test_round_trip_search_identical(self, tmp_path, toy_snapshot):
        index = Bm25Index.build(toy_snapshot.entities.values(), Bm25Params(1.39, 0.4))
        path = tmp_path / "index.json"
        index.save(path)
        reloaded = Bm25Index.load(path)
        for query in ("capital of Veltria", "Mira Okafor", "research vessel"):
            assert index.search(query, 10) == reloaded.search(query, 10)

    def test_predicate_index_round_trip(self, tmp_path, toy_snapshot):
        index = Bm25Index.build(toy_snapshot.predicates.values(), Bm25Params(2.0, 0.01))
        path = tmp_path / "pindex.json"
        index.save(path)
        reloaded = Bm25Index.load(path)
        assert reloaded.kind == "predicate"
        for query in ("capital", "person who directed a film"):
            assert index.search(query, 12) == reloaded.search(query, 12)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(Exception) as err:
            Bm25Index.load(path)
        assert "format" in str(err.value)

    @pytest.mark.parametrize("payload", [
        {**_HEADER, "docs": [_DOC]},
        [_HEADER],
        {**_HEADER, "params": {"k1": 1.2, "b": 0.75}, "docs": [{"label": "alpha"}]},
        {**_HEADER, "params": {"k1": -1.0, "b": 0.75}, "docs": [_DOC]},
        {**_HEADER, "params": {"k1": 1.2, "b": 1.5}, "docs": [_DOC]},
        {**_HEADER, "kind": "bogus", "params": {"k1": 1.2, "b": 0.75}, "docs": [_DOC]},
    ], ids=["no-params", "top-level-list", "doc-without-id", "k1-out-of-range",
            "b-out-of-range", "unknown-kind"])
    def test_malformed_file_raises_load_error(self, tmp_path, payload):
        path = tmp_path / "index.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(LoadError) as err:
            Bm25Index.load(path)
        assert str(path) in str(err.value)
