"""BM25 indexing, search, reparametrized views, recall, sweeps and presets."""

import gc
import json
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest

from kgqa import cache, kgstore, retrieval
from kgqa.errors import DataError, IndexBuildError
from kgqa.kgstore import (
    EntityRecord,
    PredicateRecord,
    load_snapshot,
    prune_by_degree,
    snapshot_from_records,
)
from kgqa.retrieval import (
    Bm25Index,
    Bm25Params,
    CandidateSet,
    Hits,
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


def reference_postings(records, params):
    """Independent reference: the per-document ``Counter`` construction of
    every index array, term ids in order of first occurrence."""
    records = sorted(records, key=lambda r: r.id)
    term_ids, terms, counts, distinct, doc_len = {}, [], [], [], []
    for rec in records:
        tokens = tokenize(retrieval._document_text(rec))
        tf = Counter(tokens)
        terms.extend(term_ids.setdefault(tok, len(term_ids)) for tok in tf)
        counts.extend(tf.values())
        distinct.append(len(tf))
        doc_len.append(len(tokens))
    n = len(records)
    term_col = np.array(terms, dtype=np.int32)
    order = np.argsort(term_col, kind="stable")
    df = np.bincount(term_col, minlength=len(term_ids))
    avgdl = sum(doc_len) / n
    lengths = np.array(doc_len, dtype=np.int32)
    k1, b = params.k1, params.b
    if avgdl > 0:
        norm = k1 * (1.0 - b + b * lengths / avgdl)
    else:
        norm = np.full(n, k1 * (1.0 - b))
    return {
        "term_ids": list(term_ids.items()),
        "offsets": np.concatenate(([0], np.cumsum(df))),
        "docs": np.repeat(np.arange(n, dtype=np.int32), distinct)[order],
        "tfs": np.array(counts, dtype=np.float64)[order],
        "doc_len": lengths,
        "avgdl": avgdl,
        "norm": norm,
        "idf": np.array([math.log((n - d + 0.5) / (d + 0.5) + 1.0) for d in df.tolist()],
                        dtype=np.float64),
    }


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


# Unicode case folding (final sigma, dotted capital I), digits, underscores,
# punctuation and empty strings, so some documents have no tokens at all.
WORDS = ["ΟΔΟΣ", "Σ", "İstanbul", "straße", "Ǆemal", "x_1", "a1b2", "42", "2024",
         "Café", "café", "CAFÉ", "naïve", "日本語", "--", "?!", "", "alpha", "beta",
         "gamma", "delta", "alpha_beta"]


def random_records(rng, n_docs):
    def text(max_words):
        return " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, max_words)))
    return [EntityRecord(f"Q{i}", text(4), text(6),
                         tuple(text(2) for _ in range(rng.randint(0, 2))))
            for i in range(1, n_docs + 1)]


class TestBuild:
    @pytest.mark.parametrize("block", [1, 3, 16, 256])
    def test_matches_reference(self, monkeypatch, toy_snapshot, block, empty_cache):
        monkeypatch.setattr(retrieval, "_BLOCK_DOCS", block)
        rng = random.Random(20250807)
        corpora = [random_records(rng, rng.randint(1, 40)) for _ in range(25)] + [
            random_records(rng, 300),
            [EntityRecord("Q1", "?!"), EntityRecord("Q2", "--", "_")],
            [EntityRecord("Q1", "echo echo ECHO", "echo"), EntityRecord("Q2", "echo other")],
            list(toy_snapshot.entities.values()),
            list(toy_snapshot.predicates.values()),
        ]
        for records in corpora:
            params = Bm25Params(rng.choice([0.0, 1.2, 5.18]), rng.choice([0.0, 0.4, 1.0]))
            index = Bm25Index.build(records, params)
            expected = reference_postings(records, params)
            assert list(index.term_ids.items()) == expected.pop("term_ids")
            assert index.avgdl == expected.pop("avgdl")
            for name, array in expected.items():
                assert getattr(index, name).dtype == array.dtype, name
                assert np.array_equal(getattr(index, name), array), name
        # The corpora include one with no tokens at all and one whose
        # documents repeat a token.
        assert reference_postings(corpora[-4], params)["avgdl"] == 0
        assert reference_postings(corpora[-3], params)["tfs"].tolist() == [4.0, 1.0, 1.0]

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


INDEX_ARRAYS = ("offsets", "docs", "tfs", "doc_len", "idf", "norm")


def no_parse(*args):
    raise AssertionError("parsed the text files")


def no_tokenize(text):
    raise AssertionError("tokenized a document")


def warm_build(records, params, monkeypatch):
    """An index build that must come from the cache."""
    with monkeypatch.context() as m:
        m.setattr(retrieval, "tokenize", no_tokenize)
        return Bm25Index.build(records, params)


def assert_same_index(a, b, queries=()):
    assert list(a.term_ids.items()) == list(b.term_ids.items())
    assert a.avgdl == b.avgdl and a.doc_ids == b.doc_ids and a.kind == b.kind
    for name in INDEX_ARRAYS:
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for query in queries:
        assert a.search(query, 10) == b.search(query, 10)


def damage_index_entry(path, how):
    if how == "truncated":
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        return
    with np.load(path) as entry:
        arrays = dict(entry)
    if how == "wrong-version":
        arrays["format"] = np.array(retrieval.INDEX_FORMAT + 1)
    elif how == "short-idf":
        arrays["idf"] = arrays["idf"][:-1]
    elif how == "short-doc-len":
        arrays["doc_len"] = arrays["doc_len"][:-1]
    elif how == "doc-out-of-range":
        arrays["docs"] = arrays["docs"] + len(arrays["doc_len"])
    elif how == "decreasing-offsets":
        arrays["offsets"] = arrays["offsets"][::-1].copy()
    elif how == "float-docs":
        arrays["docs"] = arrays["docs"].astype(np.float64)
    elif how == "short-terms":
        arrays["terms_ends"] = arrays["terms_ends"][:-1]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def catalog_files(snapshot_files, records):
    """Snapshot files whose entity catalog is ``records``, with one
    predicate and no triples."""
    return snapshot_files([(r.id, r.label, r.description, list(r.aliases)) for r in records],
                          [("P1", "rel")], [])


class TestIndexCache:
    """An entity index over a loaded snapshot's catalog comes from its cache
    entry when the same files were indexed before, and equals a build that
    tokenizes; a damaged entry is rebuilt and rewritten. No other index is
    cached."""

    QUERIES = ["capital of Veltria", "Mira Okafor", "café naïve", "日本語 alpha", "oov"]

    def test_warm_build_equals_text_build(self, snapshot_files, empty_cache, monkeypatch):
        rng = random.Random(41)
        corpora = [random_records(rng, rng.randint(1, 40)) for _ in range(25)] + [
            random_records(rng, 600),
            [EntityRecord("Q1", "?!"), EntityRecord("Q2", "--", "_")],
            [EntityRecord("Q1", "a\x00b", "\ud800 x\udfff", ("", "\x00", "é😀"))],
        ]
        for records in corpora:
            catalog = load_snapshot(*catalog_files(snapshot_files, records)).entities.values()
            params = Bm25Params(rng.choice([0.0, 1.2, 5.18]), rng.choice([0.0, 0.4, 1.0]))
            text = Bm25Index.build(catalog, params)
            warm = warm_build(catalog, params, monkeypatch)
            assert_same_index(text, warm, self.QUERIES)
            assert_same_index(text.with_params(Bm25Params(0.7, 0.3)),
                              warm.with_params(Bm25Params(0.7, 0.3)), self.QUERIES)
            assert_same_index(text, Bm25Index.build(records, params), self.QUERIES)
        assert len(list(empty_cache.glob("bm25-*.npz"))) == len(corpora)

    def test_indexes_over_records_are_not_cached(self, toy_snapshot, empty_cache,
                                                 monkeypatch):
        monkeypatch.setattr(cache, "counts", Counter())
        params = Bm25Params(1.5, 0.75)
        queries = self.QUERIES + [p.label for p in toy_snapshot.predicates.values()]
        for catalog in (toy_snapshot.predicates.values(), list(toy_snapshot.entities.values()),
                        random_records(random.Random(43), 60)):
            first, second = Bm25Index.build(catalog, params), Bm25Index.build(catalog, params)
            assert isinstance(first.by_id, dict)
            assert_same_index(first, second)
            for query in queries:
                a, b = first.search(query, 100), second.search(query, 100)
                assert a.ids() == b.ids() and a.hits._scores == b.hits._scores
        assert list(empty_cache.glob("bm25-*.npz")) == []
        assert not [kind for kind, _ in cache.counts if kind == "bm25"]

    @pytest.mark.parametrize("how", ["truncated", "wrong-version", "short-idf", "short-doc-len",
                                     "doc-out-of-range", "decreasing-offsets", "float-docs",
                                     "short-terms"])
    def test_damaged_entry_falls_back_and_is_rewritten(self, snapshot_files, empty_cache,
                                                       monkeypatch, how):
        records = random_records(random.Random(43), 60)
        catalog = load_snapshot(*catalog_files(snapshot_files, records)).entities.values()
        params = Bm25Params(1.2, 0.75)
        text = Bm25Index.build(catalog, params)
        (entry,) = empty_cache.glob("bm25-*.npz")
        damage_index_entry(entry, how)
        calls = Counter()
        real = retrieval.tokenize
        with monkeypatch.context() as m:
            m.setattr(retrieval, "tokenize", lambda t: calls.update([t]) or real(t))
            again = Bm25Index.build(catalog, params)
        assert sum(calls.values()) == len(records)
        assert_same_index(text, again, self.QUERIES)
        assert list(empty_cache.glob("bm25-*.npz")) == [entry]
        assert_same_index(text, warm_build(catalog, params, monkeypatch), self.QUERIES)

    def test_regular_file_at_cache_path(self, snapshot_files, empty_cache):
        files = catalog_files(snapshot_files, random_records(random.Random(47), 30))
        empty_cache.write_bytes(b"not a directory")
        params = Bm25Params(1.2, 0.75)
        first = Bm25Index.build(load_snapshot(*files).entities.values(), params)
        again = Bm25Index.build(load_snapshot(*files).entities.values(), params)
        assert_same_index(first, again, self.QUERIES)
        assert empty_cache.read_bytes() == b"not a directory"
        assert [p.name for p in empty_cache.parent.iterdir()] == ["kgqa"]

    def test_one_changed_character_misses(self, snapshot_files, empty_cache):
        records = [EntityRecord("Q1", "alpha"), EntityRecord("Q2", "beta", "", ("gamma",))]
        params = Bm25Params(1.2, 0.75)
        before = Bm25Index.build(
            load_snapshot(*catalog_files(snapshot_files, records)).entities.values(), params)
        records[1] = EntityRecord("Q2", "beta", "", ("gammb",))
        after = Bm25Index.build(
            load_snapshot(*catalog_files(snapshot_files, records)).entities.values(), params)
        assert list(after.term_ids) == ["alpha", "beta", "gammb"]
        assert list(before.term_ids) == ["alpha", "beta", "gamma"]
        assert len(list(empty_cache.glob("bm25-*.npz"))) == 2


def hub_graph_files(snapshot_files, rng):
    """Snapshot files of 60 entities whose labels share a small vocabulary
    (so searches tie), listed out of id order; the first ten are hubs with
    degree 10 or more."""
    words = ["alpha", "beta", "gamma", "delta", "café", "naïve", "日本", "x1"]
    ids = [f"Q{i}" for i in range(1, 61)]
    entities = [(eid, " ".join(rng.choices(words, k=rng.randint(1, 3))),
                 rng.choice(["", "beta gamma", "the delta"]),
                 rng.choice([[], ["alpha"], ["x1 beta", "gamma"]]))
                for eid in rng.sample(ids, len(ids))]
    predicates = [(f"P{i}", f"rel{i}") for i in range(1, 15)]
    triples = [(f"Q{h}", f"P{p}", rng.choice(ids + ["lit"]))
               for h in range(1, 11) for p in range(1, rng.randint(11, 15))]
    triples += [(rng.choice(ids), rng.choice(predicates)[0], rng.choice(ids))
                for _ in range(80)]
    return snapshot_files(entities, predicates, triples)


def count_records():
    return sum(type(o) is EntityRecord for o in gc.get_objects())


class TestIndexOverCatalog:
    """An entity index over a loaded snapshot's catalog reads ids and records
    through its columns and equals an index over the same records."""

    QUERIES = ["alpha", "beta gamma", "café naïve 日本", "delta x1 alpha", "oov", "the"]

    @pytest.mark.parametrize("min_degree", [None, 10])
    def test_equals_an_index_over_the_records(self, snapshot_files, empty_cache,
                                              monkeypatch, min_degree):
        files = hub_graph_files(snapshot_files, random.Random(53))
        load_snapshot(*files)
        with monkeypatch.context() as m:
            m.setattr(kgstore, "_parse", no_parse)
            snap = load_snapshot(*files)
        pruned = None if min_degree is None else prune_by_degree(snap, min_degree)
        assert pruned is None or 10 <= len(pruned) < len(snap.entities)
        params = Bm25Params(1.5, 0.75)
        columns = Bm25Index.build(snap.entities.values(), params, pruned_ids=pruned)
        records = Bm25Index.build(list(snap.entities.values()), params, pruned_ids=pruned)
        assert isinstance(records.by_id, dict) and not isinstance(columns.by_id, dict)
        assert len(list(empty_cache.glob("bm25-*.npz"))) == 1
        assert_same_index(columns, records, self.QUERIES)
        for query in self.QUERIES:
            a, b = columns.search(query, 100), records.search(query, 100)
            assert a.ids() == b.ids() and a.hits._scores == b.hits._scores
        assert list(columns.by_id.items()) == list(records.by_id.items())
        assert len(columns.by_id) == len(records.by_id) == len(columns.doc_ids)
        for eid in snap.entities:
            assert (eid in columns.by_id) == (eid in records.by_id)
            if eid in records.by_id:
                assert columns.by_id[eid] is snap.entities[eid]
            else:
                assert columns.by_id.get(eid) is None
                with pytest.raises(KeyError):
                    columns.by_id[eid]
        assert "P1" not in columns.by_id and "Q404" not in columns.by_id

    def test_warm_builds_make_no_record_and_render_no_entity_text(self, snapshot_files,
                                                                 empty_cache, monkeypatch):
        files = hub_graph_files(snapshot_files, random.Random(59))
        params = Bm25Params(1.2, 0.75)
        cold = load_snapshot(*files)
        for pruned in (None, prune_by_degree(cold, 10)):
            Bm25Index.build(cold.entities.values(), params, pruned_ids=pruned)
        rendered, tokenized = Counter(), Counter()
        real_text, real_tokenize = retrieval._text, retrieval.tokenize
        before = count_records()
        with monkeypatch.context() as m:
            m.setattr(kgstore, "_parse", no_parse)
            m.setattr(retrieval, "tokenize", lambda t: tokenized.update([t]) or real_tokenize(t))
            m.setattr(retrieval, "_text", lambda *f: rendered.update([f[0]]) or real_text(*f))
            snap = load_snapshot(*files)
            indexes = [Bm25Index.build(snap.entities.values(), params,
                                       pruned_ids=prune_by_degree(snap, 10)),
                       Bm25Index.build(snap.entities.values(), params),
                       Bm25Index.build(snap.predicates.values(), params)]
        assert count_records() == before
        # Only the predicate index, which is not cached, renders and tokenizes its texts.
        assert rendered == Counter(p.label for p in snap.predicates.values())
        assert tokenized == Counter(map(retrieval._document_text, snap.predicates.values()))
        assert indexes[0].search("alpha", 5).ids() == \
            Bm25Index.build(list(cold.entities.values()), params,
                            pruned_ids=prune_by_degree(cold, 10)).search("alpha", 5).ids()

    def test_key_follows_the_kept_rows_and_the_files(self, snapshot_files, empty_cache):
        files = hub_graph_files(snapshot_files, random.Random(61))
        params = Bm25Params(1.2, 0.75)
        snap = load_snapshot(*files)
        for pruned in (None, prune_by_degree(snap, 10), prune_by_degree(snap, 10),
                       set(list(snap.entities)[:5]), set(snap.entities)):
            Bm25Index.build(snap.entities.values(), params, pruned_ids=pruned)
        # All ids and no pruning keep the same rows, so they share an entry.
        assert len(list(empty_cache.glob("bm25-*.npz"))) == 3
        data = files[0].read_text(encoding="utf-8")
        files[0].write_text(data.replace("alpha", "omega"), encoding="utf-8")
        changed = load_snapshot(*files)
        index = Bm25Index.build(changed.entities.values(), params)
        assert "omega" in index.term_ids and "alpha" not in index.term_ids
        assert len(list(empty_cache.glob("bm25-*.npz"))) == 4

    def test_catalogs_without_content_key_take_the_column_path(self, snapshot_files,
                                                               empty_cache, monkeypatch):
        """A catalog built from records, or one whose files changed while it
        was parsed, has no content key: its index reads through the catalog's
        columns like any other and writes no entry."""
        files = hub_graph_files(snapshot_files, random.Random(67))
        loaded = load_snapshot(*files)
        entries = sorted(empty_cache.iterdir())
        monkeypatch.setattr(loaded.entities, "content_key", None)
        built = snapshot_from_records(list(loaded.entities.values()),
                                      list(loaded.predicates.values()), list(loaded.triples))
        assert built.entities.content_key is None
        params = Bm25Params(1.2, 0.75)
        for min_degree in (None, 10):
            pruned = None if min_degree is None else prune_by_degree(loaded, min_degree)
            expected = Bm25Index.build(list(loaded.entities.values()), params, pruned_ids=pruned)
            for snap in (loaded, built):
                index = Bm25Index.build(snap.entities.values(), params, pruned_ids=pruned)
                assert not isinstance(index.by_id, dict)
                assert list(index.by_id) == index.doc_ids
                assert all(index.by_id[eid] is snap.entities[eid] for eid in index.doc_ids)
                assert_same_index(index, expected, self.QUERIES)
        assert sorted(empty_cache.iterdir()) == entries


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


class TestWithParams:
    GRID = [Bm25Params(k1, b) for k1 in (0.0, 0.1, 1.2, 2.95, 5.18)
            for b in (0.0, 0.01, 0.4, 0.75, 1.0)]

    @staticmethod
    def _assert_same_as_fresh(records, base, queries):
        for params in TestWithParams.GRID:
            view = base.with_params(params)
            fresh = Bm25Index(records, params, "predicate")
            assert view.params == params
            assert np.array_equal(view.norm, fresh.norm)
            for query in queries:
                for k in (1, 3, 10, 100):
                    assert view.search(query, k) == fresh.search(query, k)

    def test_matches_fresh_build_on_random_corpora(self):
        # The corpora, base params and queries of
        # TestSearch.test_matches_reference_on_random_corpora.
        rng = random.Random(20240501)
        for _ in range(30):
            doc_tokens = random_corpus(rng)
            params = Bm25Params(rng.choice([0.1, 0.9, 1.2, 2.95, 5.18]),
                                rng.choice([0.0, 0.01, 0.4, 0.75, 1.0]))
            records = [PredicateRecord(f"D{i:03d}", " ".join(t), "")
                       for i, t in enumerate(doc_tokens)]
            base = Bm25Index(records, params, "predicate")
            queries = [" ".join([rng.choice([t for d in doc_tokens for t in d] + ["oov"])
                                 for _ in range(rng.randint(1, 4))])
                       for _ in range(5)]
            self._assert_same_as_fresh(records, base, queries)

    def test_matches_fresh_build_with_zero_avgdl(self):
        # Documents with no tokens at all: avgdl is 0 and every score is 0.
        records = [PredicateRecord("P1", "?!", ""), PredicateRecord("P2", "--", "")]
        base = Bm25Index(records, Bm25Params(1.5, 0.75), "predicate")
        assert base.avgdl == 0
        self._assert_same_as_fresh(records, base, ["anything", "?!"])

    def test_shares_postings_and_leaves_base_alone(self):
        records = [EntityRecord("Q1", "alpha beta"), EntityRecord("Q2", "alpha")]
        base = Bm25Index.build(records, Bm25Params(1.5, 0.75))
        norm = base.norm.copy()
        view = base.with_params(Bm25Params(0.5, 0.0))
        for name in ("term_ids", "offsets", "docs", "tfs", "idf", "by_id", "doc_ids",
                     "doc_len"):
            assert getattr(view, name) is getattr(base, name)
        assert base.params == Bm25Params(1.5, 0.75)
        assert np.array_equal(base.norm, norm)


    def test_kept_contributions_match_fresh_build_bit_for_bit(self):
        rng = random.Random(4242)
        doc_tokens = random_corpus(rng, max_docs=40)
        records = [PredicateRecord(f"D{i:03d}", " ".join(t), "")
                   for i, t in enumerate(doc_tokens)]
        base = Bm25Index(records, Bm25Params(1.5, 0.75), "predicate")
        queries = [" ".join(d[:3]) for d in doc_tokens[:5]]
        before = [base.search(query, 50) for query in queries]
        for params in self.GRID:
            view = base.with_params(params)
            fresh = Bm25Index(records, params, "predicate")
            for query in queries:
                got, want = view.search(query, 50).hits, fresh.search(query, 50).hits
                assert [s for _, s in got] == [s for _, s in want]
            assert view._term_weights.keys() == fresh._term_weights.keys()
            for t, (ids, weights) in view._term_weights.items():
                assert np.array_equal(ids, fresh._term_weights[t][0])
                assert weights.tobytes() == fresh._term_weights[t][1].tobytes()
        # The views kept their own contributions; the base scores as before.
        assert [base.search(query, 50) for query in queries] == before

    def test_kept_contributions_are_the_scalar_formula(self):
        records = [PredicateRecord("P1", "red apple"),
                   PredicateRecord("P2", "green apple pie apple")]
        index = Bm25Index(records, Bm25Params(1.2, 0.6), "predicate")
        k1, b = index.params.k1, index.params.b
        for t in index.term_ids.values():
            ids, weights = index._weights(t)
            assert index._weights(t)[1] is weights  # computed once
            for d, tf, weight in zip(ids.tolist(), index.tfs[index.offsets[t]:].tolist(),
                                     weights.tolist()):
                norm = k1 * (1.0 - b + b * int(index.doc_len[d]) / index.avgdl)
                assert weight == float(index.idf[t]) * (tf * (k1 + 1.0)) / (tf + norm)


class TestHits:
    """``CandidateSet.hits`` keeps the contract of a tuple of (id, score)."""

    PAIRS = (("Q10", 2.5), ("Q2", 2.5), ("Q9", 0.125))

    def test_reads_like_a_tuple_of_pairs(self):
        hits = Hits([i for i, _ in self.PAIRS], [s for _, s in self.PAIRS])
        assert len(hits) == 3 and bool(hits)
        assert list(hits) == list(self.PAIRS)
        assert hits[0] == ("Q10", 2.5) and hits[-1] == ("Q9", 0.125)
        assert hits[1:] == self.PAIRS[1:] and type(hits[1:]) is tuple
        assert hits[::-1] == self.PAIRS[::-1]
        assert dict(hits) == dict(self.PAIRS)
        assert ("Q2", 2.5) in hits and ("Q2", 1.0) not in hits
        with pytest.raises(IndexError):
            hits[3]
        assert all(type(score) is float for _, score in hits)
        assert type(hits[0][1]) is float

    def test_equality_and_hash(self):
        hits = Hits([i for i, _ in self.PAIRS], [s for _, s in self.PAIRS])
        assert hits == self.PAIRS and self.PAIRS == hits
        assert hash(hits) == hash(self.PAIRS)
        assert hits != self.PAIRS[:2] and hits != list(self.PAIRS)
        assert Hits([], []) == () and not Hits([], [])
        same = Hits(["Q10", "Q2", "Q9"], [2.5, 2.5, 0.125])
        assert hits == same and hash(hits) == hash(same)
        assert hits != Hits(["Q10", "Q2", "Q9"], [2.5, 2.5, 0.25])
        candidates = CandidateSet(query="q", kind="entity", hits=hits)
        assert hash(candidates) == hash(CandidateSet(query="q", kind="entity",
                                                     hits=self.PAIRS))
        assert candidates == CandidateSet(query="q", kind="entity", hits=self.PAIRS)
        assert pickle.loads(pickle.dumps(hits)) == hits

    def test_scores_are_not_tracked_by_the_collector(self):
        index = Bm25Index.build([EntityRecord("Q1", "alpha"), EntityRecord("Q2", "alpha beta")],
                                Bm25Params(1.2, 0.75))
        for hits in (Hits([i for i, _ in self.PAIRS], [s for _, s in self.PAIRS]),
                     index.search("alpha", 10).hits, Hits([], [])):
            assert gc.is_tracked(hits._scores) is False

    def test_search_scores_and_json_match_the_tuple_form(self):
        records = [EntityRecord(f"Q{i}", f"doc shared tok{i} " * (i % 3 + 1))
                   for i in range(1, 30)]
        index = Bm25Index.build(records, Bm25Params(1.2, 0.6))
        hits = index.search("shared tok3 tok7", 10).hits
        assert isinstance(hits, Hits)
        pairs = tuple((i, s) for i, s in hits)
        assert hits == pairs
        assert all(type(score) is float for _, score in hits)
        assert json.dumps([[i, s] for i, s in hits]) == \
            json.dumps([[i, s] for i, s in pairs])
        assert repr(hits) == f"Hits({pairs!r})"


class TestSweep:
    def test_degenerate_grid(self):
        index = Bm25Index.build([EntityRecord("Q1", "alpha")], Bm25Params(1.5, 0.75))
        result = sweep(index, [("alpha", {"Q1"})], [1.3], [0.2], 5)
        assert result.best == Bm25Params(1.3, 0.2)
        assert result.table == ((1.3, 0.2, 1.0),)

    def test_length_normalization_cell_wins(self):
        # Gold doc is long: with b=1 the length penalty drops it out of the
        # top-1; with b=0 it ties on score and wins the id tie-break.
        records = [
            PredicateRecord("P1", " ".join(["goal"] + [f"x{i}" for i in range(30)])),
            PredicateRecord("P2", "goal"),
        ]
        index = Bm25Index(records, Bm25Params(1.5, 0.75), "predicate")
        examples = [("goal", {"P1"})]
        result = sweep(index, examples, [1.2], [0.0, 1.0], 1)
        table = dict(((k1, b), r) for k1, b, r in result.table)
        assert table[(1.2, 0.0)] == 1.0
        assert table[(1.2, 1.0)] == 0.0
        assert result.best == Bm25Params(1.2, 0.0)

    def test_tie_break_smaller_pair(self):
        index = Bm25Index.build([EntityRecord("Q1", "alpha")], Bm25Params(1.5, 0.75))
        result = sweep(index, [("alpha", {"Q1"})], [2.0, 0.5], [0.4, 0.1], 3)
        assert result.best == Bm25Params(0.5, 0.1)

    def test_grid_order_of_table(self):
        index = Bm25Index.build([EntityRecord("Q1", "alpha")], Bm25Params(1.5, 0.75))
        result = sweep(index, [("alpha", {"Q1"})], [1.0, 2.0], [0.1, 0.2], 3)
        assert [(k1, b) for k1, b, _ in result.table] == \
            [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]

    def test_nothing_to_score_is_data_error(self):
        index = Bm25Index.build([EntityRecord("Q1", "alpha")], Bm25Params(1.5, 0.75))
        with pytest.raises(DataError):
            sweep(index, [("alpha", set()), ("beta", set())], [1.0], [0.5], 3)

    def test_tokenizes_each_document_once(self, monkeypatch, toy_snapshot, empty_cache):
        calls = Counter()
        real = retrieval.tokenize

        def counting(text):
            calls[text] += 1
            return real(text)

        monkeypatch.setattr(retrieval, "tokenize", counting)
        records = list(toy_snapshot.entities.values())
        index = Bm25Index.build(records, Bm25Params(1.5, 0.75))
        examples = [("capital of Veltria", {"Q2"}), ("Mira Okafor", {"Q14"})]
        k1_grid, b_grid = [0.5, 1.0, 2.0], [0.0, 0.5, 1.0]
        sweep(index, examples, k1_grid, b_grid, 10)
        cells = len(k1_grid) * len(b_grid)
        docs = Counter(retrieval._document_text(r) for r in records)
        assert calls == docs + Counter({q: cells for q, _ in examples})
