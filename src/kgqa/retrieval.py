"""BM25 retrieval over entity and predicate catalogs.

Scoring variant: Okapi with the non-negative idf
``ln((N - df + 0.5) / (df + 0.5) + 1)`` and per-term saturation
``tf * (k1 + 1) / (tf + k1 * (1 - b + b * len/avgdl))``. Query tokens are
summed in order, duplicates included. Documents sharing no token with the
query score zero and are never returned.

Tokenization: lowercase, maximal alphanumeric runs (underscore excluded),
no stemming, no stopwords. A document is ``label + " " + description``
plus space-joined aliases for entities.

Search accumulates one query token at a time over flat numpy posting
arrays. Each token's update is the scalar formula above applied per
document, with the same IEEE double operations in the same order. A
term's per-document contributions are computed the first time a search
meets the term under a ``(k1, b)`` and kept, so a later search adds them
with one gather, add and scatter.

An index over document texts indexed before loads its term ids and
postings from a ``kgqa.cache`` entry instead of tokenizing. The entry's key
holds the texts in id order and the tokenizer pattern. Bump
``INDEX_FORMAT`` when the entry's arrays or their meaning change, or when
the same texts and pattern would give other postings (the lowercasing, the
term id order, the idf formula).
"""

import copy
import csv
import hashlib
import math
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Optional

import numpy as np

from kgqa import cache
from kgqa.errors import DataError, IndexBuildError
from kgqa.kgstore import EntityRecord

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Documents per block of an index build; a block's new term ids are assigned
# in one step. Its token lists stay under the collector's generation-0
# threshold (700 containers), so they trigger no collection of their own.
_BLOCK_DOCS = 256
# The arrays of an index that ``(k1, b)`` leave alone, with their dtypes.
_ARRAYS = {"offsets": np.dtype(np.int64), "docs": np.dtype(np.int32),
           "tfs": np.dtype(np.float64), "doc_len": np.dtype(np.int32),
           "idf": np.dtype(np.float64)}
INDEX_FORMAT = 1  # version of the cache entry; see the module docstring


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float
    b: float

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class DatasetPreset:
    entity: Bm25Params
    predicate: Bm25Params


# Tuned per dataset, favoring recall; key order: entity, predicate.
PRESETS: dict[str, DatasetPreset] = {
    "qald10": DatasetPreset(Bm25Params(2.95, 0.2), Bm25Params(5.18, 0.01)),
    "lcquad2": DatasetPreset(Bm25Params(2.45, 0.2), Bm25Params(2.95, 0.01)),
    "rubq2": DatasetPreset(Bm25Params(1.39, 0.4), Bm25Params(2.0, 0.01)),
    "pat": DatasetPreset(Bm25Params(1.0, 0.7), Bm25Params(0.1, 0.01)),
}


class Hits(Sequence):
    """Ranked ``(id, score)`` pairs, kept as an id tuple and an
    ``array('d')`` of scores. It reads like a tuple of pairs: iteration,
    indexing, slices (a tuple), ``len``, equality with tuples and ``hash``;
    each score is a built-in float. It takes about a third of the memory.
    """

    __slots__ = ("_ids", "_scores")

    def __init__(self, ids, scores):
        self._ids = tuple(ids)
        self._scores = scores if isinstance(scores, array) else array("d", scores)

    def __len__(self):
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(zip(self._ids[index], self._scores[index]))
        return self._ids[index], self._scores[index]

    def __iter__(self):
        return zip(self._ids, self._scores)

    def __eq__(self, other):
        if isinstance(other, Hits):
            return self._ids == other._ids and self._scores == other._scores
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Hits({tuple(self)!r})"

    def __reduce__(self):
        return Hits, (self._ids, self._scores)


@dataclass(frozen=True)
class CandidateSet:
    query: str
    kind: str  # "entity" | "predicate"
    hits: Sequence[tuple[str, float]]  # (id, score), score desc, id asc on ties

    def ids(self) -> list[str]:
        return [h[0] for h in self.hits]


def _document_text(record) -> str:
    parts = [record.label, record.description]
    aliases = getattr(record, "aliases", ())
    if aliases:
        parts.append(" ".join(aliases))
    return " ".join(parts)


def _postings(terms: array, doc_len: array, n_terms: int):
    """CSR postings from the term id of every token, documents in order:
    ``(df, offsets, docs, tfs)``, each posting list in ascending doc order."""
    n = len(doc_len)
    key_type = np.int32 if n_terms * n < 2**31 else np.int64
    keys = np.asarray(terms).astype(key_type)
    keys *= n
    keys += np.repeat(np.arange(n, dtype=key_type), doc_len)
    # Sorted by term, then document: each distinct key is one posting and
    # its count the term frequency.
    keys, counts = np.unique(keys, return_counts=True)
    df = np.bincount(keys // n, minlength=n_terms)
    return (df, np.concatenate(([0], np.cumsum(df))),
            (keys % n).astype(np.int32, copy=False), counts.astype(np.float64))


def _text_blocks(records):
    """The document texts of ``records``, in blocks of ``_BLOCK_DOCS``."""
    for start in range(0, len(records), _BLOCK_DOCS):
        yield [_document_text(rec) for rec in records[start:start + _BLOCK_DOCS]]


def _key(records) -> str:
    """Cache key of an index over ``records``: the tokenizer pattern, and
    the length of every document text and all the text, in order."""
    lengths, text = hashlib.blake2b(), hashlib.blake2b()
    for block in _text_blocks(records):
        lengths.update(array("q", map(len, block)))
        text.update("".join(block).encode("utf-8", "surrogatepass"))
    return cache.digest(_TOKEN_RE.pattern.encode(), lengths.digest(), text.digest())


def _tokenized(records):
    """``(term_ids, arrays)`` of an index over ``records``: term ids in order
    of first occurrence and the ``_ARRAYS``, tokenizing each text once."""
    n = len(records)
    term_ids: dict[str, int] = {}
    terms = array("i")  # the term id of every token, documents in order
    doc_len = array("i")
    for texts in _text_blocks(records):
        block = [tokenize(text) for text in texts]
        doc_len.extend(map(len, block))
        tokens = list(chain.from_iterable(block))
        # Ids in order of first occurrence, as a per-document pass gives.
        new = [tok for tok in dict.fromkeys(tokens) if tok not in term_ids]
        term_ids.update(zip(new, count(len(term_ids))))
        terms.extend(map(term_ids.__getitem__, tokens))
    df, offsets, docs, tfs = _postings(terms, doc_len, len(term_ids))
    idf = np.array([math.log((n - d + 0.5) / (d + 0.5) + 1.0) for d in df.tolist()],
                   dtype=np.float64)
    return term_ids, dict(zip(_ARRAYS, (offsets, docs, tfs,
                                        np.array(doc_len, dtype=np.int32), idf)))


def _entry(term_ids, arrays) -> dict:
    """The cache entry of an index: its terms in id order and its arrays."""
    blob, ends = cache.pack_strings(term_ids)
    return {"terms": blob, "terms_ends": ends, **arrays}


def _from_entry(arrays, n_docs):
    """``(term_ids, arrays)`` from a cache entry; ValueError if its arrays
    disagree with each other, with ``n_docs`` or with a fresh build's dtypes."""
    terms = cache.unpack_strings(arrays.pop("terms"), arrays.pop("terms_ends"))
    offsets, docs, tfs, doc_len, idf = (arrays[name] for name in _ARRAYS)
    if ([a.dtype for a in (offsets, docs, tfs, doc_len, idf)] != list(_ARRAYS.values())
            or len(offsets) != len(terms) + 1 or len(idf) != len(terms)
            or len(doc_len) != n_docs or offsets[0] != 0 or offsets[-1] != len(docs)
            or len(tfs) != len(docs) or (np.diff(offsets) < 0).any()
            or len(docs) and not (0 <= docs.min() and docs.max() < n_docs)):
        raise ValueError("index entry arrays disagree")
    return dict(zip(terms, range(len(terms)))), arrays


class Bm25Index:
    """Immutable BM25 index over one catalog; build once, search concurrently.

    Postings are flat arrays in CSR form. Term ``t = term_ids[token]``
    occurs in documents ``docs[offsets[t]:offsets[t + 1]]``, in ascending
    order, with term frequencies ``tfs`` at the same positions. ``norm[d]``
    is ``k1 * (1 - b + b * doc_len[d] / avgdl)`` and ``idf[t]`` the term's
    idf. Document indexes follow ``doc_ids``, which are sorted. Only
    ``params``, ``norm`` and the contributions kept by ``_weights`` depend
    on ``(k1, b)``; ``with_params`` recomputes ``norm`` and starts with no
    kept contributions.

    Everything else depends only on the document texts in id order, which
    key its cache entry.
    """

    def __init__(self, records: Sequence, params: Bm25Params, kind: str):
        if not records:
            raise IndexBuildError("cannot build an index over an empty catalog")
        self.params = params
        self.kind = kind
        records = sorted(records, key=lambda r: r.id)
        self.by_id = {r.id: r for r in records}
        self.doc_ids = [r.id for r in records]

        n = len(records)
        key = _key(records)
        built = cache.load("bm25", INDEX_FORMAT, key, lambda arrays: _from_entry(arrays, n))
        if built is None:
            built = _tokenized(records)
            cache.store("bm25", INDEX_FORMAT, key, _entry(*built))
        self.term_ids, arrays = built
        self.offsets, self.docs, self.tfs, self.doc_len, self.idf = (
            arrays[name] for name in _ARRAYS)
        self.avgdl = int(self.doc_len.sum(dtype=np.int64)) / n
        self.norm = self._norm()
        self._term_weights = {}

    def _norm(self) -> np.ndarray:
        k1, b = self.params.k1, self.params.b
        if self.avgdl > 0:
            return k1 * (1.0 - b + b * self.doc_len / self.avgdl)
        return np.full(len(self.doc_len), k1 * (1.0 - b))

    def _weights(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Term ``t``'s documents and its contribution to each one's score,
        ``idf[t] * (tf * (k1 + 1)) / (tf + norm[d])``, computed on first use
        and kept. Threads that race on a term compute equal arrays."""
        weighted = self._term_weights.get(t)
        if weighted is None:
            lo, hi = self.offsets[t], self.offsets[t + 1]
            ids, tf = self.docs[lo:hi], self.tfs[lo:hi]
            k1p1 = self.params.k1 + 1.0
            weighted = ids, self.idf[t] * (tf * k1p1) / (tf + self.norm[ids])
            self._term_weights[t] = weighted
        return weighted

    def with_params(self, params: Bm25Params) -> "Bm25Index":
        """This index under other ``(k1, b)``: shares every posting array,
        recomputes ``norm`` and keeps contributions of its own, so it scores
        exactly like a fresh build."""
        view = copy.copy(self)
        view.params = params
        view.norm = view._norm()
        view._term_weights = {}
        return view

    @classmethod
    def build(cls, catalog: Iterable, params: Bm25Params,
              pruned_ids: Optional[set[str]] = None) -> "Bm25Index":
        records = list(catalog)
        if pruned_ids is not None:
            records = [r for r in records if r.id in pruned_ids]
        if not records:
            raise IndexBuildError("catalog is empty after pruning")
        kind = "entity" if isinstance(records[0], EntityRecord) else "predicate"
        return cls(records, params, kind)

    def search(self, query: str, k: int) -> CandidateSet:
        """Top-k positive-scoring documents; ties broken by ascending id."""
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = np.zeros(len(self.doc_ids), dtype=np.float64)
        for tok in tokenize(query):
            t = self.term_ids.get(tok)
            if t is None:
                continue
            ids, weights = self._weights(t)
            # Each doc occurs once in ids, so this is the scalar update
            # scores[d] = scores[d] + ... with the same operations per doc.
            scores[ids] = scores[ids] + weights
        hit = np.flatnonzero(scores > 0.0)
        values = scores[hit]
        if len(hit) > k:
            # Keep every score tied with the k-th largest; the sort below
            # then takes the smallest ids among them.
            keep = values >= np.partition(values, len(hit) - k)[len(hit) - k]
            hit, values = hit[keep], values[keep]
        # doc_ids are sorted, so ascending index is the ascending-id tie-break.
        order = np.lexsort((hit, -values))[:k]
        ids = [self.doc_ids[i] for i in hit[order].tolist()]
        return CandidateSet(query=query, kind=self.kind,
                            hits=Hits(ids, array("d", values[order].tobytes())))


@dataclass(frozen=True)
class RecallResult:
    value: float
    evaluated: int
    skipped: int


def recall_at_k(index: Bm25Index, examples: Sequence[tuple[str, set[str]]],
                k: int) -> RecallResult:
    """Mean |gold ∩ top-k| / |gold| over examples; empty-gold examples are
    skipped and tallied."""
    total = 0.0
    evaluated = 0
    skipped = 0
    for query, gold in examples:
        gold = set(gold)
        if not gold:
            skipped += 1
            continue
        missing = [g for g in gold if g not in index.by_id]
        if missing:
            raise DataError(f"gold id(s) not in catalog: {', '.join(sorted(missing))}")
        top = set(index.search(query, k).ids())
        total += len(gold & top) / len(gold)
        evaluated += 1
    value = total / evaluated if evaluated else 0.0
    return RecallResult(value=value, evaluated=evaluated, skipped=skipped)


@dataclass(frozen=True)
class SweepResult:
    best: Bm25Params
    best_recall: float
    table: tuple[tuple[float, float, float], ...]  # (k1, b, recall) in grid order


def sweep(index: Bm25Index, examples: Sequence[tuple[str, set[str]]],
          k1_grid: Sequence[float], b_grid: Sequence[float], k: int) -> SweepResult:
    """Exhaustive (k1, b) grid evaluation by Recall@k over views of ``index``.

    Returns the argmax params, ties resolved toward the smaller (k1, b)
    pair, plus the full table for reporting. Raises ``DataError`` when no
    example has gold ids to score.
    """
    if not k1_grid or not b_grid:
        raise ValueError("k1_grid and b_grid must be non-empty")
    rows = []
    best = None
    for k1 in k1_grid:
        for b in b_grid:
            params = Bm25Params(k1, b)
            result = recall_at_k(index.with_params(params), examples, k)
            if not result.evaluated:
                raise DataError(f"no example has gold {index.kind} ids to score")
            rows.append((k1, b, result.value))
            key = (-result.value, k1, b)
            if best is None or key < best[0]:
                best = (key, params, result.value)
    return SweepResult(best=best[1], best_recall=best[2], table=tuple(rows))


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k1", "b", "recall_at_k"])
        for k1, b, recall in result.table:
            writer.writerow([f"{k1:g}", f"{b:g}", f"{recall:.6f}"])
