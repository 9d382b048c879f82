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
document, with the same IEEE double operations in the same order.
"""

import csv
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from kgqa.errors import DataError, IndexBuildError, LoadError
from kgqa.kgstore import EntityRecord, PredicateRecord

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

INDEX_FORMAT = "kgqa-bm25-index"
INDEX_VERSION = 1


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


@dataclass(frozen=True)
class CandidateSet:
    query: str
    kind: str  # "entity" | "predicate"
    hits: tuple[tuple[str, float], ...]  # (id, score), score desc, id asc on ties

    def ids(self) -> list[str]:
        return [h[0] for h in self.hits]


def _document_text(record) -> str:
    parts = [record.label, record.description]
    aliases = getattr(record, "aliases", ())
    if aliases:
        parts.append(" ".join(aliases))
    return " ".join(parts)


class Bm25Index:
    """Immutable BM25 index over one catalog; build once, search concurrently.

    Postings are flat arrays in CSR form. Term ``t = term_ids[token]``
    occurs in documents ``docs[offsets[t]:offsets[t + 1]]``, in ascending
    order, with term frequencies ``tfs`` at the same positions. ``norm[d]``
    is ``k1 * (1 - b + b * len_d / avgdl)`` and ``idf[t]`` the term's idf.
    Document indexes follow ``doc_ids``, which are sorted.
    """

    def __init__(self, records: Sequence, params: Bm25Params, kind: str):
        if not records:
            raise IndexBuildError("cannot build an index over an empty catalog")
        self.params = params
        self.kind = kind
        self.records = tuple(sorted(records, key=lambda r: r.id))
        self.by_id = {r.id: r for r in self.records}
        self.doc_ids = [r.id for r in self.records]

        n = len(self.records)
        term_ids: dict[str, int] = {}
        terms = array("i")  # one entry per distinct token of each document
        counts = array("i")
        distinct = array("i")
        doc_len = array("i")
        for rec in self.records:
            tokens = tokenize(_document_text(rec))
            tf = Counter(tokens)
            terms.extend([term_ids.setdefault(tok, len(term_ids)) for tok in tf])
            counts.extend(tf.values())
            distinct.append(len(tf))
            doc_len.append(len(tokens))

        term_col = np.asarray(terms)
        # A stable sort by term keeps each posting list in ascending doc order.
        order = np.argsort(term_col, kind="stable")
        df = np.bincount(term_col, minlength=len(term_ids))
        self.term_ids = term_ids
        self.offsets = np.concatenate(([0], np.cumsum(df)))
        self.docs = np.repeat(np.arange(n, dtype=np.int32), distinct)[order]
        self.tfs = np.array(counts, dtype=np.float64)[order]

        avgdl = sum(doc_len) / n
        k1, b = params.k1, params.b
        dl = np.array(doc_len, dtype=np.float64)
        self.norm = (k1 * (1.0 - b + b * dl / avgdl) if avgdl > 0
                     else np.full(n, k1 * (1.0 - b)))
        self.idf = np.array([math.log((n - d + 0.5) / (d + 0.5) + 1.0)
                             for d in df.tolist()], dtype=np.float64)

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
        k1p1 = self.params.k1 + 1.0
        for tok in tokenize(query):
            t = self.term_ids.get(tok)
            if t is None:
                continue
            lo, hi = self.offsets[t], self.offsets[t + 1]
            ids, tf = self.docs[lo:hi], self.tfs[lo:hi]
            # Each doc occurs once in ids, so this is the scalar update
            # scores[d] = scores[d] + ... with the same operations per doc.
            scores[ids] = scores[ids] + self.idf[t] * (tf * k1p1) / (tf + self.norm[ids])
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
                            hits=tuple(zip(ids, values[order].tolist())))

    def save(self, path) -> None:
        """Persist as a self-describing JSON document (round-trip stable)."""
        docs = []
        for rec in self.records:
            doc = {"id": rec.id, "label": rec.label, "description": rec.description}
            if self.kind == "entity":
                doc["aliases"] = list(rec.aliases)
            docs.append(doc)
        payload = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "kind": self.kind,
            "params": {"k1": self.params.k1, "b": self.params.b},
            "docs": docs,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Bm25Index":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LoadError(f"{path}: not a valid index file", [(str(path), 1, exc.msg)])
        if not isinstance(payload, dict):
            raise LoadError(f"{path}: not a valid index file",
                            [(str(path), 1, f"top level is a {type(payload).__name__}")])
        if payload.get("format") != INDEX_FORMAT:
            raise LoadError(f"{path}: unrecognized index format",
                            [(str(path), 1, f"format={payload.get('format')!r}")])
        if payload.get("version") != INDEX_VERSION:
            raise LoadError(f"{path}: unsupported index version",
                            [(str(path), 1, f"version={payload.get('version')!r}")])
        kind = payload.get("kind")
        if kind not in ("entity", "predicate"):
            raise LoadError(f"{path}: unknown index kind", [(str(path), 1, f"kind={kind!r}")])
        try:
            params = Bm25Params(payload["params"]["k1"], payload["params"]["b"])
            if kind == "entity":
                records = [EntityRecord(d["id"], d["label"], d.get("description", ""),
                                        tuple(d.get("aliases", ()))) for d in payload["docs"]]
            else:
                records = [PredicateRecord(d["id"], d["label"], d.get("description", ""))
                           for d in payload["docs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(f"{path}: malformed index file",
                            [(str(path), 1, f"{type(exc).__name__}: {exc}")]) from exc
        return cls(records, params, kind)


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


def sweep(index_builder: Callable[[Bm25Params], Bm25Index],
          examples: Sequence[tuple[str, set[str]]],
          k1_grid: Sequence[float], b_grid: Sequence[float], k: int) -> SweepResult:
    """Exhaustive (k1, b) grid evaluation by Recall@k.

    Returns the argmax params, ties resolved toward the smaller (k1, b)
    pair, plus the full table for reporting.
    """
    if not k1_grid or not b_grid:
        raise ValueError("k1_grid and b_grid must be non-empty")
    rows = []
    best = None
    for k1 in k1_grid:
        for b in b_grid:
            params = Bm25Params(k1, b)
            result = recall_at_k(index_builder(params), examples, k)
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
