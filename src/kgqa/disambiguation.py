"""Candidate selection: pick the ids a question actually mentions.

The remote backend shows the question plus one "<id> | <label> |
<description>" line per candidate to a reasoning model and extracts ids
from the last <answer>...</answer> block. Two oracle backends exist for
offline runs: label matching against the question text, and intersection
with a supplied gold set (test harness only). Whatever the backend
returns, the selection is filtered to the offered candidates; off-list
ids are dropped and tallied.
"""

import re
from dataclasses import dataclass
from typing import Optional

from kgqa.errors import DisambiguationError, SelectionParseError, TransportError
from kgqa.ids import ANY_ID_RE
from kgqa.retrieval import CandidateSet

ANSWER_OPEN = "<answer>"
ANSWER_CLOSE = "</answer>"

_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL | re.IGNORECASE)
_SPLIT_RE = re.compile(r"[,\s]+")

_KIND_NOUN = {"entity": "entities", "predicate": "predicates"}


@dataclass(frozen=True)
class DisambiguationResult:
    selected: tuple[str, ...]
    raw_response: str
    backend: str
    off_list: int = 0
    failure: Optional[str] = None


def build_prompt(question: str, candidates: CandidateSet, kind: str, catalog) -> str:
    """Render the selection prompt; candidate order is preserved."""
    noun = _KIND_NOUN.get(kind, kind)
    lines = [f"Question: {question}", "", f"Candidate {noun}:"]
    for cid, _score in candidates.hits:
        record = catalog[cid]
        lines.append(f"{cid} | {record.label} | {record.description}")
    lines.append("")
    if kind == "entity":
        task = "which candidate entities the question mentions"
    else:
        task = "which candidate predicates express the relations the question asks about"
    lines.append(
        f"Think step by step about {task}. List all ids that the question "
        f"mentions. Then print the final ids between {ANSWER_OPEN} and "
        f"{ANSWER_CLOSE}, comma-separated."
    )
    return "\n".join(lines)


def _extract_tokens(raw_response: str) -> list[str]:
    blocks = _ANSWER_RE.findall(raw_response)
    if not blocks:
        raise SelectionParseError("no <answer>...</answer> block in response")
    return [tok for tok in _SPLIT_RE.split(blocks[-1].strip()) if tok]


def parse_selection(raw_response: str, offered_ids) -> tuple[list[str], int]:
    """Ids from the last answer block, restricted to ``offered_ids`` and
    de-duplicated preserving first occurrence, plus the off-list count: the
    id-shaped tokens that were not offered, repeats included."""
    offered = set(offered_ids)
    seen = set()
    selected = []
    off_list = 0
    for tok in _extract_tokens(raw_response):
        if not ANY_ID_RE.fullmatch(tok):
            continue
        if tok not in offered:
            off_list += 1
        elif tok not in seen:
            seen.add(tok)
            selected.append(tok)
    return selected, off_list


class LabelOracle:
    """Select candidates whose label occurs verbatim in the question."""

    name = "oracle-label"

    def select(self, question, candidates, kind, catalog, gold=None):
        haystack = question.lower()
        selected = tuple(
            cid for cid, _ in candidates.hits
            if catalog[cid].label and catalog[cid].label.lower() in haystack
        )
        return DisambiguationResult(selected=selected, raw_response="", backend=self.name)


class GoldOracle:
    """Intersect candidates with a supplied gold id set (harness only)."""

    name = "oracle-gold"

    def select(self, question, candidates, kind, catalog, gold=None):
        gold = set(gold or ())
        selected = tuple(cid for cid, _ in candidates.hits if cid in gold)
        return DisambiguationResult(selected=selected, raw_response="", backend=self.name)


class RemoteReasoner:
    """Chain-of-thought selection through a chat-completions endpoint."""

    name = "remote"

    def __init__(self, client):
        self.client = client

    def select(self, question, candidates, kind, catalog, gold=None):
        prompt = build_prompt(question, candidates, kind, catalog)
        offered = [cid for cid, _ in candidates.hits]
        retries = self.client.config.max_retries
        raw = ""
        for _attempt in range(retries + 1):
            try:
                raw = self.client.complete([{"role": "user", "content": prompt}])
            except TransportError as exc:
                raise DisambiguationError(
                    f"reasoner call failed ({self.client.config.base_url}, "
                    f"model={self.client.config.model_name}): {exc}"
                ) from exc
            try:
                selected, off_list = parse_selection(raw, offered)
            except SelectionParseError:
                continue
            return DisambiguationResult(
                selected=tuple(selected), raw_response=raw,
                backend=self.name, off_list=off_list,
            )
        return DisambiguationResult(
            selected=(), raw_response=raw, backend=self.name,
            failure="rejected-at-disambiguation",
        )


def disambiguate(question: str, candidates: CandidateSet, kind: str, backend,
                 catalog=None, gold=None) -> DisambiguationResult:
    """Run one backend over a non-empty candidate set."""
    if not candidates.hits:
        return DisambiguationResult(selected=(), raw_response="",
                                    backend=backend.name, failure="no-candidates")
    return backend.select(question, candidates, kind, catalog or {}, gold=gold)
