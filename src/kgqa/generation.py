"""Query generation backends and training-data preparation.

``generate`` turns a question plus disambiguated candidates into a single
SPARQL string through one of three backends: a remote LLM (chat wire
contract shared with disambiguation), a one-hop template (deliberately
weak offline baseline), or gold passthrough (harness plumbing).
``augment_training_pairs`` writes the prompt/target JSON Lines used to
fine-tune a generator, mixing lexically-similar distractor candidates
into the gold ones.
"""

import json
import random
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from kgqa.errors import GenerationError, TransportError

_FENCE_RE = re.compile(r"```[a-zA-Z]*\n?(.*?)```", re.DOTALL)
_QUERY_START_RE = re.compile(r"\b(SELECT|ASK|PREFIX)\b", re.IGNORECASE)

INSTRUCTION = (
    "Translate the question into a single SPARQL query over the knowledge "
    "graph. Use only the candidate entities and predicates listed below. "
    "Output the query and nothing else."
)


@dataclass(frozen=True)
class GenerationRequest:
    question: str
    entities: tuple[tuple[str, str, str], ...] = ()   # (id, label, description)
    predicates: tuple[tuple[str, str, str], ...] = ()
    fewshot_examples: tuple[tuple[str, str], ...] = ()
    question_id: Optional[str] = None


@dataclass(frozen=True)
class GenerationResult:
    query_text: str
    backend: str
    raw_response: str = ""


def assemble_prompt(req: GenerationRequest) -> str:
    """Deterministic prompt: instruction, optional few-shot pairs, question,
    then one candidate line per entity and predicate."""
    lines = [INSTRUCTION, ""]
    for shot_question, shot_query in req.fewshot_examples:
        lines.append(f"Question: {shot_question}")
        lines.append(f"Query: {shot_query}")
        lines.append("")
    lines.append(f"Question: {req.question}")
    lines.append("Entities:")
    for cid, label, description in req.entities:
        lines.append(f"{cid} | {label} | {description}")
    lines.append("Predicates:")
    for cid, label, description in req.predicates:
        lines.append(f"{cid} | {label} | {description}")
    lines.append("Query:")
    return "\n".join(lines)


def strip_to_query(raw: str) -> str:
    """Remove code fences and surrounding prose from a model response."""
    text = raw.strip()
    fenced = _FENCE_RE.search(text)
    if fenced:
        text = fenced.group(1).strip()
    m = _QUERY_START_RE.search(text)
    if not m:
        raise GenerationError(f"no query found in response: {raw[:120]!r}")
    text = text[m.start():].strip()
    if "```" in text:
        text = text.split("```", 1)[0].strip()
    return text


class TemplateGenerator:
    """One-hop pattern from the first entity and predicate."""

    name = "template"

    def generate(self, req: GenerationRequest) -> GenerationResult:
        if not req.entities or not req.predicates:
            raise GenerationError("insufficient candidates for template generation")
        entity = req.entities[0][0]
        predicate = req.predicates[0][0]
        query = f"SELECT ?x WHERE {{ wd:{entity} wdt:{predicate} ?x }}"
        return GenerationResult(query_text=query, backend=self.name)


class GoldPassthrough:
    """Return a supplied gold query; end-to-end plumbing tests only."""

    name = "gold-passthrough"

    def __init__(self, queries: Union[str, Mapping[str, str]]):
        self.queries = queries

    def generate(self, req: GenerationRequest) -> GenerationResult:
        if isinstance(self.queries, str):
            query = self.queries
        else:
            if req.question_id is None or req.question_id not in self.queries:
                raise GenerationError(f"no gold query for question {req.question_id!r}")
            query = self.queries[req.question_id]
        return GenerationResult(query_text=query, backend=self.name)


class RemoteLlmGenerator:
    """Chat-completions backend; strips fences and leading prose."""

    name = "remote-llm"

    def __init__(self, client):
        self.client = client

    def generate(self, req: GenerationRequest) -> GenerationResult:
        prompt = assemble_prompt(req)
        try:
            raw = self.client.complete([{"role": "user", "content": prompt}])
        except TransportError as exc:
            raise GenerationError(f"generator call failed: {exc}") from exc
        return GenerationResult(query_text=strip_to_query(raw),
                                backend=self.name, raw_response=raw)


def generate(req: GenerationRequest, backend) -> GenerationResult:
    return backend.generate(req)


@dataclass(frozen=True)
class AugmentReport:
    written: int
    skipped: tuple[str, ...] = ()


def _distractors(index, gold_ids: Sequence[str], n: int) -> list[str]:
    gold_set = set(gold_ids)
    found: list[str] = []
    for gid in gold_ids:
        label = index.by_id[gid].label
        hits = index.search(label, n + len(gold_set)).ids()
        picked = 0
        for hid in hits:
            if hid in gold_set or hid in found:
                continue
            found.append(hid)
            picked += 1
            if picked >= n:
                break
    return found


def augment_training_pairs(examples, entity_index, predicate_index, out_path,
                           n_distractors: int = 5, seed: int = 0) -> AugmentReport:
    """Write prompt/target JSON Lines with distractor-augmented candidates.

    For every gold entity/predicate, up to ``n_distractors`` of its
    nearest non-gold neighbors (by BM25 over the item's label) join the
    candidate list, which is then shuffled with the seeded RNG. Gold
    candidates always survive. Examples whose gold ids are missing from
    the index are skipped and tallied.
    """
    rng = random.Random(seed)
    skipped = []
    written = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        for example in examples:
            gold_entities = sorted(example.gold_entities)
            gold_predicates = sorted(example.gold_predicates)
            missing = [g for g in gold_entities if g not in entity_index.by_id]
            missing += [g for g in gold_predicates if g not in predicate_index.by_id]
            if missing:
                skipped.append(example.id)
                continue
            entity_ids = gold_entities + _distractors(entity_index, gold_entities,
                                                      n_distractors)
            predicate_ids = gold_predicates + _distractors(predicate_index,
                                                           gold_predicates, n_distractors)
            rng.shuffle(entity_ids)
            rng.shuffle(predicate_ids)
            req = GenerationRequest(
                question=example.question,
                entities=tuple((i, entity_index.by_id[i].label,
                                entity_index.by_id[i].description) for i in entity_ids),
                predicates=tuple((i, predicate_index.by_id[i].label,
                                  predicate_index.by_id[i].description)
                                 for i in predicate_ids),
                question_id=example.id,
            )
            row = {"prompt": assemble_prompt(req), "target": example.gold_query,
                   "question_id": example.id}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
            written += 1
    return AugmentReport(written=written, skipped=tuple(skipped))
