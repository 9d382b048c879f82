"""Prompt assembly, generation backends, augmentation."""

import json
import re

import pytest

from kgqa.errors import GenerationError
from kgqa.evaluation import QaExample
from kgqa.generation import (
    GenerationRequest,
    GoldPassthrough,
    RemoteLlmGenerator,
    TemplateGenerator,
    augment_training_pairs,
    assemble_prompt,
    generate,
    strip_to_query,
)
from kgqa.llmclient import ChatCompletionsClient, ReasonerClientConfig
from kgqa.retrieval import Bm25Index, Bm25Params


def _client(url, retries=0):
    return ChatCompletionsClient(ReasonerClientConfig(
        base_url=url, model_name="m", timeout=5.0, max_retries=retries,
        backoff_base=0.0))


ENTITIES = (("Q1", "one", "first"), ("Q2", "two", "second"))
PREDICATES = (("P1", "rel", "a relation"), ("P2", "rel2", "another"),
              ("P3", "rel3", "third"))


class TestAssemblePrompt:
    def test_no_fewshot_block(self):
        prompt = assemble_prompt(GenerationRequest(question="q?"))
        assert "Query:" in prompt
        assert prompt.count("Question:") == 1

    def test_candidate_counts_and_order(self):
        prompt = assemble_prompt(GenerationRequest(
            question="q?", entities=ENTITIES, predicates=PREDICATES))
        lines = prompt.splitlines()
        entity_lines = [l for l in lines if re.match(r"^Q\d+ \|", l)]
        predicate_lines = [l for l in lines if re.match(r"^P\d+ \|", l)]
        assert entity_lines == ["Q1 | one | first", "Q2 | two | second"]
        assert len(predicate_lines) == 3
        assert lines.index("Entities:") < lines.index("Predicates:")

    def test_fewshot_pairs_emitted(self):
        prompt = assemble_prompt(GenerationRequest(
            question="q?", fewshot_examples=(("who?", "SELECT ?x WHERE ..."),)))
        assert prompt.count("Question:") == 2
        assert "SELECT ?x WHERE ..." in prompt

    def test_byte_determinism(self):
        req = GenerationRequest(question="q?", entities=ENTITIES,
                                predicates=PREDICATES)
        assert assemble_prompt(req).encode() == assemble_prompt(req).encode()

    def test_distinct_id_lists_give_distinct_prompts(self):
        a = assemble_prompt(GenerationRequest(question="q?", entities=ENTITIES))
        b = assemble_prompt(GenerationRequest(
            question="q?", entities=(ENTITIES[1], ENTITIES[0])))
        assert a != b


class TestBackends:
    def test_template_instantiation(self):
        result = generate(GenerationRequest(
            question="q?", entities=(("Q1", "l", "d"),),
            predicates=(("P1", "l", "d"),)), TemplateGenerator())
        assert result.query_text == "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"
        assert result.backend == "template"

    def test_template_insufficient_candidates(self):
        with pytest.raises(GenerationError) as err:
            generate(GenerationRequest(question="q?"), TemplateGenerator())
        assert "insufficient candidates" in str(err.value)

    def test_gold_passthrough_identity(self):
        gold = "SELECT ?x WHERE { wd:Q5 wdt:P5 ?x }"
        result = generate(GenerationRequest(question="q?"), GoldPassthrough(gold))
        assert result.query_text == gold

    def test_gold_passthrough_by_question_id(self):
        backend = GoldPassthrough({"a": "ASK { wd:Q1 wdt:P1 wd:Q2 }"})
        result = generate(GenerationRequest(question="q?", question_id="a"), backend)
        assert result.query_text == "ASK { wd:Q1 wdt:P1 wd:Q2 }"
        with pytest.raises(GenerationError):
            generate(GenerationRequest(question="q?", question_id="b"), backend)

    def test_remote_strips_fences(self, fake_server):
        fake_server.enqueue_chat("```sparql\nASK { wd:Q1 wdt:P1 wd:Q2 }\n```")
        backend = RemoteLlmGenerator(_client(fake_server.url))
        result = generate(GenerationRequest(question="q?"), backend)
        assert result.query_text == "ASK { wd:Q1 wdt:P1 wd:Q2 }"
        assert "```" not in result.query_text

    def test_remote_strips_prose(self, fake_server):
        fake_server.enqueue_chat(
            "Here is the query you asked for:\nSELECT ?x WHERE { wd:Q1 wdt:P1 ?x }")
        backend = RemoteLlmGenerator(_client(fake_server.url))
        result = generate(GenerationRequest(question="q?"), backend)
        assert result.query_text == "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"

    def test_remote_no_query_found(self, fake_server):
        fake_server.enqueue_chat("I have no idea, sorry.")
        backend = RemoteLlmGenerator(_client(fake_server.url))
        with pytest.raises(GenerationError):
            generate(GenerationRequest(question="q?"), backend)


class TestStripToQuery:
    def test_plain_query_unchanged(self):
        text = "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"
        assert strip_to_query(text) == text

    def test_prose_then_fenced(self):
        raw = "Sure thing!\n```\nSELECT ?x WHERE { wd:Q1 wdt:P1 ?x }\n```\nenjoy"
        assert strip_to_query(raw) == "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"

    def test_prefix_form_kept(self):
        raw = "PREFIX wd: <http://x/> SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"
        assert strip_to_query(raw).startswith("PREFIX")

    def test_stoplist_words_never_lead(self):
        for raw in ("Sure: SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                    "here SELECT ?x",  # pathological; keyword search cuts to SELECT
                    "```sparql\nASK { wd:Q1 wdt:P1 wd:Q2 }\n```"):
            stripped = strip_to_query(raw)
            first = stripped.split()[0].lower()
            assert first not in ("sure", "here")
            assert "```" not in stripped


def _indexes(toy_snapshot):
    entity_index = Bm25Index.build(toy_snapshot.entities.values(),
                                   Bm25Params(1.39, 0.4))
    predicate_index = Bm25Index.build(toy_snapshot.predicates.values(),
                                      Bm25Params(2.0, 0.01))
    return entity_index, predicate_index


def _example(eid="toy-x", entities=None, predicates=None):
    return QaExample(
        id=eid, question="Who is the director of Starlight Crossing?",
        gold_query="SELECT ?x WHERE { wd:Q7 wdt:P1 ?x }",
        gold_entities=set(entities or {"Q7"}),
        gold_predicates=set(predicates or {"P1"}),
        dataset="toy", split="train",
    )


class TestAugmentTrainingPairs:
    @staticmethod
    def _entity_lines(prompt, index):
        return [l for l in prompt.splitlines() if l.split(" | ")[0] in index.by_id]

    def test_zero_distractors_gold_only(self, toy_snapshot, tmp_path):
        entity_index, predicate_index = _indexes(toy_snapshot)
        out = tmp_path / "train.jsonl"
        report = augment_training_pairs([_example()], entity_index, predicate_index,
                                        out, n_distractors=0, seed=1)
        assert report.written == 1
        row = json.loads(out.read_text().strip())
        assert self._entity_lines(row["prompt"], entity_index) == \
            ["Q7 | Starlight Crossing | science fiction film about a night ferry"]
        assert row["target"] == "SELECT ?x WHERE { wd:Q7 wdt:P1 ?x }"
        assert row["question_id"] == "toy-x"

    def test_five_distractors_added(self, tmp_path):
        # Catalog where the gold label has plenty of lexical neighbors.
        from kgqa.kgstore import EntityRecord, PredicateRecord
        entities = [EntityRecord("Q1", "north harbor", "gold town")]
        entities += [EntityRecord(f"Q{i}", f"north harbor {i}", "similar town")
                     for i in range(2, 10)]
        predicates = [PredicateRecord("P1", "linked to", "relation"),
                      PredicateRecord("P2", "linked with", "relation")]
        entity_index = Bm25Index.build(entities, Bm25Params(1.2, 0.4))
        predicate_index = Bm25Index(predicates, Bm25Params(1.2, 0.4), "predicate")
        example = QaExample(id="x", question="where is north harbor?",
                            gold_query="SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                            gold_entities={"Q1"}, gold_predicates={"P1"},
                            dataset="d", split="train")
        out = tmp_path / "train.jsonl"
        augment_training_pairs([example], entity_index, predicate_index, out,
                               n_distractors=5, seed=1)
        row = json.loads(out.read_text().strip())
        entity_lines = self._entity_lines(row["prompt"], entity_index)
        assert len(entity_lines) == 6  # 1 gold + 5 nearest non-gold
        assert any(l.startswith("Q1 ") for l in entity_lines)

    def test_gold_survives_shuffle(self, toy_snapshot, tmp_path):
        entity_index, predicate_index = _indexes(toy_snapshot)
        for seed in range(5):
            out = tmp_path / f"train{seed}.jsonl"
            augment_training_pairs([_example()], entity_index, predicate_index, out,
                                   n_distractors=3, seed=seed)
            row = json.loads(out.read_text().strip())
            assert "Q7 | Starlight Crossing" in row["prompt"]
            assert "P1 | director" in row["prompt"]

    def test_seed_determinism(self, toy_snapshot, tmp_path):
        entity_index, predicate_index = _indexes(toy_snapshot)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        examples = [_example(f"toy-{i}") for i in range(4)]
        augment_training_pairs(examples, entity_index, predicate_index, a,
                               n_distractors=4, seed=99)
        augment_training_pairs(examples, entity_index, predicate_index, b,
                               n_distractors=4, seed=99)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_order(self, toy_snapshot, tmp_path):
        entity_index, predicate_index = _indexes(toy_snapshot)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        examples = [_example(f"toy-{i}") for i in range(4)]
        augment_training_pairs(examples, entity_index, predicate_index, a,
                               n_distractors=4, seed=1)
        augment_training_pairs(examples, entity_index, predicate_index, b,
                               n_distractors=4, seed=2)
        assert a.read_bytes() != b.read_bytes()

    def test_missing_gold_id_skipped_and_tallied(self, toy_snapshot, tmp_path):
        entity_index, predicate_index = _indexes(toy_snapshot)
        out = tmp_path / "train.jsonl"
        bad = _example("toy-bad", entities={"Q999"})
        report = augment_training_pairs([_example(), bad], entity_index,
                                        predicate_index, out, n_distractors=0, seed=1)
        assert report.written == 1
        assert report.skipped == ("toy-bad",)
