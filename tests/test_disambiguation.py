"""Prompt construction, answer-marker parsing, and the three backends."""

import random
import re
import string

import pytest

from kgqa.disambiguation import (
    GoldOracle,
    LabelOracle,
    RemoteReasoner,
    build_prompt,
    disambiguate,
    parse_selection,
)
from kgqa.errors import DisambiguationError, SelectionParseError
from kgqa.kgstore import EntityRecord
from kgqa.llmclient import ChatCompletionsClient, ReasonerClientConfig
from kgqa.retrieval import Bm25Index, Bm25Params, CandidateSet


def make_candidates(n, kind="entity"):
    hits = tuple((f"Q{i}", float(n - i)) for i in range(1, n + 1))
    return CandidateSet(query="q", kind=kind, hits=hits)


def make_catalog(n):
    return {f"Q{i}": EntityRecord(f"Q{i}", f"label {i}", f"description {i}")
            for i in range(1, n + 1)}


def _client(url, retries=1):
    return ChatCompletionsClient(ReasonerClientConfig(
        base_url=url, model_name="m", timeout=5.0, max_retries=retries,
        backoff_base=0.0))


class TestBuildPrompt:
    @staticmethod
    def _candidate_lines(prompt):
        return [l for l in prompt.splitlines() if re.match(r"^Q\d+ \|", l)]

    def test_single_candidate_line(self):
        prompt = build_prompt("Who?", make_candidates(1), "entity", make_catalog(1))
        assert self._candidate_lines(prompt) == ["Q1 | label 1 | description 1"]
        assert "Who?" in prompt
        assert "<answer>" in prompt and "</answer>" in prompt

    def test_hundred_candidates_order_preserved(self):
        prompt = build_prompt("q", make_candidates(100), "entity", make_catalog(100))
        lines = self._candidate_lines(prompt)
        assert len(lines) == 100
        assert lines[0].startswith("Q1 |")
        assert lines[99].startswith("Q100 |")

    def test_empty_description_renders(self):
        catalog = {"Q1": EntityRecord("Q1", "only label", "")}
        candidates = CandidateSet(query="q", kind="entity", hits=(("Q1", 1.0),))
        prompt = build_prompt("q", candidates, "entity", catalog)
        assert "Q1 | only label | " in prompt


class TestParseSelection:
    def test_happy_path(self):
        raw = "thinking...\n<answer>Q42, Q1</answer>"
        assert parse_selection(raw, {"Q42", "Q1", "Q7"}) == (["Q42", "Q1"], 0)

    def test_off_list_dropped(self):
        raw = "<answer>Q42, Q99</answer>"
        assert parse_selection(raw, {"Q42"}) == (["Q42"], 1)

    def test_off_list_counts_every_unoffered_id_token(self):
        raw = "<answer>Q99 Q42, Q99, P7 Q42 word Q</answer>"
        assert parse_selection(raw, {"Q42"}) == (["Q42"], 3)

    def test_no_markers(self):
        with pytest.raises(SelectionParseError):
            parse_selection("no marker here Q1", {"Q1"})

    def test_last_marker_pair_wins(self):
        raw = "<answer>Q1</answer> changed my mind <answer>Q2</answer>"
        assert parse_selection(raw, {"Q1", "Q2"}) == (["Q2"], 0)

    def test_dedupe_preserves_first(self):
        raw = "<answer>Q2 Q1, Q2</answer>"
        assert parse_selection(raw, {"Q1", "Q2"}) == (["Q2", "Q1"], 0)

    def test_whitespace_and_newline_separators(self):
        raw = "<answer>\nQ1,\n  P2   Q3\n</answer>"
        assert parse_selection(raw, {"Q1", "P2", "Q3"}) == (["Q1", "P2", "Q3"], 0)

    def test_empty_answer_block(self):
        assert parse_selection("<answer> </answer>", {"Q1"}) == ([], 0)

    def test_non_id_tokens_ignored(self):
        raw = "<answer>the answer is Q5 obviously</answer>"
        assert parse_selection(raw, {"Q5"}) == (["Q5"], 0)

    def test_idempotent_on_own_output(self):
        rng = random.Random(11)
        offered = {f"Q{i}" for i in range(1, 30)}
        for _ in range(50):
            selection = rng.sample(sorted(offered), rng.randint(1, 6))
            rendered = f"<answer>{', '.join(selection)}</answer>"
            assert parse_selection(rendered, offered) == (selection, 0)

    def test_fuzz_containment_never_violated(self):
        rng = random.Random(987)
        offered = {f"Q{i}" for i in range(1, 11)}
        alphabet = string.ascii_letters + string.digits + " ,<>/QP"
        for _ in range(1000):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            if rng.random() < 0.5:
                raw += f"<answer>{raw[:20]}</answer>"
            try:
                selected, _off_list = parse_selection(raw, offered)
            except SelectionParseError:
                continue
            assert set(selected) <= offered


class TestOracles:
    def test_label_oracle_substring(self):
        catalog = {
            "Q25188": EntityRecord("Q25188", "Inception", "2010 film"),
            "Q1": EntityRecord("Q1", "Paris", "city"),
        }
        candidates = CandidateSet(query="q", kind="entity",
                                  hits=(("Q25188", 2.0), ("Q1", 1.0)))
        result = disambiguate("Who directed Inception?", candidates, "entity",
                              LabelOracle(), catalog=catalog)
        assert result.selected == ("Q25188",)
        assert result.backend == "oracle-label"

    def test_label_oracle_case_insensitive(self):
        catalog = {"Q1": EntityRecord("Q1", "INCEPTION", "film")}
        candidates = CandidateSet(query="q", kind="entity", hits=(("Q1", 1.0),))
        result = disambiguate("who directed inception?", candidates, "entity",
                              LabelOracle(), catalog=catalog)
        assert result.selected == ("Q1",)

    def test_gold_oracle_intersection(self):
        candidates = CandidateSet(query="q", kind="entity",
                                  hits=(("Q1", 2.0), ("Q2", 1.0)))
        result = disambiguate("q", candidates, "entity", GoldOracle(),
                              gold={"Q1", "Q9"})
        assert result.selected == ("Q1",)
        assert result.backend == "oracle-gold"

    def test_oracles_deterministic(self, toy_snapshot):
        index = Bm25Index.build(toy_snapshot.entities.values(), Bm25Params(1.39, 0.4))
        candidates = index.search("Who is the spouse of Mira Okafor?", 10)
        first = disambiguate("Who is the spouse of Mira Okafor?", candidates,
                             "entity", LabelOracle(), catalog=index.by_id)
        second = disambiguate("Who is the spouse of Mira Okafor?", candidates,
                              "entity", LabelOracle(), catalog=index.by_id)
        assert first == second

    def test_empty_candidates_short_circuit(self):
        empty = CandidateSet(query="q", kind="entity", hits=())
        result = disambiguate("q", empty, "entity", GoldOracle(), gold={"Q1"})
        assert result.selected == ()
        assert result.failure == "no-candidates"


class TestRemoteBackend:
    def test_selection_and_off_list_tally(self, fake_server):
        fake_server.enqueue_chat("I think it is <answer>Q2, Q99, Q1</answer>")
        backend = RemoteReasoner(_client(fake_server.url))
        result = disambiguate("q", make_candidates(3), "entity", backend,
                              catalog=make_catalog(3))
        assert result.selected == ("Q2", "Q1")
        assert result.off_list == 1
        assert result.backend == "remote"

    def test_off_list_counts_repeated_tokens(self, fake_server):
        fake_server.enqueue_chat("<answer>Q99 Q1 Q99 P5 Q1 maybe</answer>")
        backend = RemoteReasoner(_client(fake_server.url))
        result = disambiguate("q", make_candidates(3), "entity", backend,
                              catalog=make_catalog(3))
        assert result.selected == ("Q1",)
        assert result.off_list == 3

    def test_retry_on_missing_markers(self, fake_server):
        fake_server.enqueue_chat("no markers, sorry")
        fake_server.enqueue_chat("<answer>Q1</answer>")
        backend = RemoteReasoner(_client(fake_server.url, retries=1))
        result = disambiguate("q", make_candidates(2), "entity", backend,
                              catalog=make_catalog(2))
        assert result.selected == ("Q1",)
        assert len(fake_server.requests) == 2

    def test_rejected_after_exhausted_parse_retries(self, fake_server):
        for _ in range(3):
            fake_server.enqueue_chat("still no markers")
        backend = RemoteReasoner(_client(fake_server.url, retries=2))
        result = disambiguate("q", make_candidates(2), "entity", backend,
                              catalog=make_catalog(2))
        assert result.selected == ()
        assert result.failure == "rejected-at-disambiguation"

    def test_transport_failure_raises(self):
        backend = RemoteReasoner(_client("http://127.0.0.1:1/", retries=0))
        with pytest.raises(DisambiguationError) as err:
            disambiguate("q", make_candidates(2), "entity", backend,
                         catalog=make_catalog(2))
        assert "m" in str(err.value)  # carries model diagnostics

    def test_prompt_sent_contains_candidates(self, fake_server):
        fake_server.enqueue_chat("<answer>Q1</answer>")
        backend = RemoteReasoner(_client(fake_server.url))
        disambiguate("which one?", make_candidates(2), "entity", backend,
                     catalog=make_catalog(2))
        sent = fake_server.requests[0].json()["messages"][0]["content"]
        assert "Q1 | label 1 | description 1" in sent
        assert "which one?" in sent
