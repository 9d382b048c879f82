"""Traced per-question runner: spans around each layer's public functions.

``traced_example`` calls the layers in ``kgqa.pipeline.run_example``'s
order (gold execution, entity and predicate search, both
disambiguations, the ontology filter, generation, execution, scoring)
and returns the same ``PipelineOutcome``, so its answers can be compared
with the untraced run question by question. Spans live in memory, one
list per thread, until ``Tracer.spans`` collects them after the run.

Counters that would cost too much as spans (snapshot ``match`` calls)
are kept per thread by ``Tracer.count``. HTTP attempts of the chat and
SPARQL clients are spans recorded by ``CountingSession``, which the
clients take through their public ``session`` argument.
"""

import threading
import time
from contextlib import contextmanager

import requests

from kgqa.disambiguation import disambiguate
from kgqa.errors import ExecutionError, GenerationError, KgqaError, QueryParseError
from kgqa.generation import GenerationRequest, generate
from kgqa.guard import (
    STAGE_ACCEPTED,
    STAGE_EMPTY,
    STAGE_EXECUTION_ERROR,
    STAGE_FILTER,
    STAGE_PARSE,
    GuardVerdict,
    check_entity_mismatch,
    strict_check_entity_mismatch,
)
from kgqa.metrics import score
from kgqa.pipeline import PipelineOutcome
from kgqa.sparql import AnswerSet, LocalExecutor, execute_local, parse


class Span:
    __slots__ = ("sid", "parent", "name", "qid", "start", "end", "attrs")

    def __init__(self, sid, parent, name, qid):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.qid = qid
        self.start = time.perf_counter()
        self.end = None
        self.attrs = {}

    def to_dict(self):
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "question": self.qid, "start": self.start, "end": self.end,
                **self.attrs}


class _ThreadState:
    def __init__(self, index):
        self.index = index
        self.stack = []
        self.spans = []
        self.counts = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    @contextmanager
    def span(self, name, qid=None):
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        span = Span(f"{state.index}:{len(state.spans)}",
                    parent.sid if parent else None, name,
                    qid if qid is not None else (parent.qid if parent else None))
        state.spans.append(span)
        state.stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            state.stack.pop()

    def count(self, name, n=1):
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def spans(self):
        """All spans and summed counters; call after every worker has ended."""
        spans = [s for state in self._states for s in state.spans]
        counts = {}
        for state in self._states:
            for name, n in state.counts.items():
                counts[name] = counts.get(name, 0) + n
        return spans, counts


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.sid: (s.end - s.start) - child_time.get(s.sid, 0.0) for s in spans}


def plain_session():
    """A requests session that ignores proxy settings from the environment."""
    session = requests.Session()
    session.trust_env = False
    return session


class CountingSession:
    """Session stand-in that records one span per HTTP attempt."""

    def __init__(self, tracer, name):
        self._session = plain_session()
        self._tracer = tracer
        self._name = name

    def get(self, url, **kwargs):
        return self._send("get", url, kwargs)

    def post(self, url, **kwargs):
        return self._send("post", url, kwargs)

    def _send(self, method, url, kwargs):
        with self._tracer.span(self._name) as span:
            response = getattr(self._session, method)(url, **kwargs)
            span.attrs["status"] = response.status_code
        return response

    def close(self):
        self._session.close()


class CountingSnapshot:
    """Forwards to a Snapshot, counting ``match`` calls and returned rows."""

    def __init__(self, snapshot, tracer):
        self._snapshot = snapshot
        self._tracer = tracer

    def match(self, s=None, p=None, o=None):
        rows = self._snapshot.match(s, p, o)
        self._tracer.count("kgstore.match_calls")
        self._tracer.count("kgstore.match_rows", len(rows))
        return rows

    def __getattr__(self, name):
        return getattr(self._snapshot, name)


def _candidate_records(index, ids):
    return tuple((i, index.by_id[i].label, index.by_id[i].description) for i in ids)


def traced_example(example, cfg, tracer, counting_snapshot):
    """``run_example`` with a span around every layer call."""
    outcome = PipelineOutcome(question_id=example.id, dataset=example.dataset,
                              question=example.question)
    local = isinstance(cfg.executor, LocalExecutor)

    def execute(query_text):
        if not local:
            with tracer.span("sparql.execute"):
                return cfg.executor.run(query_text)
        with tracer.span("sparql.parse"):
            ast = parse(query_text)
        with tracer.span("sparql.execute"):
            answers = execute_local(ast, counting_snapshot)
        tracer.count("sparql.answer_terms", len(answers.terms))
        return answers

    with tracer.span("question", example.id):
        try:
            gold = execute(example.gold_query)
        except KgqaError as exc:
            outcome.error = f"gold query failed: {exc}"
            gold = AnswerSet.empty()
        outcome.gold_answers = tuple(gold.sorted_terms())

        with tracer.span("retrieval.search") as span:
            span.attrs["kind"] = "entity"
            entity_candidates = cfg.entity_index.search(example.question, cfg.k)
        with tracer.span("retrieval.search") as span:
            span.attrs["kind"] = "predicate"
            predicate_candidates = cfg.predicate_index.search(example.question, cfg.k)
        with tracer.span("disambiguation") as span:
            entity_sel = disambiguate(example.question, entity_candidates, "entity",
                                      cfg.disambiguator, catalog=cfg.entity_index.by_id,
                                      gold=example.gold_entities)
            span.attrs.update(selected=len(entity_sel.selected), off_list=entity_sel.off_list)
        with tracer.span("disambiguation") as span:
            predicate_sel = disambiguate(example.question, predicate_candidates,
                                         "predicate", cfg.disambiguator,
                                         catalog=cfg.predicate_index.by_id,
                                         gold=example.gold_predicates)
            span.attrs.update(selected=len(predicate_sel.selected),
                              off_list=predicate_sel.off_list)
        outcome.entity_candidates = entity_candidates.hits
        outcome.predicate_candidates = predicate_candidates.hits
        outcome.entities_selected = entity_sel.selected
        outcome.predicates_selected = predicate_sel.selected
        gold_entities = set(example.gold_entities)
        tracer.count("retrieval.entity_recall_sum",
                     len(gold_entities & set(entity_candidates.ids())) / len(gold_entities)
                     if gold_entities else 0.0)

        verdict = _guard(example, cfg, tracer, execute, entity_sel, predicate_sel)
        outcome.verdict = verdict
        outcome.query_text = verdict.query_text
        predicted = verdict.answers if verdict.accepted else AnswerSet.empty()
        outcome.answers = tuple(predicted.sorted_terms())
        with tracer.span("metrics.score"):
            outcome.metrics = score(gold, predicted)
    return outcome


def _guard(example, cfg, tracer, execute, entity_sel, predicate_sel):
    """``guard_pipeline``'s stages, each call under its own span."""
    entities, predicates = set(entity_sel.selected), set(predicate_sel.selected)
    if cfg.policy.filter != "off":
        checker = (strict_check_entity_mismatch if cfg.policy.filter == "strict"
                   else check_entity_mismatch)
        with tracer.span("guard.filter") as span:
            mismatch = checker(cfg.snapshot, entities, predicates)
            span.attrs["rejected"] = mismatch
        if mismatch:
            return GuardVerdict(accepted=False, stage=STAGE_FILTER,
                                detail=(f"no selected entity relates to the selected "
                                        f"predicates (entities={sorted(entities)}, "
                                        f"predicates={sorted(predicates)})"))
    request = GenerationRequest(
        question=example.question,
        entities=_candidate_records(cfg.entity_index, entity_sel.selected),
        predicates=_candidate_records(cfg.predicate_index, predicate_sel.selected),
        fewshot_examples=cfg.fewshot_examples, question_id=example.id,
    )
    with tracer.span("generation") as span:
        try:
            query_text = generate(request, cfg.generator).query_text
        except GenerationError as exc:
            span.attrs["failed"] = True
            return GuardVerdict(accepted=False, stage=STAGE_PARSE,
                                detail=f"no query generated: {exc}")
    try:
        answers = execute(query_text)
    except QueryParseError as exc:
        return GuardVerdict(accepted=False, stage=STAGE_PARSE, detail=str(exc),
                            query_text=query_text)
    except ExecutionError as exc:
        return GuardVerdict(accepted=False, stage=STAGE_EXECUTION_ERROR,
                            detail=str(exc), query_text=query_text)
    if cfg.policy.execution and not answers.terms:
        return GuardVerdict(accepted=False, stage=STAGE_EMPTY,
                            detail="query returned no results",
                            query_text=query_text, answers=answers)
    return GuardVerdict(accepted=True, stage=STAGE_ACCEPTED,
                        query_text=query_text, answers=answers)
