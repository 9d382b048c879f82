"""Local execution vs exhaustive assignment enumeration."""

import gc
import itertools
import random

import pytest

from kgqa.kgstore import EntityRecord, PredicateRecord, snapshot_from_records
from kgqa.sparql import (
    EntityRef,
    Literal,
    LocalExecutor,
    PredicateRef,
    QueryAst,
    TriplePattern,
    Var,
    execute_local,
    parse,
    render,
)
from kgqa.sparql.answers import AnswerSet, normalize_term


def brute_force_answers(ast: QueryAst, triples) -> AnswerSet:
    """Assign every pattern variable over all terms seen in the KG and test
    each pattern by set membership. Mirrors only the stated semantics:
    solutions are distinct full assignments; SELECT projects the first
    variable; LIMIT truncates after sorting by the projected tuple."""
    triple_set = {tuple(t) for t in triples}
    universe = sorted({x for t in triple_set for x in t})
    variables = sorted({v.name for p in ast.patterns for v in
                        (p.subject, p.predicate, p.object) if isinstance(v, Var)})

    def value(term, assignment):
        if isinstance(term, Var):
            return assignment[term.name]
        if isinstance(term, Literal):
            return term.value
        return term.id

    solutions = []
    for combo in itertools.product(universe, repeat=len(variables)) \
            if variables else [()]:
        assignment = dict(zip(variables, combo))
        if all((value(p.subject, assignment), value(p.predicate, assignment),
                value(p.object, assignment)) in triple_set for p in ast.patterns):
            solutions.append(assignment)
    if ast.form == "ask":
        return AnswerSet.from_bool(bool(solutions))
    if ast.form == "count":
        if ast.count_distinct:
            return AnswerSet.of([str(len({s[ast.count_var] for s in solutions}))])
        return AnswerSet.of([str(len(solutions))])
    rows = [tuple(s[v] for v in ast.projection) for s in solutions]
    if ast.distinct:
        rows = set(rows)
    rows = sorted(rows)
    if ast.limit is not None:
        rows = rows[: ast.limit]
    return AnswerSet.of([normalize_term(r[0]) for r in rows])


def make_snapshot(triples):
    entity_ids = sorted({x for t in triples for x in (t[0], t[2])
                         if x.startswith("Q")} | {t[0] for t in triples})
    predicate_ids = sorted({t[1] for t in triples})
    return snapshot_from_records(
        [EntityRecord(e, e.lower()) for e in entity_ids],
        [PredicateRecord(p, p.lower()) for p in predicate_ids],
        triples,
    )


class TestWorkedExamples:
    def test_single_triple_select(self):
        snap = make_snapshot([("Q1", "P1", "Q2")])
        result = execute_local(parse("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"), snap)
        assert result.terms == {"Q2"}

    def test_two_hop_join(self):
        snap = make_snapshot([("Q1", "P1", "Q2"), ("Q2", "P1", "Q3")])
        ast = parse("SELECT ?x WHERE { wd:Q1 wdt:P1 ?y . ?y wdt:P1 ?x }")
        assert execute_local(ast, snap) == brute_force_answers(ast, snap.triples)
        assert execute_local(ast, snap).terms == {"Q3"}

    def test_count_two_subjects(self):
        snap = make_snapshot([("Q1", "P1", "Q2"), ("Q3", "P1", "Q2"),
                              ("Q3", "P2", "Q1")])
        ast = parse("SELECT (COUNT(?x) AS ?c) WHERE { ?x wdt:P1 wd:Q2 }")
        assert execute_local(ast, snap) == brute_force_answers(ast, snap.triples)
        assert execute_local(ast, snap).terms == {"2"}

    def test_ask_true_and_false(self):
        snap = make_snapshot([("Q1", "P1", "Q2")])
        assert execute_local(parse("ASK { wd:Q1 wdt:P1 wd:Q2 }"), snap).truth is True
        result = execute_local(parse("ASK { wd:Q1 wdt:P1 wd:Q1 }"), snap)
        assert result.truth is False
        assert result.terms == {"false"}  # an answer, not an empty set

    def test_literal_object_match(self):
        snap = make_snapshot([("Q1", "P8", "312500")])
        result = execute_local(parse('SELECT ?x WHERE { wd:Q1 wdt:P8 ?x }'), snap)
        assert result.terms == {"312500"}
        ask = execute_local(parse('ASK { wd:Q1 wdt:P8 "312500" }'), snap)
        assert ask.truth is True

    def test_predicate_variable(self):
        snap = make_snapshot([("Q1", "P1", "Q2"), ("Q1", "P2", "Q3")])
        result = execute_local(parse("SELECT ?p WHERE { wd:Q1 ?p ?o }"), snap)
        assert result.terms == {"P1", "P2"}

    def test_count_distinct(self):
        snap = make_snapshot([("Q1", "P1", "Q2"), ("Q3", "P1", "Q2"),
                              ("Q1", "P1", "Q4")])
        plain = execute_local(
            parse("SELECT (COUNT(?s) AS ?c) WHERE { ?s wdt:P1 ?o }"), snap)
        distinct = execute_local(
            parse("SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s wdt:P1 ?o }"), snap)
        assert plain.terms == {"3"}
        assert distinct.terms == {"2"}

    def test_distinct_dedupes_before_limit(self):
        snap = make_snapshot([("Q1", "P1", "Q2"), ("Q3", "P1", "Q2"),
                              ("Q1", "P1", "Q4")])
        plain = execute_local(
            parse("SELECT ?o WHERE { ?s wdt:P1 ?o } LIMIT 2"), snap)
        deduped = execute_local(
            parse("SELECT DISTINCT ?o WHERE { ?s wdt:P1 ?o } LIMIT 2"), snap)
        assert plain.terms == {"Q2"}  # two duplicate Q2 rows fill the limit
        assert deduped.terms == {"Q2", "Q4"}

    def test_limit_truncates_after_sorting(self):
        snap = make_snapshot([("Q1", "P1", "Q3"), ("Q1", "P1", "Q2"),
                              ("Q1", "P1", "Q10")])
        result = execute_local(parse("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x } LIMIT 2"),
                               snap)
        # Lexicographic ascending: Q10 < Q2 < Q3.
        assert result.terms == {"Q10", "Q2"}

    def test_empty_result(self):
        snap = make_snapshot([("Q1", "P1", "Q2")])
        result = execute_local(parse("SELECT ?x WHERE { wd:Q2 wdt:P1 ?x }"), snap)
        assert result.terms == set()

    def test_shared_variable_within_pattern(self):
        snap = make_snapshot([("Q1", "P1", "Q1"), ("Q1", "P1", "Q2")])
        result = execute_local(parse("SELECT ?x WHERE { ?x wdt:P1 ?x }"), snap)
        assert result.terms == {"Q1"}

    def test_multi_var_projection_first_variable(self):
        snap = make_snapshot([("Q1", "P1", "Q2"), ("Q3", "P1", "Q4")])
        ast = parse("SELECT ?s ?o WHERE { ?s wdt:P1 ?o }")
        assert execute_local(ast, snap).terms == {"Q1", "Q3"}


def random_kg(rng):
    n_entities = rng.randint(3, 10)
    n_predicates = rng.randint(1, 4)
    entities = [f"Q{i}" for i in range(1, n_entities + 1)]
    predicates = [f"P{i}" for i in range(1, n_predicates + 1)]
    literals = [f"lit{i}" for i in range(rng.randint(0, 3))]
    triples = set()
    for _ in range(rng.randint(1, 30)):
        triples.add((rng.choice(entities), rng.choice(predicates),
                     rng.choice(entities + literals)))
    return sorted(triples)


def random_query(rng, triples):
    """Grounded-ish generator: anchor some positions in existing terms."""
    entities = sorted({t[0] for t in triples})
    predicates = sorted({t[1] for t in triples})
    objects = sorted({t[2] for t in triples})
    variables = ["a", "b", "c"]

    def term(position):
        if rng.random() < 0.5:
            return Var(rng.choice(variables))
        if position == "predicate":
            return PredicateRef(rng.choice(predicates))
        if position == "subject":
            return EntityRef(rng.choice(entities))
        picked = rng.choice(objects)
        return EntityRef(picked) if picked.startswith("Q") else Literal(picked)

    while True:
        patterns = tuple(TriplePattern(term("subject"), term("predicate"),
                                       term("object"))
                         for _ in range(rng.randint(1, 3)))
        bound = set()
        for p in patterns:
            bound |= p.variables()
        ok = True
        for i, p in enumerate(patterns):
            own = p.variables()
            if len(own) == 3 and not any(own & q.variables()
                                         for j, q in enumerate(patterns) if j != i):
                ok = False
        if not ok:
            continue
        form = rng.choice(["select", "select", "ask", "count"])
        if form == "ask":
            return QueryAst(form="ask", patterns=patterns)
        if not bound:
            continue
        if form == "count":
            return QueryAst(form="count", patterns=patterns,
                            count_var=rng.choice(sorted(bound)),
                            count_alias="c",
                            count_distinct=rng.random() < 0.5)
        return QueryAst(form="select", patterns=patterns,
                        projection=(rng.choice(sorted(bound)),),
                        distinct=rng.random() < 0.3,
                        limit=rng.choice([None, None, rng.randint(1, 4)]))


class TestAgainstBruteForce:
    def test_random_trials(self):
        rng = random.Random(987654)
        for _ in range(200):
            triples = random_kg(rng)
            snap = make_snapshot(triples)
            ast = random_query(rng, triples)
            assert execute_local(ast, snap) == brute_force_answers(ast, triples), \
                render(ast)

    def test_pattern_order_permutation_equivalence(self):
        rng = random.Random(24)
        for _ in range(50):
            triples = random_kg(rng)
            snap = make_snapshot(triples)
            ast = random_query(rng, triples)
            if len(ast.patterns) < 2 or ast.limit is not None:
                continue
            permuted = QueryAst(
                form=ast.form,
                patterns=tuple(rng.sample(ast.patterns, len(ast.patterns))),
                projection=ast.projection, distinct=ast.distinct, limit=None,
                count_var=ast.count_var, count_alias=ast.count_alias,
                count_distinct=ast.count_distinct,
            )
            assert execute_local(ast, snap) == execute_local(permuted, snap)


class TestLocalExecutor:
    def test_run_parses_and_executes(self, toy_snapshot):
        executor = LocalExecutor(toy_snapshot)
        assert executor.run("SELECT ?x WHERE { wd:Q1 wdt:P2 ?x }").terms == {"Q2"}

    def test_run_propagates_parse_errors(self, toy_snapshot):
        from kgqa.errors import QueryParseError
        with pytest.raises(QueryParseError):
            LocalExecutor(toy_snapshot).run("SELECT ?x WHERE { FILTER(?x) }")

    def test_run_leaves_no_reference_cycles(self, toy_snapshot):
        """A run frees what it built by reference counting alone, so a
        question leaves nothing for the cyclic collector."""
        executor = LocalExecutor(toy_snapshot)
        query = "SELECT ?x WHERE { wd:Q1 wdt:P2 ?y . ?y ?p ?x }"
        executor.run(query)  # fill the snapshot's lookup pools first
        gc.collect()
        gc.disable()
        try:
            assert executor.run(query).terms
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAnswerNormalization:
    def test_entity_uri_collapses(self):
        assert normalize_term("http://www.wikidata.org/entity/Q42") == "Q42"

    def test_property_uri_collapses(self):
        assert normalize_term("http://www.wikidata.org/prop/direct/P31") == "P31"

    def test_literal_passthrough(self):
        assert normalize_term("1968-01-01T00:00:00Z") == "1968-01-01T00:00:00Z"

    def test_idempotent(self):
        rng = random.Random(3)
        values = ["http://www.wikidata.org/entity/Q42", "Q42", "paris",
                  "https://example.org/name", "12.5", ""]
        for value in values + [f"Q{rng.randint(1, 999)}" for _ in range(20)]:
            once = normalize_term(value)
            assert normalize_term(once) == once
