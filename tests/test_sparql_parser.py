"""Grammar coverage, error classification, and the render/parse fixed point."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.errors import QueryParseError
from kgqa.sparql import EntityRef, Literal, PredicateRef, QueryAst, TriplePattern, Var, parse, render


class TestAcceptedGrammar:
    def test_minimal_select(self):
        ast = parse("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }")
        assert ast.form == "select"
        assert ast.projection == ("x",)
        assert len(ast.patterns) == 1
        assert ast.patterns[0] == TriplePattern(EntityRef("Q1"), PredicateRef("P1"),
                                                Var("x"))

    def test_ask_form(self):
        ast = parse("ASK { wd:Q1 wdt:P1 wd:Q2 }")
        assert ast.form == "ask"
        assert ast.patterns[0].object == EntityRef("Q2")

    def test_count_form(self):
        ast = parse("SELECT (COUNT(?x) AS ?c) WHERE { ?x wdt:P1 wd:Q2 }")
        assert ast.form == "count"
        assert ast.count_var == "x"
        assert ast.count_alias == "c"
        assert not ast.count_distinct

    def test_count_distinct(self):
        ast = parse("SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x wdt:P1 ?y }")
        assert ast.count_distinct

    def test_outer_distinct_on_count_is_dropped(self):
        # DISTINCT over the single aggregate row is a no-op; parsing
        # normalizes it away so the canonical form is a fixed point.
        text = "SELECT DISTINCT (COUNT(?x) AS ?c) WHERE { ?x wdt:P1 ?y }"
        ast = parse(text)
        assert not ast.distinct
        assert parse(render(ast)) == ast

    def test_distinct_and_limit(self):
        ast = parse("SELECT DISTINCT ?a ?b WHERE { ?a wdt:P1 ?b } LIMIT 7")
        assert ast.distinct
        assert ast.projection == ("a", "b")
        assert ast.limit == 7

    def test_prefix_declarations_ignored(self):
        text = (
            "PREFIX wd: <http://www.wikidata.org/entity/> "
            "PREFIX wdt: <http://www.wikidata.org/prop/direct/> "
            "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
            "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"
        )
        assert parse(text).form == "select"

    def test_case_insensitive_keywords(self):
        ast = parse("select ?x where { wd:Q1 wdt:P1 ?x } limit 2")
        assert ast.limit == 2

    def test_where_optional_for_ask(self):
        assert parse("ASK WHERE { wd:Q1 wdt:P1 ?x }").form == "ask"

    def test_multiple_patterns_with_trailing_dot(self):
        ast = parse("SELECT ?x WHERE { wd:Q1 wdt:P1 ?y . ?y wdt:P2 ?x . }")
        assert len(ast.patterns) == 2

    def test_string_literal_with_escapes(self):
        ast = parse(r'SELECT ?x WHERE { ?x wdt:P1 "a \"quoted\" value" }')
        assert ast.patterns[0].object == Literal('a "quoted" value')

    def test_numeric_literal(self):
        ast = parse("SELECT ?x WHERE { ?x wdt:P8 312500 }")
        assert ast.patterns[0].object == Literal("312500")

    def test_predicate_variable(self):
        ast = parse("SELECT ?p WHERE { wd:Q1 ?p wd:Q2 }")
        assert ast.patterns[0].predicate == Var("p")

    def test_comments_skipped(self):
        ast = parse("# leading comment\nSELECT ?x WHERE { wd:Q1 wdt:P1 ?x }")
        assert ast.form == "select"


class TestRejectedSyntax:
    def test_unbound_projection(self):
        with pytest.raises(QueryParseError) as err:
            parse("SELECT ?z WHERE { wd:Q1 wdt:P1 ?x }")
        assert err.value.kind == "syntax-error"
        assert "?z" in str(err.value)

    def test_unconstrained_isolated_pattern(self):
        with pytest.raises(QueryParseError):
            parse("SELECT ?a WHERE { ?a ?b ?c }")

    def test_unconstrained_pattern_ok_when_shared(self):
        ast = parse("SELECT ?a WHERE { ?a ?b ?c . ?c wdt:P1 wd:Q1 }")
        assert len(ast.patterns) == 2

    def test_error_names_token_and_offset(self):
        with pytest.raises(QueryParseError) as err:
            parse("SELECT ?x FROM { wd:Q1 wdt:P1 ?x }")
        assert "FROM" in str(err.value)
        assert err.value.offset == 10

    def test_limit_requires_positive_integer(self):
        for bad in ("LIMIT 0", "LIMIT -3", "LIMIT 2.5", "LIMIT x"):
            with pytest.raises(QueryParseError):
                parse(f"SELECT ?x WHERE {{ wd:Q1 wdt:P1 ?x }} {bad}")

    def test_literal_subject_rejected(self):
        with pytest.raises(QueryParseError) as err:
            parse('SELECT ?x WHERE { "lit" wdt:P1 ?x }')
        assert err.value.kind == "syntax-error"

    def test_entity_in_predicate_position(self):
        with pytest.raises(QueryParseError):
            parse("SELECT ?x WHERE { wd:Q1 wd:Q2 ?x }")

    def test_wdt_in_subject_position(self):
        with pytest.raises(QueryParseError):
            parse("SELECT ?x WHERE { wdt:P1 wdt:P2 ?x }")

    def test_empty_query(self):
        with pytest.raises(QueryParseError):
            parse("   ")

    def test_unterminated_group(self):
        with pytest.raises(QueryParseError):
            parse("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x")


class TestUnsupportedConstructs:
    @pytest.mark.parametrize("query", [
        "SELECT ?x WHERE { ?x wdt:P1 ?y FILTER(?y > 5) }",
        "SELECT ?x WHERE { OPTIONAL { wd:Q1 wdt:P1 ?x } }",
        "SELECT ?x WHERE { { wd:Q1 wdt:P1 ?x } UNION { wd:Q2 wdt:P1 ?x } }",
        "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x } ORDER BY ?x",
        "SELECT ?x WHERE { wd:Q1 p:P31 ?x }",
        "SELECT ?x WHERE { ?s ps:P31 ?x . ?s wdt:P1 wd:Q1 }",
        "SELECT ?x WHERE { wd:Q1 pq:P580 ?x }",
        "SELECT ?x WHERE { wd:Q1 wdt:P31/wdt:P279 ?x }",
        "SELECT ?x WHERE { wd:Q1 rdfs:label ?x }",
        "SELECT ?x WHERE { ?x a wd:Q5 . ?x wdt:P1 wd:Q1 }",
        "SELECT ?x WHERE { <http://www.wikidata.org/entity/Q42> wdt:P1 ?x }",
        "SELECT (SUM(?x) AS ?s) WHERE { ?y wdt:P1 ?x }",
        "SELECT * WHERE { wd:Q1 wdt:P1 ?x }",
        "CONSTRUCT { ?x wdt:P1 ?y } WHERE { ?x wdt:P1 ?y }",
        "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x } OFFSET 5",
    ])
    def test_classified_unsupported(self, query):
        with pytest.raises(QueryParseError) as err:
            parse(query)
        assert err.value.kind == "unsupported-construct", query

    def test_plain_garbage_is_syntax_error(self):
        with pytest.raises(QueryParseError) as err:
            parse("SELEC ?x WHERE { }")
        assert err.value.kind == "syntax-error"


def random_ast(rng: random.Random) -> QueryAst:
    variables = ["a", "b", "c"]

    def term(position):
        roll = rng.random()
        if roll < 0.45:
            return Var(rng.choice(variables))
        if position == "predicate":
            return PredicateRef(f"P{rng.randint(1, 9)}")
        if roll < 0.8 or position == "subject":
            return EntityRef(f"Q{rng.randint(1, 9)}")
        if rng.random() < 0.5:
            return Literal(rng.choice(["plain", 'with "quotes"', "back\\slash", "5"]))
        return Literal(str(rng.randint(0, 99)))

    while True:
        patterns = tuple(
            TriplePattern(term("subject"), term("predicate"), term("object"))
            for _ in range(rng.randint(1, 3))
        )
        bound = set()
        for p in patterns:
            bound |= p.variables()
        valid = True
        for i, p in enumerate(patterns):
            own = p.variables()
            if len(own) == 3 and not any(own & q.variables()
                                         for j, q in enumerate(patterns) if j != i):
                valid = False
        if not valid:
            continue
        form = rng.choice(["select", "ask", "count"])
        if form == "ask":
            return QueryAst(form="ask", patterns=patterns)
        if not bound:
            continue
        if form == "count":
            return QueryAst(
                form="count", patterns=patterns,
                count_var=rng.choice(sorted(bound)), count_alias="total",
                count_distinct=rng.random() < 0.5,
                limit=rng.choice([None, rng.randint(1, 5)]),
            )
        projection = tuple(rng.sample(sorted(bound), rng.randint(1, len(bound))))
        return QueryAst(
            form="select", patterns=patterns, projection=projection,
            distinct=rng.random() < 0.3,
            limit=rng.choice([None, rng.randint(1, 5)]),
        )


class TestRenderFixedPoint:
    def test_render_parse_round_trip(self):
        rng = random.Random(424242)
        for _ in range(500):
            ast = random_ast(rng)
            text = render(ast)
            reparsed = parse(text)
            assert reparsed == ast, text
            assert render(reparsed) == text

    def test_literal_canonicalization(self):
        # Bare numbers render quoted; the rendered form is the fixed point.
        first = parse("SELECT ?x WHERE { ?x wdt:P8 312500 }")
        text = render(first)
        assert '"312500"' in text
        assert parse(text) == first


# --- properties ------------------------------------------------------------

# Seeded, so the suite checks the same inputs on every run, and without an
# example database, so a run leaves no files behind.
PROPERTY_SETTINGS = settings(max_examples=400, derandomize=True, database=None,
                             deadline=None)

_SUBJECTS = ["?a", "?b", "wd:Q1", "wd:Q42"]
_PREDICATES = ["wdt:P1", "wdt:P7", "?c"]
_OBJECTS = ["?a", "?b", "wd:Q42", '"x"', r'"say \"hi\""', r'"back\\slash"',
            "'single'", "12", "-4", "3.5"]
_HEADS = ["SELECT ?a", "SELECT ?a ?b", "SELECT DISTINCT ?a", "select ?a where",
          "SELECT (COUNT(?a) AS ?n)", "SELECT DISTINCT (COUNT(DISTINCT ?a) AS ?n)",
          "ASK", "ASK WHERE", "PREFIX wd: <http://www.wikidata.org/entity/> ASK"]
_PATTERN = st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES),
                     st.sampled_from(_OBJECTS)).map(" ".join)

# Queries built from the grammar's own pieces, so that many of them parse.
QUERIES = st.builds(
    lambda head, where, patterns, dot, limit:
        f"{head}{where} {{ {' . '.join(patterns)}{dot} }}{limit}",
    st.sampled_from(_HEADS), st.sampled_from(["", " WHERE"]),
    st.lists(_PATTERN, min_size=1, max_size=3), st.sampled_from(["", " ."]),
    st.sampled_from(["", " LIMIT 3", " limit 1", " LIMIT 0", " LIMIT 2.5"]))
# Token soup: the grammar's tokens, and some it rejects, in any order.
TOKEN_SOUP = st.lists(st.sampled_from(
    _SUBJECTS + _PREDICATES + _OBJECTS
    + ["SELECT", "ASK", "WHERE", "DISTINCT", "COUNT", "AS", "LIMIT", "PREFIX",
       "FILTER", "OPTIONAL", "OFFSET", "a", "wd:", "p:P31", "<http://x/>", "{", "}",
       "(", ")", ".", "*", "/", "#note\n", '"open', "\u00e9"]),
    max_size=14).map(" ".join)


class TestParserProperties:
    @PROPERTY_SETTINGS
    @given(st.one_of(st.text(), TOKEN_SOUP, QUERIES))
    def test_parse_raises_only_query_parse_error(self, text):
        try:
            ast = parse(text)
        except QueryParseError:
            return
        assert isinstance(ast, QueryAst)

    @PROPERTY_SETTINGS
    @given(QUERIES)
    def test_render_of_parse_is_a_fixed_point(self, text):
        try:
            ast = parse(text)
        except QueryParseError:
            return
        canonical = render(ast)
        assert parse(canonical) == ast
        assert render(parse(canonical)) == canonical
