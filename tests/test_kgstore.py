"""Snapshot loading, relation profiles, and degree pruning."""

import gc
import json
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from kgqa import cache, kgstore
from kgqa import data as toy_data
from kgqa.errors import LoadError, NotFoundError
from kgqa.kgstore import (
    SNAPSHOT_FORMAT,
    EntityRecord,
    PredicateRecord,
    Triple,
    TripleTable,
    _degrees,
    get_entity_relations,
    load_snapshot,
    prune_by_degree,
    read_jsonl,
    relation_profile_or_empty,
    snapshot_from_records,
)


def brute_force_profile(triples, entity):
    """Independent oracle: scan every triple, object side checked first."""
    incoming, outgoing = set(), set()
    for s, r, o in triples:
        if o == entity:
            incoming.add(r)
        elif s == entity:
            outgoing.add(r)
    return incoming, outgoing


class TestLoadSnapshot:
    def test_single_triple_profile(self, snapshot_files):
        files = snapshot_files(
            [("Q1", "one"), ("Q2", "two"), ("Q3", "three")],
            [("P1", "rel"), ("P2", "rel2")],
            [("Q1", "P1", "Q2")],
        )
        snap = load_snapshot(*files)
        assert snap.profiles["Q2"].incoming == {"P1"}
        assert snap.profiles["Q2"].outgoing == set()
        assert snap.entities["Q1"].degree == 1

    def test_empty_triple_file(self, snapshot_files):
        files = snapshot_files([("Q1", "one"), ("Q2", "two")], [("P1", "rel")], [])
        snap = load_snapshot(*files)
        assert all(rec.degree == 0 for rec in snap.entities.values())
        assert all(not p.incoming and not p.outgoing for p in snap.profiles.values())

    def test_unknown_predicate_is_named_with_line(self, snapshot_files):
        files = snapshot_files(
            [("Q1", "one"), ("Q2", "two")], [("P1", "rel")],
            [("Q1", "P1", "Q2"), ("Q1", "P99", "Q2")],
        )
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert "P99" in str(err.value)
        assert ":2" in str(err.value)

    def test_unknown_subject_and_object(self, snapshot_files):
        files = snapshot_files(
            [("Q1", "one")], [("P1", "rel")],
            [("Q9", "P1", "Q1"), ("Q1", "P1", "Q8")],
        )
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert "Q9" in str(err.value) and "Q8" in str(err.value)

    def test_duplicate_entity_id(self, snapshot_files):
        files = snapshot_files(
            [("Q1", "one"), ("Q1", "again")], [("P1", "rel")], [])
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert "duplicate" in str(err.value)

    def test_aliases_must_be_an_array(self, snapshot_files):
        files = snapshot_files(
            [], [("P1", "rel")], [],
            entity_lines=['{"id": "Q1", "label": "a", "aliases": "b"}',
                          '{"id": "Q2", "label": "b", "aliases": null}',
                          '{"id": "Q3", "label": "c", "aliases": {"x": 1}}'])
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert err.value.offenders == [(str(files[0]), 1, "aliases must be an array"),
                                       (str(files[0]), 3, "aliases must be an array")]

    def test_catalog_fields_must_have_their_types(self, snapshot_files):
        files = snapshot_files(
            [], [], [],
            entity_lines=['{"id": "Q1", "label": null}',
                          '{"id": "Q2", "label": "b", "aliases": [null, 3]}',
                          '{"id": "Q3", "label": 7, "description": 8}',
                          '{"id": "Q4", "label": "d", "description": ["x"]}',
                          "{bad",
                          '{"id": "Q5", "label": "e", "aliases": ["x", {}]}',
                          '{"id": "Q6", "label": "f", "aliases": ""}',
                          '{"id": "Q7", "label": "", "description": null, "aliases": null}'])
        files[1].write_text('{"id": "P1", "label": null}\n{"id": "P2", "label": ""}\n'
                            '{"id": "P3", "label": "c", "description": 3}\n'
                            '{"id": "P4", "label": "d", "description": null}\n',
                            encoding="utf-8")
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        entity_file, predicate_file = map(str, files[:2])
        assert err.value.offenders[:10] == [
            (entity_file, 5, "invalid JSON: Expecting property name enclosed in double quotes"),
            (entity_file, 1, "label must be a string"),
            (entity_file, 2, "aliases must be an array of strings"),
            (entity_file, 3, "label must be a string"),
            (entity_file, 4, "description must be a string"),
            (entity_file, 6, "aliases must be an array of strings"),
            (entity_file, 7, "aliases must be an array"),
            (predicate_file, 1, "label must be a string"),
            (predicate_file, 2, "empty label"),
            (predicate_file, 3, "description must be a string"),
        ]
        assert err.value.total == 10

    def test_null_description_and_aliases_read_as_absent(self, snapshot_files):
        files = snapshot_files(
            [], [], [],
            entity_lines=['{"id": "Q1", "label": "", "description": null, "aliases": null}'])
        files[1].write_text('{"id": "P1", "label": "r", "description": null}\n',
                            encoding="utf-8")
        snap = load_snapshot(*files)
        assert snap.entities["Q1"] == EntityRecord("Q1", "", "", ())
        assert snap.predicates["P1"] == PredicateRecord("P1", "r", "")

    def test_duplicate_predicate_id(self, snapshot_files):
        files = snapshot_files([("Q1", "one")], [], [])
        files[1].write_text('{"id": "P1", "label": "a"}\n{"id": "P2", "label": "b"}\n'
                            '{"id": "P1", "label": "c"}\n', encoding="utf-8")
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert err.value.offenders == [(str(files[1]), 3, "duplicate predicate id P1")]

    def test_malformed_json_line_reports_lineno(self, snapshot_files):
        files = snapshot_files(
            [], [("P1", "rel")], [],
            entity_lines=['{"id": "Q1", "label": "ok"}', "{not json"],
        )
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert ":2" in str(err.value)

    def test_jsonl_rows_judged_like_json_loads(self, tmp_path):
        lines = ['{"id": "Q1", "label": "ok"}', "{not json", '{"id": "Q2"} extra',
                 '{"id": "Q3", "label": "x",}', "\ufeff{\"id\": \"Q4\", \"label\": \"b\"}",
                 '["id", "label"]', "42", '"Q5"', "null", '{"label": "no id"}', "{}",
                 '{"id": "Q6", "label": NaN}', '  {"id": "Q7", "label": "pad"}  ',
                 '{"id": "Q8", "label": "a"}{"id": "Q9"}', '{"id": "Q10", "label": "\\u00e9"}',
                 '{"id": 11, "label": [1, {"a": null}], "id": "Q11"}', '{"id": "Q12", "label"',
                 '{"id": "Q13", "label": "\\ud800"}', "[", "", "   "]
        path = tmp_path / "rows.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected_rows, expected_offenders = [], []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                expected_offenders.append((str(path), lineno, f"invalid JSON: {exc.msg}"))
                continue
            if not isinstance(obj, dict):
                expected_offenders.append((str(path), lineno, "expected a JSON object"))
                continue
            missing = [k for k in ("id", "label") if k not in obj]
            if missing:
                expected_offenders.append(
                    (str(path), lineno, f"missing keys: {', '.join(missing)}"))
                continue
            expected_rows.append((lineno, obj))
        offenders = []
        assert list(read_jsonl(path, ("id", "label"), offenders)) == expected_rows
        assert offenders == expected_offenders
        assert len(expected_rows) == 6 and len(offenders) == 13

    def test_bad_column_count(self, snapshot_files):
        files = snapshot_files(
            [("Q1", "one")], [("P1", "rel")], [],
            triple_lines=["Q1\tP1"],
        )
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert "3 tab-separated" in str(err.value)

    def test_id_with_trailing_newline_is_bad(self, snapshot_files):
        files = snapshot_files(
            [], [], [],
            entity_lines=['{"id": "Q1\\n", "label": "x"}', '{"id": "Q2", "label": "y"}'])
        files[1].write_text('{"id": "P7\\n", "label": "r"}\n', encoding="utf-8")
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert err.value.offenders == [
            (str(files[0]), 1, "bad entity id 'Q1\\n'"),
            (str(files[1]), 1, "bad predicate id 'P7\\n'"),
        ]

    def test_literal_objects_kept_verbatim(self, snapshot_files):
        files = snapshot_files(
            [("Q1", "one")], [("P1", "rel")],
            [("Q1", "P1", "  1968-01-01 ")],
        )
        snap = load_snapshot(*files)
        assert snap.triples[0].object == "  1968-01-01 "

    def test_input_degree_ignored(self, snapshot_files):
        files = snapshot_files(
            [], [("P1", "rel")], [],
            entity_lines=['{"id": "Q1", "label": "x", "degree": 42, "extra": true}'],
        )
        snap = load_snapshot(*files)
        assert snap.entities["Q1"].degree == 0

    def test_offender_list_truncated_to_ten(self, snapshot_files):
        triples = [("Q1", f"P{90 + i}", "Q1") for i in range(15)]
        files = snapshot_files([("Q1", "one")], [("P1", "rel")], triples)
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert err.value.total == 15
        assert len(err.value.offenders) == 15
        assert "and 5 more" in str(err.value)

    def test_catalog_checks_follow_the_files_parse_errors(self, snapshot_files):
        files = snapshot_files(
            [], [], [],
            entity_lines=['{"id": "X1", "label": "x"}', "{not json", '{"id": "Q2"}'])
        files[1].write_text('{"id": "P1", "label": ""}\n[1]\n', encoding="utf-8")
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert [(where, lineno) for where, lineno, _ in err.value.offenders] == [
            (str(files[0]), 2), (str(files[0]), 3), (str(files[0]), 1),
            (str(files[1]), 2), (str(files[1]), 1),
        ]

    def test_triple_offenders_in_line_order(self, snapshot_files):
        files = snapshot_files(
            [("Q1", "one")], [("P1", "rel")], [],
            triple_lines=["Q1\tP1\tQ7", "Q1\tP1", "Q9\tP1\tQ1", "Q1\tP1\tlit", "Q1"])
        with pytest.raises(LoadError) as err:
            load_snapshot(*files)
        assert [lineno for _, lineno, _ in err.value.offenders] == [1, 2, 3, 5]
        assert err.value.total == 4

    def test_catalog_rows_are_read_one_at_a_time(self, snapshot_files):
        files = snapshot_files(
            [], [], [], entity_lines=['{"id": "Q1", "label": "a"}', "{not json"])
        offenders = []
        rows = read_jsonl(files[0], ("id", "label"), offenders)
        assert next(rows) == (1, {"id": "Q1", "label": "a"})
        assert offenders == []
        assert list(rows) == []
        assert [lineno for _, lineno, _ in offenders] == [2]

    def test_repeat_load_identical(self, snapshot_files):
        files = snapshot_files(
            [("Q1", "one"), ("Q2", "two")], [("P1", "rel")],
            [("Q1", "P1", "Q2"), ("Q1", "P1", "lit")],
        )
        a = load_snapshot(*files)
        b = load_snapshot(*files)
        assert a.triples == b.triples
        assert a.profiles == b.profiles
        assert a.entities == b.entities


def random_rows(rng):
    """Catalog and triple rows with duplicates, self-loops, literal objects
    and (usually) isolated entities."""
    n_entities, n_predicates = rng.randint(1, 10), rng.randint(1, 4)
    entities = [EntityRecord(f"Q{i}", f"e{i}", rng.choice(["", f"d{i}"]),
                             tuple(f"a{i}.{j}" for j in range(rng.randint(0, 2))))
                for i in range(1, n_entities + 1)]
    predicates = [PredicateRecord(f"P{i}", f"p{i}") for i in range(1, n_predicates + 1)]
    literals = ["lit", " 1968-01-01 ", "42", "Q1x", "P1"]
    triples = []
    for _ in range(rng.randint(0, 40)):
        s = f"Q{rng.randint(1, n_entities)}"
        o = rng.choice([s, f"Q{rng.randint(1, n_entities)}", rng.choice(literals)])
        triples.append((s, f"P{rng.randint(1, n_predicates)}", o))
    triples += rng.sample(triples, len(triples) // 3)
    return entities, predicates, triples


def write_rows(files, entities, predicates, triples):
    return files(
        [(e.id, e.label, e.description, list(e.aliases)) for e in entities],
        [(p.id, p.label, p.description) for p in predicates], triples)


def snapshot_reads(snap, drop=()):
    """Every public read, in order: records, profiles, triples and the match
    pool of every subject, object and predicate key; ``drop`` ids left out."""
    triples = list(snap.triples)
    return {
        "entities": [(e, r) for e, r in snap.entities.items() if e not in drop],
        "predicates": list(snap.predicates.items()),
        "profiles": [(e, p) for e, p in snap.profiles.items() if e not in drop],
        "triples": triples,
        "by_subject": [snap.match(s=e) for e in snap.entities if e not in drop],
        "by_object": [snap.match(o=o) for o in dict.fromkeys(t.object for t in triples)],
        "by_predicate": [snap.match(p=p) for p in snap.predicates],
    }


def assert_same_snapshot(a, b, drop=()):
    """Equal read by read, dict and tuple order included."""
    reads_a, reads_b = snapshot_reads(a, drop), snapshot_reads(b, drop)
    for name in reads_a:
        assert reads_a[name] == reads_b[name], name


def assert_pools(snap, expected, rng):
    """Every subject, object and predicate pool, first touched in a random
    order before anything else is read, equals a scan of ``expected``; a row
    reached through any of its pools or through ``triples`` is one object."""
    keys = [("s", e) for e in snap.entities] + [("p", p) for p in snap.predicates]
    keys += [("o", o) for o in dict.fromkeys(t[2] for t in expected)]
    rng.shuffle(keys)
    position = {"s": 0, "p": 1, "o": 2}
    seen = {}
    for kind, key in keys:
        pool = snap.match(**{kind: key})
        assert pool == tuple(t for t in expected if t[position[kind]] == key)
        for t in pool:
            assert seen.setdefault(t, t) is t
    assert list(snap.triples) == expected
    assert all(seen[t] is t for t in snap.triples)


def assert_profile_sets_shared(snap):
    """Equal predicate sets are one object: as many objects as distinct sets."""
    sets = [s for p in snap.profiles.values() for s in (p.incoming, p.outgoing)]
    first = {}
    for s in sets:
        assert first.setdefault(s, s) is s, sorted(s)
    assert len({id(s) for s in sets}) == len(set(sets))


class TestLoaderEquivalence:
    def test_load_equals_records_on_random_graphs(self, snapshot_files):
        rng = random.Random(11)
        for _ in range(40):
            entities, predicates, triples = random_rows(rng)
            loaded = load_snapshot(*write_rows(snapshot_files, entities, predicates, triples))
            built = snapshot_from_records(entities, predicates, triples)
            unique = list(dict.fromkeys(Triple(*t) for t in triples))
            assert_pools(loaded, unique, rng)
            assert_pools(built, unique, rng)
            assert_same_snapshot(loaded, built)
            assert_profile_sets_shared(loaded)
            assert_profile_sets_shared(built)
            for rec in entities:
                expected_in, expected_out = brute_force_profile(triples, rec.id)
                assert loaded.profiles[rec.id].incoming == expected_in
                assert loaded.profiles[rec.id].outgoing == expected_out
                assert loaded.entities[rec.id].degree == len(expected_in | expected_out)
            objects = {t[2] for t in triples} | {"Q99", "absent"}
            for s in [None, *loaded.entities]:
                for p in [None, *loaded.predicates]:
                    for o in [None, *objects]:
                        expected = tuple(t for t in loaded.triples
                                         if s in (None, t.subject) and p in (None, t.predicate)
                                         and o in (None, t.object))
                        assert loaded.match(s, p, o) == expected
                        assert built.match(s, p, o) == expected

    def test_triples_hold_catalog_id_strings(self, snapshot_files):
        entities, predicates, triples = random_rows(random.Random(3))
        for snap in (load_snapshot(*write_rows(snapshot_files, entities, predicates, triples)),
                     snapshot_from_records(entities, predicates, triples)):
            entity_keys = {k: k for k in snap.entities}
            predicate_keys = {k: k for k in snap.predicates}
            assert snap.triples
            for t in snap.triples:
                assert t.subject is entity_keys[t.subject]
                assert t.predicate is predicate_keys[t.predicate]
                assert t.object not in entity_keys or t.object is entity_keys[t.object]
            assert all(rec.id is k for k, rec in snap.entities.items())

    def test_non_entity_record_id_is_rejected(self):
        rng = random.Random(5)
        for _ in range(20):
            entities, predicates, triples = random_rows(rng)
            triples.append(("Q1", "P1", "X1"))
            with pytest.raises(LoadError) as err:
                snapshot_from_records([*entities, EntityRecord("X1", "x")], predicates,
                                      triples)
            assert err.value.offenders == [
                ("<entity records>", len(entities) + 1, "bad entity id 'X1'")]
            assert "'X1'" in str(err.value)

    def test_non_entity_record_is_rejected_as_load_snapshot_rejects_it(self,
                                                                        snapshot_files):
        rows = ([EntityRecord("Q1", "a"), EntityRecord("X1", "x")],
                [PredicateRecord("P1", "r")], [("X1", "P1", "X1"), ("Q1", "P1", "X1")])
        with pytest.raises(LoadError) as built:
            snapshot_from_records(*rows)
        with pytest.raises(LoadError) as loaded:
            load_snapshot(*write_rows(snapshot_files, *rows))
        assert built.value.offenders == [("<entity records>", 2, "bad entity id 'X1'"),
                                         ("<records>", 1, "unknown subject entity X1")]
        assert ([(n, msg) for _, n, msg in built.value.offenders]
                == [(n, msg) for _, n, msg in loaded.value.offenders])

    def test_catalog_ids_must_be_strings(self, snapshot_files):
        """A non-string id fails the first catalog check in both constructors,
        in both catalogs, instead of being read through ``str()`` or raising
        a bare TypeError."""
        entities = [EntityRecord(5, "x"), EntityRecord("Q1", "a"), EntityRecord(None, "n"),
                    EntityRecord(["Q2"], "l")]
        predicates = [PredicateRecord(None, "r"), PredicateRecord("P1", "s"),
                      PredicateRecord(7, "t")]
        triples = [("Q1", "P1", "Q1")]
        with pytest.raises(LoadError) as built:
            snapshot_from_records(entities, predicates, triples)
        files = snapshot_files(
            [], [], triples,
            entity_lines=[json.dumps({"id": e.id, "label": e.label}) for e in entities])
        files[1].write_text("".join(json.dumps({"id": p.id, "label": p.label}) + "\n"
                                    for p in predicates), encoding="utf-8")
        with pytest.raises(LoadError) as loaded:
            load_snapshot(*files)
        assert built.value.offenders == [
            ("<entity records>", 1, "id must be a string"),
            ("<entity records>", 3, "id must be a string"),
            ("<entity records>", 4, "id must be a string"),
            ("<predicate records>", 1, "id must be a string"),
            ("<predicate records>", 3, "id must be a string")]
        entity_file, predicate_file = map(str, files[:2])
        assert loaded.value.offenders == [
            (entity_file, 1, "id must be a string"),
            (entity_file, 3, "id must be a string"),
            (entity_file, 4, "id must be a string"),
            (predicate_file, 1, "id must be a string"),
            (predicate_file, 3, "id must be a string")]

    def test_records_are_held_to_the_file_rules(self, snapshot_files):
        rows = ([EntityRecord("Q1", "a"), EntityRecord("Q1", "b")],
                [PredicateRecord("X9", "r"), PredicateRecord("X9", "s")], [("Q1", "X9", "Q1")])
        with pytest.raises(LoadError) as built:
            snapshot_from_records(*rows)
        with pytest.raises(LoadError) as loaded:
            load_snapshot(*write_rows(snapshot_files, *rows))
        assert built.value.offenders == [
            ("<entity records>", 2, "duplicate entity id Q1"),
            ("<predicate records>", 1, "bad predicate id 'X9'"),
            ("<predicate records>", 2, "bad predicate id 'X9'"),
            ("<records>", 1, "unknown predicate X9")]
        assert ([(n, msg) for _, n, msg in built.value.offenders]
                == [(n, msg) for _, n, msg in loaded.value.offenders])

    def test_malformed_catalog_rows_give_the_same_offenders(self, snapshot_files):
        """Records and the same rows written as files are held to one set of
        rules: the same offenders, with the same text, in the same order."""
        rng = random.Random(13)
        values = {"id": ["Q1", "Q2", "Q2", "X1", "P1", "P2", "P2", "Q3x"],
                  "label": ["a", "b", "", None, 5, ["x"]],
                  "description": ["", "d", None, 3, ["d"]],
                  "aliases": [(), ("x",), None, ("x", None), ("", "y"), "b", 0]}
        failed = 0
        for _ in range(150):
            entities = [EntityRecord(*(rng.choice(values[f]) for f in
                                       ("id", "label", "description", "aliases")))
                        for _ in range(rng.randint(0, 4))]
            predicates = [PredicateRecord(*(rng.choice(values[f]) for f in
                                            ("id", "label", "description")))
                          for _ in range(rng.randint(0, 3))]
            triples = [("Q1", "P1", "Q2"), ("Q2", "P2", "lit")][:rng.randint(0, 2)]
            files = snapshot_files(
                [], [], triples,
                entity_lines=[json.dumps({"id": e.id, "label": e.label,
                                          "description": e.description,
                                          "aliases": e.aliases}) for e in entities])
            files[1].write_text("".join(json.dumps({"id": p.id, "label": p.label,
                                                    "description": p.description}) + "\n"
                                        for p in predicates), encoding="utf-8")
            try:
                built = snapshot_from_records(entities, predicates, triples)
            except LoadError as err:
                failed += 1
                with pytest.raises(LoadError) as loaded:
                    load_snapshot(*files)
                sources = {str(files[0]): "<entity records>",
                           str(files[1]): "<predicate records>", str(files[2]): "<records>"}
                assert err.offenders == [(sources[path], n, msg)
                                         for path, n, msg in loaded.value.offenders]
                assert err.total == loaded.value.total
            else:
                assert_same_snapshot(built, load_snapshot(*files))
        assert 100 < failed < 150

    def test_catalog_order_and_records_agree(self, snapshot_files):
        rng = random.Random(19)
        for _ in range(20):
            entities, predicates, triples = random_rows(rng)
            rng.shuffle(entities)
            loaded = load_snapshot(*write_rows(snapshot_files, entities, predicates, triples))
            built = snapshot_from_records(entities, predicates, triples)
            ids = [e.id for e in entities]
            for snap in (loaded, built):
                assert list(snap.entities) == list(snap.entities.keys()) == ids
                assert [r.id for r in snap.entities.values()] == ids
                assert len(snap.entities) == len(ids)
                for e in entities:
                    degree = len(set.union(*brute_force_profile(triples, e.id)))
                    assert snap.entities[e.id] == EntityRecord(e.id, e.label, e.description,
                                                               e.aliases, degree)
                    assert snap.entities.get(e.id) is snap.entities[e.id]
                assert "Q404" not in snap.entities and snap.entities.get("Q404") is None
                with pytest.raises(KeyError):
                    snap.entities["Q404"]

    def test_self_loops_beside_outgoing_triples(self, snapshot_files):
        # Q1's self-loop on P1 shares P1 with an outgoing triple; its P2
        # self-loop has no outgoing twin; Q2's P3 self-loop is duplicated.
        rows = ([EntityRecord("Q1", "a"), EntityRecord("Q2", "b"), EntityRecord("Q3", "c")],
                [PredicateRecord(f"P{i}", f"r{i}") for i in (1, 2, 3)],
                [("Q1", "P1", "Q1"), ("Q1", "P1", "Q2"), ("Q1", "P2", "Q1"),
                 ("Q2", "P3", "Q2"), ("Q1", "P1", "Q1"), ("Q2", "P3", "Q2"),
                 ("Q2", "P3", "Q3"), ("Q2", "P2", "lit")])
        loaded = load_snapshot(*write_rows(snapshot_files, *rows))
        built = snapshot_from_records(*rows)
        assert_same_snapshot(loaded, built)
        for snap in (loaded, built):
            assert_profile_sets_shared(snap)
            assert len(snap.triples) == 6
            profiles = {e: (p.incoming, p.outgoing) for e, p in snap.profiles.items()}
            assert profiles == {"Q1": ({"P1", "P2"}, {"P1"}),
                                "Q2": ({"P1", "P3"}, {"P2", "P3"}),
                                "Q3": ({"P3"}, set())}
            for e, (inc, out) in profiles.items():
                assert (inc, out) == brute_force_profile(rows[2], e)
                assert snap.entities[e].degree == len(inc | out)

    def test_equal_sets_shared_across_directions_and_kinds(self, snapshot_files):
        rows = ([EntityRecord("Q1", "a"), EntityRecord("Q2", "b"), EntityRecord("Q3", "c")],
                [PredicateRecord("P1", "r")], [("Q1", "P1", "Q2"), ("Q3", "P1", "lit")])
        for snap in (load_snapshot(*write_rows(snapshot_files, *rows)),
                     snapshot_from_records(*rows)):
            p1 = snap.profiles["Q1"].outgoing
            assert snap.profiles["Q2"].incoming is p1
            assert snap.profiles["Q3"].outgoing is p1
            empty = relation_profile_or_empty(snap, "Q404").incoming
            assert snap.profiles["Q1"].incoming is empty
            assert snap.profiles["Q2"].outgoing is empty

    def test_profile_sets_shared_on_toy_graph(self, toy_snapshot):
        assert_profile_sets_shared(toy_snapshot)


class TestBuiltOnFirstUse:
    @pytest.fixture(params=["load", "records"])
    def build(self, request, snapshot_files):
        rows = random_rows(random.Random(17))
        rows[2].append(("Q1", "P1", "lit"))
        if request.param == "records":
            return lambda: snapshot_from_records(*rows)
        files = write_rows(snapshot_files, *rows)
        return lambda: load_snapshot(*files)

    @pytest.fixture
    def snap(self, build):
        return build()

    def test_dropped_snapshot_is_freed_without_the_collector(self, build):
        snap = build()
        list(snap.triples)
        snap.match(s="Q1"), snap.match(o="lit"), snap.match(p="P1"), snap.match(s="Q404")
        list(snap.profiles.values()), snap.profiles.get("Q404")
        refs = [weakref.ref(x) for x in (snap, snap.triples, snap.profiles, snap._by_object)]
        gc.disable()
        try:
            del snap
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_len_builds_no_triple(self, snap, monkeypatch):
        n = len(snap.match())

        def no_triples(self, rows):
            raise AssertionError("built a Triple")

        monkeypatch.setattr(TripleTable, "_triples", no_triples)
        fresh = snapshot_from_records(snap.entities.values(), snap.predicates.values(),
                                      [("Q1", "P1", "lit")] * 3)
        assert len(fresh.triples) == 1 and fresh.triples
        assert len(snap.triples) == n
        with pytest.raises(AssertionError, match="built a Triple"):
            fresh.match(s="Q1")

    def test_unknown_ids_get_nothing_and_are_not_kept(self, snap):
        for key in ("Q1", "P1", "lit"):
            snap.match(s=key), snap.match(o=key), snap.match(p=key)
        snap.profiles.get("Q1")
        memos = (snap._by_subject, snap._by_object, snap._by_predicate, snap.profiles._memo)
        sizes = [len(memo) for memo in memos]
        for key in ("Q404", "P404", "absent", "lit2", ""):
            assert snap.match(s=key) == snap.match(o=key) == snap.match(p=key) == ()
            assert snap.profiles.get(key) is None and key not in snap.profiles
            with pytest.raises(KeyError):
                snap.profiles[key]
        assert snap.match(s="lit") == snap.match(s="P1") == snap.match(p="Q1") == ()
        assert [len(memo) for memo in memos] == sizes

    @pytest.mark.parametrize("round_", range(4))
    def test_threads_first_touching_the_same_keys_agree(self, round_):
        rows = ([EntityRecord(f"Q{i}", f"e{i}") for i in range(1, 9)],
                [PredicateRecord(f"P{i}", f"p{i}") for i in range(1, 4)],
                [(f"Q{1 + i % 5}", f"P{1 + i % 3}", f"Q{1 + i % 7}" if i % 4 else f"lit{i % 9}")
                 for i in range(300)])
        reference = snapshot_from_records(*rows)
        snap = snapshot_from_records(*rows)
        keys = [("s", e) for e in snap.entities] + [("p", p) for p in snap.predicates]
        keys += [("o", o) for o in dict.fromkeys(t.object for t in reference.triples)]
        keys += [("profile", e) for e in snap.entities]
        keys += [("entity", e) for e in snap.entities]

        def read(target, kind, key):
            if kind == "profile":
                return target.profiles[key]
            if kind == "entity":
                return target.entities[key]
            return target.match(**{kind: key})

        expected = [read(reference, *key) for key in keys]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def worker(i):
            order = list(range(len(keys)))
            random.Random(round_ * n_threads + i).shuffle(order)
            barrier.wait(timeout=10)
            got = [None] * len(keys)
            for j in order:
                got[j] = read(snap, *keys[j])
            results[i] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got == expected
            # Every thread got the kept profiles and records and one Triple
            # object per row.
            for a, b in zip(got, results[0]):
                assert all(x is y for x, y in zip(a, b)) if isinstance(a, tuple) else a is b
        assert_pools(snap, list(reference.triples), random.Random(round_))


def no_parse(*args):
    raise AssertionError("parsed the text files")


def warm_load(files, monkeypatch):
    """A load that must come from the cache."""
    with monkeypatch.context() as m:
        m.setattr(kgstore, "_parse", no_parse)
        return load_snapshot(*files)


def assert_holds_catalog_id_strings(snap):
    entity_keys = {k: k for k in snap.entities}
    predicate_keys = {k: k for k in snap.predicates}
    for t in snap.triples:
        assert t.subject is entity_keys[t.subject]
        assert t.predicate is predicate_keys[t.predicate]
        assert t.object not in entity_keys or t.object is entity_keys[t.object]
    assert all(rec.id is k for k, rec in snap.entities.items())
    assert all(rec.id is k for k, rec in snap.predicates.items())


def count_records():
    return sum(type(o) is EntityRecord for o in gc.get_objects())


def damage_entry(path, how):
    if how == "truncated":
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        return
    with np.load(path) as entry:
        arrays = dict(entry)
    if how == "wrong-version":
        arrays["format"] = np.array(SNAPSHOT_FORMAT + 1)
    elif how == "wrong-key":
        arrays["key"] = np.array("0" * 40)
    elif how == "short-degrees":
        arrays["degrees"] = arrays["degrees"][:-1]
    elif how == "short-column":
        arrays["o"] = arrays["o"][:-1]
    elif how == "object-out-of-range":
        arrays["o"] = arrays["o"] + len(arrays["degrees"]) + 100
    elif how == "alias-counts":
        arrays["alias_counts"] = arrays["alias_counts"] + 1
    elif how == "short-labels":
        arrays["entity_label_ends"] = arrays["entity_label_ends"][:-1]
    elif how == "repeated-id":
        ids = cache.Texts.unpacked(arrays["entity_id"], arrays["entity_id_ends"])
        packed = cache.Texts.of([ids[0]] * len(ids)).packed()
        arrays["entity_id"], arrays["entity_id_ends"] = packed
    elif how == "missing-array":
        del arrays["literals"]
    elif how == "id-order-repeats":
        arrays["id_order"] = np.zeros_like(arrays["id_order"])
    elif how == "id-order-wide":
        arrays["id_order"] = arrays["id_order"].astype(np.int64)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestSnapshotCache:
    """A load of files loaded before comes from the cache entry and equals
    the text load; a damaged entry is parsed around and rewritten."""

    @staticmethod
    def entries(cache_dir):
        return sorted(cache_dir.glob("snapshot-*.npz")) if cache_dir.is_dir() else []

    def test_warm_load_equals_text_load_on_toy_graph(self, empty_cache, monkeypatch):
        files = (toy_data.toy_entity_file(), toy_data.toy_predicate_file(),
                 toy_data.toy_triple_file())
        text = load_snapshot(*files)
        assert len(self.entries(empty_cache)) == 1
        warm = warm_load(files, monkeypatch)
        assert_same_snapshot(text, warm)
        assert_pools(warm, list(text.triples), random.Random(1))
        assert_holds_catalog_id_strings(warm)
        assert_profile_sets_shared(warm)
        assert prune_by_degree(warm, 3) == prune_by_degree(text, 3)

    def test_warm_load_equals_text_load_on_random_graphs(self, snapshot_files, empty_cache,
                                                         monkeypatch):
        rng = random.Random(23)
        for _ in range(40):
            entities, predicates, triples = random_rows(rng)
            files = write_rows(snapshot_files, entities, predicates, triples)
            text = load_snapshot(*files)
            warm = warm_load(files, monkeypatch)
            built = snapshot_from_records(entities, predicates, triples)
            assert_same_snapshot(text, warm)
            assert_same_snapshot(built, warm)
            assert_pools(warm, list(dict.fromkeys(Triple(*t) for t in triples)), rng)
            assert_holds_catalog_id_strings(warm)
            assert_profile_sets_shared(warm)

    def test_warm_records_equal_parsed_records_in_catalog_order(self, snapshot_files,
                                                                empty_cache, monkeypatch):
        rng = random.Random(37)
        for _ in range(20):
            entities, predicates, triples = random_rows(rng)
            rng.shuffle(entities)
            files = write_rows(snapshot_files, entities, predicates, triples)
            text = load_snapshot(*files)
            warm = warm_load(files, monkeypatch)
            assert list(warm.entities) == [e.id for e in entities]
            for e in entities:
                assert warm.entities[e.id] == text.entities[e.id]
                assert warm.entities[e.id].degree == text.entities[e.id].degree
            assert list(warm.entities.values()) == list(text.entities.values())
            assert warm.entities.content_key == text.entities.content_key is not None

    @pytest.mark.parametrize("warm", [False, True], ids=["parsed", "warm"])
    def test_records_are_built_on_first_lookup(self, snapshot_files, empty_cache,
                                               monkeypatch, warm):
        entities, predicates, triples = random_rows(random.Random(41))
        files = write_rows(snapshot_files, entities, predicates, triples)
        if warm:
            load_snapshot(*files)
        before = count_records()
        snap = warm_load(files, monkeypatch) if warm else load_snapshot(*files)
        prune_by_degree(snap, 1)
        assert count_records() == before
        first = snap.entities["Q1"]
        assert count_records() == before + 1
        assert snap.entities["Q1"] is first and snap.entities.get("Q1") is first
        assert next(iter(snap.entities.values())) is first
        assert count_records() == before + 1

    def test_unusual_strings_round_trip(self, snapshot_files, empty_cache, monkeypatch):
        entities = [("Q1", "", "", []),
                    ("Q2", "Zürich 東京", "naïve\x00desc", ["", "a\x00b", "é", "😀"]),
                    ("Q3", "\ud800", "\udfff", ["\ud83d", "\ude00", "\x00"]),
                    ("Q4", "x" * 3000, "\n\t\r", ["\u2028"])]
        predicates = [("P1", "rél", "désc\x00"), ("P2", "日本", ""), ("P3", "\ud800", "\x00")]
        triples = [("Q1", "P1", "Q2"), ("Q2", "P2", "naïve"), ("Q3", "P3", "a\x00b"),
                   ("Q4", "P1", "日本語"), ("Q4", "P2", "\x00"), ("Q1", "P3", "Q4")]
        files = snapshot_files(entities, predicates, triples,
                               triple_lines=["\t".join(t) for t in triples] + ["Q1\tP1\t"])
        text = load_snapshot(*files)
        warm = warm_load(files, monkeypatch)
        assert_same_snapshot(text, warm)
        assert [(r.label, r.description, r.aliases) for r in warm.entities.values()] == \
            [(e[1], e[2], tuple(e[3])) for e in entities]
        assert [(r.label, r.description) for r in warm.predicates.values()] == \
            [p[1:] for p in predicates]
        assert [t.object for t in warm.triples] == [t[2] for t in triples] + [""]

    @pytest.mark.parametrize("how", ["truncated", "wrong-version", "wrong-key",
                                     "short-degrees", "short-column", "object-out-of-range",
                                     "alias-counts", "short-labels", "repeated-id",
                                     "missing-array", "id-order-repeats", "id-order-wide"])
    def test_damaged_entry_falls_back_and_is_rewritten(self, snapshot_files, empty_cache,
                                                       monkeypatch, how):
        rows = random_rows(random.Random(29))
        rows[0][0] = EntityRecord("Q1", "e1", "", ("x", "y"))
        rows[2].append(("Q1", "P1", "lit"))
        files = write_rows(snapshot_files, *rows)
        text = load_snapshot(*files)
        (entry,) = self.entries(empty_cache)
        damage_entry(entry, how)
        parses = []
        real_parse = kgstore._parse
        monkeypatch.setattr(kgstore, "_parse",
                            lambda *args: parses.append(1) or real_parse(*args))
        again = load_snapshot(*files)
        assert parses == [1]
        assert_same_snapshot(text, again)
        assert self.entries(empty_cache) == [entry]
        assert_same_snapshot(text, warm_load(files, monkeypatch))

    def test_regular_file_at_cache_path(self, snapshot_files, empty_cache):
        rows = random_rows(random.Random(31))
        files = write_rows(snapshot_files, *rows)
        empty_cache.write_bytes(b"not a directory")
        for _ in range(2):
            assert_same_snapshot(load_snapshot(*files), snapshot_from_records(*rows))
        assert empty_cache.read_bytes() == b"not a directory"
        assert [p.name for p in empty_cache.parent.iterdir()] == ["kgqa"]

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["entities", "predicates", "triples"])
    def test_one_changed_byte_misses(self, snapshot_files, empty_cache, which):
        files = snapshot_files([("Q1", "alpha"), ("Q2", "beta")], [("P1", "rel")],
                               [("Q1", "P1", "Q2")])
        before = load_snapshot(*files)
        old, new = {0: (b"alpha", b"alphb"), 1: (b"rel", b"rem"), 2: (b"Q2\n", b"Qx\n")}[which]
        data = files[which].read_bytes()
        assert data.count(old) == 1
        files[which].write_bytes(data.replace(old, new))
        after = load_snapshot(*files)
        assert len(self.entries(empty_cache)) == 2
        assert snapshot_reads(after) != snapshot_reads(before)
        fresh = {0: lambda s: s.entities["Q1"].label == "alphb",
                 1: lambda s: s.predicates["P1"].label == "rem",
                 2: lambda s: list(s.triples) == [("Q1", "P1", "Qx")]}[which]
        assert fresh(after) and not fresh(before)

    @pytest.mark.parametrize("when", ["before-parse", "after-parse"])
    def test_file_changed_mid_load_writes_nothing(self, snapshot_files, empty_cache,
                                                  monkeypatch, when):
        files = snapshot_files([("Q1", "alpha")], [("P1", "rel")], [("Q1", "P1", "Q1")])
        data = files[0].read_bytes()
        real_parse = kgstore._parse

        def parse_while_changing(paths):
            if when == "before-parse":
                files[0].write_bytes(data.replace(b"alpha", b"gamma"))
            snapshot = real_parse(paths)
            if when == "after-parse":
                files[0].write_bytes(data.replace(b"alpha", b"gamma"))
            return snapshot

        with monkeypatch.context() as m:
            m.setattr(kgstore, "_parse", parse_while_changing)
            load_snapshot(*files)
        assert self.entries(empty_cache) == []
        files[0].write_bytes(data)
        assert load_snapshot(*files).entities["Q1"].label == "alpha"
        assert warm_load(files, monkeypatch).entities["Q1"].label == "alpha"

    @pytest.mark.parametrize("missing", [0, 1, 2], ids=["entities", "predicates", "triples"])
    def test_missing_file_raises_and_writes_nothing(self, snapshot_files, empty_cache,
                                                    missing):
        files = list(snapshot_files([("Q1", "a")], [("P1", "r")], [("Q1", "P1", "Q1")]))
        load_snapshot(*files)
        files[missing] = files[missing].with_name("absent")
        with pytest.raises(FileNotFoundError, match="absent"):
            load_snapshot(*files)
        assert len(list(empty_cache.iterdir())) == 1

    def test_load_error_writes_nothing(self, snapshot_files, empty_cache):
        files = snapshot_files([("Q1", "a")], [("P1", "r")], [("Q1", "P1", "Q9")],
                               entity_lines=['{"id": "Q1", "label": "a"}', "{bad"])
        offenders = []
        for _ in range(2):
            with pytest.raises(LoadError) as err:
                load_snapshot(*files)
            offenders.append(err.value.offenders)
        assert offenders[0] == offenders[1] and len(offenders[0]) == 2
        assert not empty_cache.exists()


def test_degrees_match_a_set_count():
    """Distinct predicates per entity, self-loops counted as incoming only
    and literal objects (ids from n_entities on) not at all."""
    rng = random.Random(37)
    for _ in range(200):
        n_entities, n_predicates = rng.randint(1, 30), rng.randint(1, 70)
        n_literals = rng.randint(0, 5)
        rows = []
        for _ in range(rng.randint(0, 120)):
            s = rng.randrange(n_entities)
            o = rng.choice([s, rng.randrange(n_entities), n_entities + rng.randrange(
                n_literals) if n_literals else s])
            rows.append((s, rng.randrange(n_predicates), o))
        rows += rng.sample(rows, len(rows) // 3)
        s, p, o = (np.array(column, dtype=np.intc).reshape(-1) for column in zip(*rows)) \
            if rows else (np.zeros(0, dtype=np.intc),) * 3
        touching = [set() for _ in range(n_entities)]
        for si, pi, oi in rows:
            if oi < n_entities:
                touching[oi].add(pi)
            if si != oi:
                touching[si].add(pi)
        got = _degrees(s, p, o, n_entities, n_predicates)
        assert got.tolist() == [len(t) for t in touching]


class TestCollectorState:
    @pytest.fixture
    def build(self, snapshot_files):
        def build(kind, valid):
            triples = [("Q1", "P1", "Q2" if valid else "Q9")]
            if kind == "records":
                return snapshot_from_records(
                    [EntityRecord("Q1", "a"), EntityRecord("Q2", "b")],
                    [PredicateRecord("P1", "r")], triples)
            return load_snapshot(*snapshot_files([("Q1", "a"), ("Q2", "b")], [("P1", "r")],
                                                 triples))
        return build

    @pytest.mark.parametrize("kind", ["load", "records"])
    @pytest.mark.parametrize("valid", [True, False], ids=["ok", "load-error"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_state_is_restored(self, build, kind, valid, enabled):
        if not enabled:
            gc.disable()
        try:
            if valid:
                build(kind, valid)
            else:
                with pytest.raises(LoadError):
                    build(kind, valid)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_collector_paused_while_building(self):
        seen = []

        def triples():
            seen.append(gc.isenabled())
            yield ("Q1", "P1", "lit")

        snapshot_from_records([EntityRecord("Q1", "a")], [PredicateRecord("P1", "r")],
                              triples())
        assert seen == [False]
        assert gc.isenabled()


class TestEntityRelations:
    def test_single_triple(self):
        snap = snapshot_from_records(
            [EntityRecord("Q1", "a"), EntityRecord("Q2", "b")],
            [PredicateRecord("P1", "r")],
            [("Q1", "P1", "Q2")],
        )
        profile = get_entity_relations(snap, "Q2")
        assert profile.incoming == {"P1"}
        assert profile.outgoing == set()

    def test_one_in_one_out(self):
        snap = snapshot_from_records(
            [EntityRecord(f"Q{i}", str(i)) for i in (1, 2, 3)],
            [PredicateRecord("P1", "r"), PredicateRecord("P2", "r2")],
            [("Q1", "P1", "Q2"), ("Q2", "P2", "Q3")],
        )
        profile = get_entity_relations(snap, "Q2")
        assert profile.incoming == {"P1"}
        assert profile.outgoing == {"P2"}

    def test_unknown_entity(self, toy_snapshot):
        with pytest.raises(NotFoundError):
            get_entity_relations(toy_snapshot, "Q999")

    def test_matches_brute_force_on_random_kgs(self):
        rng = random.Random(7)
        entities = [EntityRecord(f"Q{i}", f"e{i}") for i in range(1, 13)]
        predicates = [PredicateRecord(f"P{i}", f"p{i}") for i in range(1, 5)]
        for _ in range(100):
            triples = list({
                (f"Q{rng.randint(1, 12)}", f"P{rng.randint(1, 4)}",
                 rng.choice([f"Q{rng.randint(1, 12)}", f"lit{rng.randint(0, 3)}"]))
                for _ in range(rng.randint(0, 100))
            })
            snap = snapshot_from_records(entities, predicates, triples)
            for rec in entities:
                expected_in, expected_out = brute_force_profile(triples, rec.id)
                profile = get_entity_relations(snap, rec.id)
                assert profile.incoming == expected_in
                assert profile.outgoing == expected_out
                assert snap.entities[rec.id].degree == len(expected_in | expected_out)

    def test_self_loop_counts_incoming_only(self):
        snap = snapshot_from_records(
            [EntityRecord("Q1", "a")], [PredicateRecord("P1", "r")],
            [("Q1", "P1", "Q1")],
        )
        profile = get_entity_relations(snap, "Q1")
        assert profile.incoming == {"P1"}
        assert profile.outgoing == set()
        assert snap.entities["Q1"].degree == 1


class TestPruneByDegree:
    def _snapshot_with_degrees(self):
        # Q1 touches 10 distinct predicates, Q2 touches 9.
        entities = [EntityRecord("Q1", "big"), EntityRecord("Q2", "small"),
                    EntityRecord("Q3", "hub")]
        predicates = [PredicateRecord(f"P{i}", f"p{i}") for i in range(1, 11)]
        triples = [("Q1", f"P{i}", "Q3") for i in range(1, 11)]
        triples += [("Q2", f"P{i}", "Q3") for i in range(1, 10)]
        return snapshot_from_records(entities, predicates, triples)

    def test_threshold_boundary(self):
        snap = self._snapshot_with_degrees()
        kept = prune_by_degree(snap, 10)
        assert "Q1" in kept
        assert "Q2" not in kept

    def test_zero_keeps_all(self):
        snap = self._snapshot_with_degrees()
        assert prune_by_degree(snap, 0) == set(snap.entities)

    def test_monotone_in_threshold(self):
        snap = self._snapshot_with_degrees()
        previous = set(snap.entities)
        for threshold in range(0, 13):
            current = prune_by_degree(snap, threshold)
            assert current <= previous
            previous = current

    def test_default_threshold_is_ten(self):
        snap = self._snapshot_with_degrees()
        assert prune_by_degree(snap) == prune_by_degree(snap, 10)
