"""Snapshot loading, relation profiles, and degree pruning."""

import gc
import json
import random
import sys
import threading
import weakref

import pytest

from kgqa.errors import LoadError, NotFoundError
from kgqa.kgstore import (
    EntityRecord,
    PredicateRecord,
    Triple,
    TripleTable,
    _read_jsonl,
    get_entity_relations,
    load_snapshot,
    prune_by_degree,
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
        assert list(_read_jsonl(path, ("id", "label"), offenders)) == expected_rows
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
        rows = _read_jsonl(files[0], ("id", "label"), offenders)
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

    def test_non_entity_record_id_is_a_literal_object(self):
        rng = random.Random(5)
        for _ in range(20):
            entities, predicates, triples = random_rows(rng)
            triples.append(("Q1", "P1", "X1"))
            plain = snapshot_from_records(entities, predicates, triples)
            with_x = snapshot_from_records([*entities, EntityRecord("X1", "x")], predicates,
                                           triples)
            assert with_x.triples == plain.triples
            assert with_x.match(o="X1") == plain.match(o="X1") == (("Q1", "P1", "X1"),)
            assert with_x.profiles["X1"].incoming == frozenset()
            assert with_x.entities["X1"].degree == 0
            assert_profile_sets_shared(with_x)
            assert_same_snapshot(with_x, plain, drop={"X1"})


    def test_non_entity_record_self_loop_is_outgoing(self):
        snap = snapshot_from_records(
            [EntityRecord("Q1", "a"), EntityRecord("X1", "x")], [PredicateRecord("P1", "r")],
            [("X1", "P1", "X1"), ("Q1", "P1", "X1")])
        assert snap.profiles["X1"].incoming == frozenset()
        assert snap.profiles["X1"].outgoing == {"P1"}
        assert snap.entities["X1"].degree == 1

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

        def read(target, kind, key):
            if kind == "profile":
                return target.profiles[key]
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
            # Every thread got the kept profiles and one Triple object per row.
            for a, b in zip(got, results[0]):
                assert all(x is y for x, y in zip(a, b)) if isinstance(a, tuple) else a is b
        assert_pools(snap, list(reference.triples), random.Random(round_))


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
