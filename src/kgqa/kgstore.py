"""Immutable knowledge-graph snapshot: catalogs, triples, relation profiles.

File formats:
  * entity file    — JSON Lines: {"id", "label", "description", "aliases"}
  * predicate file — JSON Lines: {"id", "label", "description"}
  * triple file    — TSV: subject <TAB> predicate <TAB> object; an object
    token shaped like "Q" + digits is an entity reference, anything else
    a literal kept verbatim.

Unknown JSON keys are ignored. Entity degrees are always recomputed from
the triples; degree values present in the input are discarded.
"""

import gc
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from kgqa.errors import LoadError, NotFoundError
from kgqa.ids import is_entity_id, is_predicate_id


@dataclass(frozen=True, slots=True)
class EntityRecord:
    id: str
    label: str
    description: str = ""
    aliases: tuple[str, ...] = ()
    degree: int = 0


@dataclass(frozen=True, slots=True)
class PredicateRecord:
    id: str
    label: str
    description: str = ""


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str


@dataclass(frozen=True, slots=True)
class EntityRelationProfile:
    entity: str
    incoming: frozenset[str]
    outgoing: frozenset[str]


_EMPTY = frozenset()


@dataclass(frozen=True)
class Snapshot:
    """Loaded knowledge graph; treat as read-only after construction."""

    entities: dict[str, EntityRecord]
    predicates: dict[str, PredicateRecord]
    triples: tuple[Triple, ...]
    profiles: dict[str, EntityRelationProfile]
    _by_subject: dict[str, tuple[Triple, ...]] = field(repr=False, default_factory=dict)
    _by_object: dict[str, tuple[Triple, ...]] = field(repr=False, default_factory=dict)
    _by_predicate: dict[str, tuple[Triple, ...]] = field(repr=False, default_factory=dict)

    def match(self, s: Optional[str] = None, p: Optional[str] = None,
              o: Optional[str] = None) -> tuple[Triple, ...]:
        """Triples matching the given concrete positions (None = wildcard)."""
        if s is not None:
            pool = self._by_subject.get(s, ())
        elif o is not None:
            pool = self._by_object.get(o, ())
        elif p is not None:
            pool = self._by_predicate.get(p, ())
        else:
            pool = self.triples
        return tuple(
            t for t in pool
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)
        )


# The scanner json.loads calls, without its checks: it decodes one JSON value
# at a position of a string and returns the value and the position after it.
_scan_json = json.JSONDecoder().scan_once


def _read_jsonl(path, required, offenders):
    """Yield (lineno, object) per well-formed row; malformed rows go to
    ``offenders`` as they are read."""
    keys = frozenset(required)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _scan_json(line, 0)
            except (StopIteration, ValueError):
                end = None
            if end != len(line):
                # Not one JSON value: json.loads words the error.
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    offenders.append((str(path), lineno, f"invalid JSON: {exc.msg}"))
                    continue
            if not isinstance(obj, dict):
                offenders.append((str(path), lineno, "expected a JSON object"))
                continue
            if not obj.keys() >= keys:
                missing = [k for k in required if k not in obj]
                offenders.append((str(path), lineno, f"missing keys: {', '.join(missing)}"))
                continue
            yield lineno, obj


@contextmanager
def _collector_paused():
    """Pause the cyclic collector: a snapshot's objects hold no reference
    cycles, so collections triggered while they are allocated free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def load_snapshot(entity_file, predicate_file, triple_file) -> Snapshot:
    """Load and cross-validate a snapshot; raises LoadError on any defect."""
    offenders: list[tuple[str, int, str]] = []
    # A catalog's failed checks follow all of that file's parse errors.
    invalid: list[tuple[str, int, str]] = []
    entities: dict[str, tuple] = {}  # records are built once degrees are known
    for lineno, obj in _read_jsonl(entity_file, ("id", "label"), offenders):
        eid = str(obj["id"])
        if not is_entity_id(eid):
            invalid.append((str(entity_file), lineno, f"bad entity id {eid!r}"))
            continue
        if eid in entities:
            invalid.append((str(entity_file), lineno, f"duplicate entity id {eid}"))
            continue
        aliases = obj.get("aliases") or []
        if not isinstance(aliases, list):
            invalid.append((str(entity_file), lineno, "aliases must be an array"))
            continue
        entities[eid] = (eid, str(obj["label"]), str(obj.get("description") or ""),
                         tuple(map(str, aliases)))
    offenders += invalid
    invalid.clear()

    predicates: dict[str, PredicateRecord] = {}
    for lineno, obj in _read_jsonl(predicate_file, ("id", "label"), offenders):
        pid = str(obj["id"])
        if not is_predicate_id(pid):
            invalid.append((str(predicate_file), lineno, f"bad predicate id {pid!r}"))
            continue
        if pid in predicates:
            invalid.append((str(predicate_file), lineno, f"duplicate predicate id {pid}"))
            continue
        if not str(obj["label"]):
            invalid.append((str(predicate_file), lineno, "empty label"))
            continue
        predicates[pid] = PredicateRecord(id=pid, label=str(obj["label"]),
                                          description=str(obj.get("description") or ""))
    offenders += invalid

    with open(triple_file, encoding="utf-8") as fh:
        # Every catalog id passed is_entity_id: the catalog is also ``objects``.
        return _build(_tsv_rows(fh, str(triple_file), offenders), str(triple_file),
                      entities, entities, predicates, offenders, "snapshot load failed")


def _tsv_rows(fh, path, offenders):
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        cols = line.rstrip("\n").split("\t")
        if len(cols) != 3:
            offenders.append((path, lineno, f"expected 3 tab-separated columns, got {len(cols)}"))
            continue
        yield lineno, cols


@_collector_paused()
def snapshot_from_records(entity_records: Iterable[EntityRecord],
                          predicate_records: Iterable[PredicateRecord],
                          triples: Iterable[tuple]) -> Snapshot:
    """Build a snapshot directly from records (programmatic construction)."""
    entities = {r.id: (r.id, r.label, r.description, r.aliases) for r in entity_records}
    predicates = {r.id: r for r in predicate_records}
    # A record id not shaped like an entity id is a literal as an object.
    objects = {e: f for e, f in entities.items() if is_entity_id(e)}
    return _build(enumerate((Triple(*t) for t in triples), start=1), "<records>",
                  entities, objects, predicates, [], "snapshot construction failed")


def _build(rows, source, entities: dict[str, tuple], objects: dict[str, tuple],
           predicates: dict[str, PredicateRecord], offenders, failure) -> Snapshot:
    """Validate, dedupe and index (lineno, (s, p, o)) rows in one pass, then
    build each entity's record and relation profile from its index groups.

    ``entities`` maps ids to (id, label, description, aliases). An object in
    ``objects`` is an entity, any other Q-shaped object an unknown entity, the
    rest literals. Triples hold the catalogs' own id strings. Raises
    LoadError(failure) if ``offenders`` is not empty at the end.
    """
    triples: dict[Triple, None] = {}
    by_subject: defaultdict[str, list[Triple]] = defaultdict(list)
    by_object: defaultdict[str, list[Triple]] = defaultdict(list)
    by_predicate: defaultdict[str, list[Triple]] = defaultdict(list)
    loops = set()  # subjects of self-loops whose object is an entity
    new_triple = tuple.__new__
    for lineno, (s, p, o) in rows:
        subject = entities.get(s)
        if subject is None:
            offenders.append((source, lineno, f"unknown subject entity {s}"))
            continue
        predicate = predicates.get(p)
        if predicate is None:
            offenders.append((source, lineno, f"unknown predicate {p}"))
            continue
        s, p, obj = subject[0], predicate.id, objects.get(o)
        if obj is not None:
            o = obj[0]
        elif is_entity_id(o):
            offenders.append((source, lineno, f"unknown object entity {o}"))
            continue
        t = new_triple(Triple, (s, p, o))
        size = len(triples)
        triples[t] = None
        if len(triples) != size:
            by_subject[s].append(t)
            by_object[o].append(t)
            by_predicate[p].append(t)
            if obj is subject:
                loops.add(s)
    if offenders:
        raise LoadError(failure, offenders, total=len(offenders))
    unique = tuple(triples)
    del triples  # free the dedupe table before the records are built
    for index in (by_subject, by_object, by_predicate):
        for k, group in index.items():  # frees each list as it is replaced
            index[k] = tuple(group)

    # Equal predicate sets are one object, shared by every profile holding it.
    interned = {_EMPTY: _EMPTY}
    predicate_of = itemgetter(1)

    def predicate_set(group):
        preds = frozenset(group)
        return interned.setdefault(preds, preds)

    records: dict[str, EntityRecord] = {}
    profiles: dict[str, EntityRelationProfile] = {}
    for e, fields in entities.items():
        # Only an id in ``objects`` has incoming predicates: as an object, any
        # other id is a literal. A self-loop (e, r, e) counts r as incoming only.
        out = by_subject.get(e, ())
        if e not in objects:
            inc = _EMPTY
        else:
            inc = predicate_set(map(predicate_of, by_object.get(e, ())))
            if e in loops:
                out = [t for t in out if t[2] != e]
        out = predicate_set(map(predicate_of, out))
        profiles[e] = EntityRelationProfile(e, inc, out)
        records[e] = EntityRecord(*fields, degree=len(inc | out))
    return Snapshot(
        entities=records,
        predicates=predicates,
        triples=unique,
        profiles=profiles,
        _by_subject=dict(by_subject),
        _by_object=dict(by_object),
        _by_predicate=dict(by_predicate),
    )


def get_entity_relations(snapshot: Snapshot, entity_id: str) -> EntityRelationProfile:
    """Incoming/outgoing predicate sets for one catalog entity."""
    profile = snapshot.profiles.get(entity_id)
    if profile is None:
        raise NotFoundError(f"unknown entity id {entity_id}")
    return profile


def relation_profile_or_empty(snapshot: Snapshot, entity_id: str) -> EntityRelationProfile:
    """Like get_entity_relations but mapping unknown ids to empty profiles."""
    profile = snapshot.profiles.get(entity_id)
    if profile is None:
        return EntityRelationProfile(entity_id, _EMPTY, _EMPTY)
    return profile


def prune_by_degree(snapshot: Snapshot, min_degree: int = 10) -> set[str]:
    """Entity ids whose degree (distinct predicates, both directions) is >= min_degree."""
    if min_degree < 0:
        raise ValueError("min_degree must be >= 0")
    return {e for e, rec in snapshot.entities.items() if rec.degree >= min_degree}

