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

import json
from dataclasses import dataclass, field
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


def _read_jsonl(path, required, offenders):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                offenders.append((str(path), lineno, f"invalid JSON: {exc.msg}"))
                continue
            if not isinstance(obj, dict):
                offenders.append((str(path), lineno, "expected a JSON object"))
                continue
            missing = [k for k in required if k not in obj]
            if missing:
                offenders.append((str(path), lineno, f"missing keys: {', '.join(missing)}"))
                continue
            rows.append((lineno, obj))
    return rows


def load_snapshot(entity_file, predicate_file, triple_file) -> Snapshot:
    """Load and cross-validate a snapshot; raises LoadError on any defect."""
    offenders: list[tuple[str, int, str]] = []

    entities: dict[str, EntityRecord] = {}
    for lineno, obj in _read_jsonl(entity_file, ("id", "label"), offenders):
        eid = str(obj["id"])
        if not is_entity_id(eid):
            offenders.append((str(entity_file), lineno, f"bad entity id {eid!r}"))
            continue
        if eid in entities:
            offenders.append((str(entity_file), lineno, f"duplicate entity id {eid}"))
            continue
        aliases = obj.get("aliases") or []
        if not isinstance(aliases, list):
            offenders.append((str(entity_file), lineno, "aliases must be an array"))
            continue
        entities[eid] = EntityRecord(
            id=eid,
            label=str(obj["label"]),
            description=str(obj.get("description") or ""),
            aliases=tuple(str(a) for a in aliases),
        )

    predicates: dict[str, PredicateRecord] = {}
    for lineno, obj in _read_jsonl(predicate_file, ("id", "label"), offenders):
        pid = str(obj["id"])
        if not is_predicate_id(pid):
            offenders.append((str(predicate_file), lineno, f"bad predicate id {pid!r}"))
            continue
        if pid in predicates:
            offenders.append((str(predicate_file), lineno, f"duplicate predicate id {pid}"))
            continue
        if not str(obj["label"]):
            offenders.append((str(predicate_file), lineno, "empty label"))
            continue
        predicates[pid] = PredicateRecord(
            id=pid, label=str(obj["label"]), description=str(obj.get("description") or "")
        )

    triples: list[Triple] = []
    seen: set[Triple] = set()
    with open(triple_file, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                offenders.append((str(triple_file), lineno,
                                  f"expected 3 tab-separated columns, got {len(cols)}"))
                continue
            s, p, o = cols
            if s not in entities:
                offenders.append((str(triple_file), lineno, f"unknown subject entity {s}"))
                continue
            if p not in predicates:
                offenders.append((str(triple_file), lineno, f"unknown predicate {p}"))
                continue
            if is_entity_id(o) and o not in entities:
                offenders.append((str(triple_file), lineno, f"unknown object entity {o}"))
                continue
            triple = Triple(s, p, o)
            if triple not in seen:
                seen.add(triple)
                triples.append(triple)

    if offenders:
        raise LoadError("snapshot load failed", offenders, total=len(offenders))
    return _assemble(entities, predicates, triples)


def snapshot_from_records(entity_records: Iterable[EntityRecord],
                          predicate_records: Iterable[PredicateRecord],
                          triples: Iterable[tuple]) -> Snapshot:
    """Build a snapshot directly from records (programmatic construction)."""
    entities = {r.id: r for r in entity_records}
    predicates = {r.id: r for r in predicate_records}
    offenders = []
    deduped: list[Triple] = []
    seen: set[Triple] = set()
    for lineno, raw in enumerate(triples, start=1):
        t = Triple(*raw)
        if t.subject not in entities:
            offenders.append(("<records>", lineno, f"unknown subject entity {t.subject}"))
            continue
        if t.predicate not in predicates:
            offenders.append(("<records>", lineno, f"unknown predicate {t.predicate}"))
            continue
        if is_entity_id(t.object) and t.object not in entities:
            offenders.append(("<records>", lineno, f"unknown object entity {t.object}"))
            continue
        if t not in seen:
            seen.add(t)
            deduped.append(t)
    if offenders:
        raise LoadError("snapshot construction failed", offenders, total=len(offenders))
    return _assemble(entities, predicates, deduped)


def _assemble(entities: dict[str, EntityRecord], predicates: dict[str, PredicateRecord],
              triples: list[Triple]) -> Snapshot:
    incoming: dict[str, set[str]] = {e: set() for e in entities}
    outgoing: dict[str, set[str]] = {e: set() for e in entities}
    by_subject: dict[str, list[Triple]] = {}
    by_object: dict[str, list[Triple]] = {}
    by_predicate: dict[str, list[Triple]] = {}
    for t in triples:
        # Object side first, subject side only when distinct: a self-loop
        # (e, r, e) counts r as incoming only.
        if is_entity_id(t.object):
            incoming[t.object].add(t.predicate)
            if t.subject != t.object:
                outgoing[t.subject].add(t.predicate)
        else:
            outgoing[t.subject].add(t.predicate)
        by_subject.setdefault(t.subject, []).append(t)
        by_object.setdefault(t.object, []).append(t)
        by_predicate.setdefault(t.predicate, []).append(t)

    profiles = {
        e: EntityRelationProfile(e, frozenset(incoming[e]), frozenset(outgoing[e]))
        for e in entities
    }
    entities = {
        e: EntityRecord(
            id=rec.id, label=rec.label, description=rec.description, aliases=rec.aliases,
            degree=len(incoming[e] | outgoing[e]),
        )
        for e, rec in entities.items()
    }
    return Snapshot(
        entities=entities,
        predicates=predicates,
        triples=tuple(triples),
        profiles=profiles,
        _by_subject={k: tuple(v) for k, v in by_subject.items()},
        _by_object={k: tuple(v) for k, v in by_object.items()},
        _by_predicate={k: tuple(v) for k, v in by_predicate.items()},
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


def entity_documents(snapshot: Snapshot, ids: Optional[Iterable[str]] = None):
    """Entity records in id-sorted order, optionally restricted to ``ids``."""
    keep = set(ids) if ids is not None else None
    for eid in sorted(snapshot.entities):
        if keep is None or eid in keep:
            yield snapshot.entities[eid]
