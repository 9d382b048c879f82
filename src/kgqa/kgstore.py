"""Immutable knowledge-graph snapshot: catalogs, triples, relation profiles.

File formats:
  * entity file    — JSON Lines: {"id", "label", "description", "aliases"}
  * predicate file — JSON Lines: {"id", "label", "description"}
  * triple file    — TSV: subject <TAB> predicate <TAB> object; an object
    token shaped like "Q" + digits is an entity reference, anything else
    a literal kept verbatim.

Catalog ids are shaped like "Q" or "P" + digits, in records as in files.
``read_jsonl`` reads both catalogs and ``evaluation.load_dataset``'s file.
Unknown JSON keys are ignored. Entity degrees are always recomputed from
the triples; degree values present in the input are discarded.

The deduplicated triples are kept as three integer columns in order of
first occurrence. Entities share one id space as subjects and as objects;
literals get ids after it. Each position has a CSR index whose rows for a
key are in that order. Entity records and degrees are built at load; the
rest is built on first use and kept: a row's ``Triple`` the first time a
match pool or a read of ``Snapshot.triples`` reaches it (one object per row,
shared by every pool), a key's match pool on its first ``match``, and an
entity's relation profile on its first lookup. ``len(snapshot.triples)``
builds nothing.

A load digests the bytes of its three input files (blake2b). A snapshot
loaded before from identical bytes is rebuilt from its ``kgqa.cache``
entry instead of parsed: the deduplicated columns, the degrees, and the
catalog and literal strings, assembled by the same code as a parse. The
entry is written only after a parse succeeds, so a file that raises
LoadError is parsed, and reported, every time, and only when the files
digest the same after the parse as before it, so that an entry never
holds what a file changed mid-load parsed to. Bump ``SNAPSHOT_FORMAT``
when the entry's arrays or their meaning change, or when parsing the same
bytes would give another snapshot (a new validation rule, another id
order), so that no entry written before the change is read after it.
"""

import gc
import hashlib
import json
import threading
from array import array
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional

import numpy as np

from kgqa import cache
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
_SUBJECT, _PREDICATE, _OBJECT = range(3)  # column positions
SNAPSHOT_FORMAT = 1  # version of the cache entry; see the module docstring


class TripleTable(Sequence):
    """The deduplicated triples as integer columns, in order of first
    occurrence; a read-only sequence of ``Triple``.

    Term ids index ``terms`` (entities, then literals) and predicate ids
    ``predicate_names``. ``len()`` builds nothing; a row's ``Triple`` is
    built on its first read and then shared. Nothing here refers to the
    snapshot, so a dropped snapshot is freed without the cyclic collector.
    """

    def __init__(self, columns, terms, predicate_names, key_ids, literal_ids):
        self._columns = columns  # (subject, predicate, object) id arrays
        self._terms = terms
        self._predicate_names = predicate_names
        # Per position, key string -> id; an object key not in its dict is
        # looked up among the literals.
        self._key_ids = key_ids
        self._literal_ids = literal_ids
        s, p, o = columns
        self._index = (_csr(s, len(key_ids[_SUBJECT])),
                       _csr(p, len(predicate_names)), _csr(o, len(terms)))
        self._cache = [None] * len(s)  # row -> Triple once built
        self._lock = threading.Lock()  # guards _cache
        # Equal predicate sets are one object, shared by every profile holding it.
        self._interned = {_EMPTY: _EMPTY}

    def __len__(self):
        return len(self._cache)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return self._triples(list(rows))
        return self._triples((rows,))[0]

    def __iter__(self):
        return iter(self._triples(range(len(self))))

    def __eq__(self, other):
        if isinstance(other, (TripleTable, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def _triples(self, rows):
        """The Triples of ``rows``, a sequence of row numbers."""
        cache = self._cache
        with self._lock:
            missing = [r for r in rows if cache[r] is None]
            if missing:
                terms, names = self._terms, self._predicate_names
                s, p, o = (column[missing].tolist() for column in self._columns)
                new_triple = tuple.__new__
                for r, fields in zip(missing, zip(map(terms.__getitem__, s),
                                                  map(names.__getitem__, p),
                                                  map(terms.__getitem__, o))):
                    cache[r] = new_triple(Triple, fields)
            return tuple(map(cache.__getitem__, rows))

    def _rows(self, position, key_id):
        rows, offsets = self._index[position]
        return rows[offsets[key_id]:offsets[key_id + 1]]

    def _pool(self, position, key):
        """The Triples holding ``key`` at ``position``, in row order; None
        when no row could hold it."""
        key_id = self._key_ids[position].get(key)
        if key_id is None and position == _OBJECT:
            key_id = self._literal_ids.get(key)
        if key_id is None:
            return None
        return self._triples(self._rows(position, key_id).tolist())

    def _profile(self, entity):
        """The relation profile of a catalog entity; None for any other id."""
        eid = self._key_ids[_SUBJECT].get(entity)
        if eid is None:
            return None
        _, p, o = self._columns
        # Only an entity object has incoming rows: any other object id is a
        # literal's. A self-loop (e, r, e) counts r as incoming only.
        out = self._rows(_SUBJECT, eid)
        return EntityRelationProfile(self._terms[eid],
                                     self._predicate_set(p[self._rows(_OBJECT, eid)]),
                                     self._predicate_set(p[out[o[out] != eid]]))

    def _predicate_set(self, ids):
        names = self._predicate_names
        preds = frozenset(map(names.__getitem__, set(ids.tolist())))
        return self._interned.setdefault(preds, preds)


class _Pools(dict):
    """Key -> the Triples holding it at one position. A key's pool is built
    on its first lookup and kept; an unknown key gets () and is not kept."""

    def __init__(self, table, position):
        super().__init__()
        self._table, self._position = table, position

    def __missing__(self, key):
        pool = self._table._pool(self._position, key)
        return () if pool is None else self.setdefault(key, pool)


class _Profiles(Mapping):
    """Read-only mapping of catalog entity ids, in catalog order, to their
    relation profiles; each built on its first lookup and kept."""

    def __init__(self, table):
        self._table = table
        self._memo = {}

    def get(self, entity, default=None):
        profile = self._memo.get(entity)
        if profile is None:
            profile = self._table._profile(entity)
            if profile is None:
                return default
            profile = self._memo.setdefault(entity, profile)
        return profile

    def __getitem__(self, entity):
        profile = self.get(entity)
        if profile is None:
            raise KeyError(entity)
        return profile

    def __contains__(self, entity):
        return entity in self._table._key_ids[_SUBJECT]

    def __iter__(self):
        return iter(self._table._key_ids[_SUBJECT])

    def __len__(self):
        return len(self._table._key_ids[_SUBJECT])


@dataclass(frozen=True, eq=False)
class Snapshot:
    """Loaded knowledge graph; read-only. ``triples`` is a sequence view of
    the triple columns and ``profiles`` a mapping view; the ``_by_*`` pools
    fill as ``match`` first uses each key."""

    entities: dict[str, EntityRecord]
    predicates: dict[str, PredicateRecord]
    triples: TripleTable
    profiles: Mapping[str, EntityRelationProfile]
    _by_subject: dict[str, tuple[Triple, ...]] = field(repr=False)
    _by_object: dict[str, tuple[Triple, ...]] = field(repr=False)
    _by_predicate: dict[str, tuple[Triple, ...]] = field(repr=False)

    def match(self, s: Optional[str] = None, p: Optional[str] = None,
              o: Optional[str] = None) -> tuple[Triple, ...]:
        """Triples matching the given concrete positions (None = wildcard)."""
        if s is not None:
            pool = self._by_subject[s]
        elif o is not None:
            pool = self._by_object[o]
        elif p is not None:
            pool = self._by_predicate[p]
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


def read_jsonl(path, required, offenders):
    """Yield (lineno, object) per row that is an object holding every key in
    ``required``; blank lines are skipped, other rows go to ``offenders`` as
    (path, lineno, message) as they are read."""
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
    """Load and cross-validate a snapshot; raises LoadError on any defect.

    The snapshot of byte-identical input files is rebuilt from its cache
    entry (``kgqa.cache``) when there is one; otherwise it is parsed and,
    if that succeeds, an entry is written.
    """
    paths = (entity_file, predicate_file, triple_file)
    key = _digest(paths)
    snapshot = cache.load("snapshot", SNAPSHOT_FORMAT, key, _from_entry)
    if snapshot is None:
        snapshot = _parse(paths)
        # Files that changed between the two digests may have been parsed
        # from other bytes than ``key`` names, so they get no entry.
        if _digest(paths) == key:
            cache.store("snapshot", SNAPSHOT_FORMAT, key, _entry(snapshot))
    return snapshot


def _digest(paths) -> str:
    """Cache key of the snapshot of ``paths``: a digest of their bytes."""
    return cache.digest(*map(_file_digest, paths))


def _file_digest(path) -> bytes:
    """The blake2b digest of a file's bytes, read in blocks."""
    h = hashlib.blake2b(digest_size=20)
    buffer = bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            h.update(memoryview(buffer)[:n])
    return h.digest()


def _parse(paths) -> Snapshot:
    """The snapshot of the three input files ``paths``, parsed."""
    entity_file, predicate_file, triple_file = paths
    offenders: list[tuple[str, int, str]] = []
    # A catalog's failed checks follow all of that file's parse errors.
    invalid: list[tuple[str, int, str]] = []
    entities: dict[str, tuple] = {}  # records are built once degrees are known
    for lineno, obj in read_jsonl(entity_file, ("id", "label"), offenders):
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
    for lineno, obj in read_jsonl(predicate_file, ("id", "label"), offenders):
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
        return _build(_tsv_rows(fh, str(triple_file), offenders), str(triple_file),
                      entities, predicates, offenders, "snapshot load failed")


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
    """Build a snapshot directly from records (programmatic construction);
    an entity id ``load_snapshot`` would reject is a bad entity id here."""
    offenders, entities = [], {}
    for n, r in enumerate(entity_records, start=1):
        if is_entity_id(r.id):
            entities[r.id] = (r.id, r.label, r.description, r.aliases)
        else:
            offenders.append(("<entity records>", n, f"bad entity id {r.id!r}"))
    predicates = {r.id: r for r in predicate_records}
    return _build(enumerate((Triple(*t) for t in triples), start=1), "<records>",
                  entities, predicates, offenders, "snapshot construction failed")


def _build(rows, source, entities: dict[str, tuple],
           predicates: dict[str, PredicateRecord], offenders, failure) -> Snapshot:
    """Validate (lineno, (s, p, o)) rows into integer columns in one pass,
    dedupe them and index each position, then build each entity's record.

    ``entities`` maps entity-shaped ids to (id, label, description, aliases).
    An object in ``entities`` is an entity, any other Q-shaped object an
    unknown entity, the rest literals, so every term string has one id.
    Triples hold the catalogs' own id strings. Raises LoadError(failure) if
    ``offenders`` is not empty at the end.
    """
    entity_ids = dict(zip(entities, range(len(entities))))
    predicate_ids = dict(zip(predicates, range(len(predicates))))
    literal_ids: dict[str, int] = {}  # literals get ids after the entities
    n_entities = len(entity_ids)
    columns = array("i")  # s, p, o of each row, in file order
    append = columns.append
    for lineno, (s, p, o) in rows:
        sid = entity_ids.get(s)
        if sid is None:
            offenders.append((source, lineno, f"unknown subject entity {s}"))
            continue
        pid = predicate_ids.get(p)
        if pid is None:
            offenders.append((source, lineno, f"unknown predicate {p}"))
            continue
        oid = entity_ids.get(o)
        if oid is None:
            oid = literal_ids.get(o)
            if oid is None:
                if is_entity_id(o):
                    offenders.append((source, lineno, f"unknown object entity {o}"))
                    continue
                oid = literal_ids[o] = n_entities + len(literal_ids)
        append(sid)
        append(pid)
        append(oid)
    if offenders:
        raise LoadError(failure, offenders, total=len(offenders))
    s, p, o = np.array(columns, dtype=np.intc).reshape(-1, 3).T
    del columns
    keep = _first_occurrences(s, p, o)
    s, p, o = s[keep], p[keep], o[keep]
    degrees = _degrees(s, p, o, n_entities, len(predicate_ids))
    return _assemble((s, p, o), degrees, entities, predicates,
                     (entity_ids, predicate_ids, entity_ids), literal_ids)


def _assemble(columns, degrees, entities, predicates, key_ids, literal_ids) -> Snapshot:
    """The snapshot of deduplicated (s, p, o) id columns.

    ``entities`` maps ids to (id, label, description, aliases), ``degrees``
    follows its order, and ``key_ids`` holds the subject, predicate and
    object id of each catalog id; literals have ids from ``len(entities)``.
    """
    records = {e: EntityRecord(*fields, degree=degree)
               for (e, fields), degree in zip(entities.items(), degrees.tolist())}
    terms = [*map(itemgetter(0), entities.values()), *literal_ids]
    table = TripleTable(columns, terms, [r.id for r in predicates.values()], key_ids,
                        literal_ids)
    return Snapshot(
        entities=records,
        predicates=predicates,
        triples=table,
        profiles=_Profiles(table),
        _by_subject=_Pools(table, _SUBJECT),
        _by_object=_Pools(table, _OBJECT),
        _by_predicate=_Pools(table, _PREDICATE),
    )


_INTC = np.dtype(np.intc)


def _within(ids, size):
    """Whether every id is in [0, size)."""
    return not len(ids) or (ids.min() >= 0 and ids.max() < size)


_FIELDS = ("id", "label", "description")
# The string columns of a snapshot cache entry, each a blob with offsets.
_STRINGS = (*(f"entity_{f}" for f in _FIELDS), "entity_aliases",
            *(f"predicate_{f}" for f in _FIELDS), "literals")


def _entry(snapshot: Snapshot) -> dict:
    """The cache entry of a snapshot: its columns, degrees and strings."""
    table = snapshot.triples
    records = list(snapshot.entities.values())
    predicates = list(snapshot.predicates.values())
    arrays = dict(zip("spo", table._columns))
    arrays["degrees"] = np.array([r.degree for r in records], dtype=np.int64)
    arrays["alias_counts"] = np.array([len(r.aliases) for r in records], dtype=np.int64)
    columns = {f"entity_{f}": map(attrgetter(f), records) for f in _FIELDS}
    columns["entity_aliases"] = chain.from_iterable(r.aliases for r in records)
    columns.update((f"predicate_{f}", map(attrgetter(f), predicates)) for f in _FIELDS)
    columns["literals"] = table._terms[len(records):]
    for name, strings in columns.items():
        arrays[name], arrays[name + "_ends"] = cache.pack_strings(strings)
    return arrays


def _from_entry(arrays) -> Snapshot:
    """The snapshot from the arrays ``_entry`` wrote; ValueError if they disagree."""
    # Each blob is dropped once decoded.
    strings = {name: cache.unpack_strings(arrays.pop(name), arrays.pop(name + "_ends"))
               for name in _STRINGS}
    ids, labels, descriptions = (strings[f"entity_{f}"] for f in _FIELDS)
    pids, plabels, pdescriptions = (strings[f"predicate_{f}"] for f in _FIELDS)
    s, p, o, degrees, alias_counts = (arrays[name] for name in
                                      ("s", "p", "o", "degrees", "alias_counts"))
    n, m = len(ids), len(pids)
    n_terms = n + len(strings["literals"])
    if (not len(labels) == len(descriptions) == len(degrees) == len(alias_counts) == n
            or not len(plabels) == len(pdescriptions) == m
            or (alias_counts < 0).any() or alias_counts.sum() != len(strings["entity_aliases"])
            or not len(s) == len(p) == len(o) or {s.dtype, p.dtype, o.dtype} != {_INTC}
            or not (_within(s, n) and _within(p, m) and _within(o, n_terms))):
        raise ValueError("snapshot entry arrays disagree")
    bounds = alias_counts.cumsum().tolist()
    aliases = map(tuple, map(strings["entity_aliases"].__getitem__,
                             map(slice, [0, *bounds], bounds)))
    entities = dict(zip(ids, zip(ids, labels, descriptions, aliases)))
    predicates = {pid: PredicateRecord(pid, label, description)
                  for pid, label, description in zip(pids, plabels, pdescriptions)}
    if len(entities) != n or len(predicates) != m:
        raise ValueError("snapshot entry repeats an id")
    entity_ids = dict(zip(entities, range(n)))
    literal_ids = dict(zip(strings["literals"], range(n, n_terms)))
    return _assemble((s, p, o), degrees, entities, predicates,
                     (entity_ids, dict(zip(predicates, range(m))), entity_ids), literal_ids)


def _first_occurrences(*columns):
    """Ascending row numbers of the first occurrence of each distinct row.

    lexsort is stable, so each run of equal rows starts with its first
    occurrence; no key packs several columns, so none can overflow."""
    order = np.lexsort(columns[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    return np.sort(order[new])


def _degrees(s, p, o, n_entities, n_predicates):
    """Distinct predicates per entity over both directions: the object's
    incoming ones (entity objects only) and the subject's outgoing ones, a
    self-loop (e, r, e) counting only as incoming."""
    incoming, outgoing = o < n_entities, s != o
    entity = np.concatenate((o[incoming], s[outgoing])).astype(np.int64)
    predicate = np.concatenate((p[incoming], p[outgoing]))
    n_predicates = max(n_predicates, 1)
    keys = np.sort(entity * n_predicates + predicate)  # < 2**62: no overflow
    # A key equal to the one before it is a repeated (entity, predicate) pair.
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return np.bincount(keys[distinct] // n_predicates, minlength=n_entities)


def _csr(keys, size):
    """(rows, offsets): the rows holding key k are rows[offsets[k]:offsets[k + 1]],
    in ascending order because the sort is stable."""
    offsets = np.zeros(size + 1, dtype=np.intc)
    offsets[1:] = np.cumsum(np.bincount(keys, minlength=size))
    return np.argsort(keys, kind="stable").astype(np.intc), offsets


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

