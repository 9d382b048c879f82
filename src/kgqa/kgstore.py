"""Immutable knowledge-graph snapshot: catalogs, triples, relation profiles.

File formats:
  * entity file    — JSON Lines: {"id", "label", "description", "aliases"}
  * predicate file — JSON Lines: {"id", "label", "description"}
  * triple file    — TSV: subject <TAB> predicate <TAB> object; an object
    token shaped like "Q" + digits is an entity reference, anything else
    a literal kept verbatim.

Catalog ids are strings shaped like "Q" or "P" + digits and are unique, in
records as in files. A label is a string, non-empty for a predicate; a
description is a string or absent (or null), and an entity's aliases an
array of strings or absent (or null). One check holds catalog rows to these
rules, whichever constructor reads them, and reports each failing row once,
in row order. ``read_jsonl`` reads both catalogs and
``evaluation.load_dataset``'s file. Unknown JSON keys are ignored. Entity
degrees are always recomputed from the triples; degree values present in
the input are discarded.

The deduplicated triples are kept as three integer columns in order of
first occurrence. Entities share one id space as subjects and as objects;
literals get ids after it. Each position has a CSR index whose rows for a
key are in that order. The entity catalog is an ``EntityCatalog``, kept as
columns: the ids, the label, description and alias strings, one
``cache.Texts`` per field, and the degrees. The rest is built on first use
and kept: an entity's record on the first lookup of its id, a row's
``Triple`` the first time a match pool or a read of ``Snapshot.triples``
reaches it (one object per row, shared by every pool), a key's match pool
on its first ``match``, and an entity's relation profile on its first
``TripleTable.relations`` lookup, the one read of an entity's relations.
``len(snapshot.triples)`` builds nothing.

A load digests the bytes of its three input files (blake2b). A snapshot
loaded before from identical bytes is rebuilt from its ``kgqa.cache``
entry instead of parsed: the deduplicated columns, the degrees, the entity
rows in ascending id order, and the catalog and literal strings, assembled
by the same code as a parse. A warm load decodes each packed text in one
piece and builds no record. The entry is written only after a parse
succeeds, so a file that raises LoadError is parsed, and reported, every
time, and only when the files digest the same after the parse as before
it, so that an entry never holds what a file changed mid-load parsed to.
``_ARRAYS`` declares the entry's arrays; bump ``SNAPSHOT_FORMAT`` when it
or the meaning of an array changes, or when parsing the same bytes would
give another snapshot (a new validation rule, another id order), so that
no entry written before the change is read after it. The catalog of a
snapshot that has an entry carries the entry's format and key as its
``content_key``, which keys the BM25 index built over it; the index over a
catalog without one (built from records, or parsed from files that changed
mid-load) is not cached.
"""

import gc
import hashlib
import json
import threading
from array import array
from collections.abc import Mapping, Sequence, ValuesView
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Optional

import numpy as np

from kgqa import cache
from kgqa.cache import Texts
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


_SUBJECT, _PREDICATE, _OBJECT = range(3)  # column positions
SNAPSHOT_FORMAT = 2  # version of the cache entry; see the module docstring


class TripleTable(Sequence):
    """The deduplicated triples as integer columns, in order of first
    occurrence; a read-only sequence of ``Triple`` that also reads each
    catalog entity's relations (``relations``).

    Term ids index ``terms`` (entities, then literals) and predicate ids
    ``predicate_names``. ``len()`` builds nothing; a row's ``Triple`` and an
    entity's relation profile are built on their first read and then kept.
    Nothing here refers to the snapshot, and no profile to the table, so a
    dropped snapshot is freed without the cyclic collector.
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
        self._profiles = {}  # entity id -> EntityRelationProfile once built

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

    def relations(self, entity) -> Optional[EntityRelationProfile]:
        """The relation profile of a catalog entity, built on its first
        lookup and kept; None for any other id."""
        profile = self._profiles.get(entity)
        if profile is None:
            eid = self._key_ids[_SUBJECT].get(entity)
            if eid is None:
                return None
            _, p, o = self._columns
            name = self._predicate_names.__getitem__
            # Only an entity object has incoming rows: any other object id is
            # a literal's. A self-loop (e, r, e) counts r as incoming only.
            out = self._rows(_SUBJECT, eid)
            profile = self._profiles.setdefault(entity, EntityRelationProfile(
                self._terms[eid],
                frozenset(map(name, set(p[self._rows(_OBJECT, eid)].tolist()))),
                frozenset(map(name, set(p[out[o[out] != eid]].tolist())))))
        return profile


class _Pools(dict):
    """Key -> the Triples holding it at one position. A key's pool is built
    on its first lookup and kept; an unknown key gets () and is not kept."""

    def __init__(self, table, position):
        super().__init__()
        self._table, self._position = table, position

    def __missing__(self, key):
        pool = self._table._pool(self._position, key)
        return () if pool is None else self.setdefault(key, pool)


class EntityCatalog(Mapping):
    """Read-only mapping of entity ids, in catalog order, to their records,
    kept as columns: ``ids``, the label, description and alias texts, each
    entity's range of aliases, and ``degrees``. A record is built on the
    first lookup of its id and kept, so a second lookup returns the same
    object. ``content_key`` names what a loaded catalog was parsed from
    (``load_snapshot``), or is None.
    """

    def __init__(self, ids, rows, labels, descriptions, aliases, alias_bounds, degrees,
                 id_order=None):
        self.ids = ids  # list of ids, catalog order
        self._rows = rows  # id -> position in ids
        self._labels, self._descriptions, self._aliases = labels, descriptions, aliases
        self._alias_bounds = alias_bounds  # entity i's aliases: [bounds[i], bounds[i + 1])
        self.degrees = degrees
        self._id_order = id_order
        self._memo = {}
        self.content_key = None

    @classmethod
    def of(cls, fields, rows, degrees):
        """The catalog of (id, label, description, aliases) tuples, in order."""
        ids, labels, descriptions, aliases = list(zip(*fields)) or ((), (), (), ())
        alias_bounds = array("q", [0])
        alias_bounds.extend(accumulate(map(len, aliases)))
        return cls(list(ids), rows, Texts.of(labels), Texts.of(descriptions),
                   Texts.of(chain.from_iterable(aliases)), alias_bounds, degrees)

    def record(self, row: int) -> EntityRecord:
        """The record of the entity at ``row``, built on first use."""
        eid = self.ids[row]
        record = self._memo.get(eid)
        if record is None:
            record = self._memo.setdefault(
                eid, EntityRecord(eid, *self.fields(row), int(self.degrees[row])))
        return record

    def fields(self, row: int) -> tuple[str, str, tuple[str, ...]]:
        """(label, description, aliases) of the entity at ``row``; builds no record."""
        bounds = self._alias_bounds
        return (self._labels[row], self._descriptions[row],
                tuple(map(self._aliases.__getitem__, range(bounds[row], bounds[row + 1]))))

    def id_order(self) -> np.ndarray:
        """The rows in ascending id order."""
        if self._id_order is None:
            self._id_order = np.array(sorted(range(len(self.ids)), key=self.ids.__getitem__),
                                      dtype=np.intc)
        return self._id_order

    def subset(self, rows, ids) -> Mapping[str, EntityRecord]:
        """A read-only mapping over the entities at ``rows``, iterated in the
        order of ``ids``, their ids; it reads records through this catalog."""
        return _Subset(self, rows, ids)

    def __getitem__(self, eid):
        record = self._memo.get(eid)
        return self.record(self._rows[eid]) if record is None else record

    def __contains__(self, eid):
        return eid in self._rows

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)

    def values(self):
        return EntityValues(self)


class EntityValues(ValuesView):
    """The records of an ``EntityCatalog``, in catalog order."""

    @property
    def mapping(self) -> EntityCatalog:
        return self._mapping

    def __iter__(self):
        return map(self._mapping.record, range(len(self._mapping)))


class _Subset(Mapping):
    """Some entities of an ``EntityCatalog``; see ``EntityCatalog.subset``."""

    def __init__(self, catalog, rows, ids):
        self._catalog, self._rows, self._ids = catalog, catalog._rows, ids
        kept = np.zeros(len(catalog), dtype=np.uint8)
        kept[rows] = 1
        self._kept = kept.tobytes()

    def __getitem__(self, eid):
        row = self._rows.get(eid)
        if row is None or not self._kept[row]:
            raise KeyError(eid)
        return self._catalog.record(row)

    def __contains__(self, eid):
        row = self._rows.get(eid)
        return row is not None and self._kept[row] == 1

    def __iter__(self):
        return iter(self._ids)

    def __len__(self):
        return len(self._ids)


@dataclass(frozen=True, eq=False)
class Snapshot:
    """Loaded knowledge graph; read-only. ``entities`` is a mapping view of
    the catalog columns and ``triples`` a sequence view of the triple
    columns that also reads relation profiles; the ``_by_*`` pools fill as
    ``match`` first uses each key."""

    entities: EntityCatalog
    predicates: dict[str, PredicateRecord]
    triples: TripleTable
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
    snapshot = cache.load("snapshot", SNAPSHOT_FORMAT, key, _ARRAYS, _from_entry)
    if snapshot is None:
        snapshot = _parse(paths)
        # Files that changed between the two digests may have been parsed
        # from other bytes than ``key`` names, so they get no entry and no
        # content key.
        if _digest(paths) != key:
            return snapshot
        cache.store("snapshot", SNAPSHOT_FORMAT, key, _entry(snapshot))
    snapshot.entities.content_key = f"snapshot-v{SNAPSHOT_FORMAT}-{key}"
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
    entities = _entity_catalog(
        ((lineno, obj["id"], obj["label"], obj.get("description"), obj.get("aliases"))
         for lineno, obj in read_jsonl(entity_file, ("id", "label"), offenders)),
        str(entity_file), invalid)
    offenders += invalid
    invalid.clear()
    predicates = _predicate_catalog(
        ((lineno, obj["id"], obj["label"], obj.get("description"))
         for lineno, obj in read_jsonl(predicate_file, ("id", "label"), offenders)),
        str(predicate_file), invalid)
    offenders += invalid

    with open(triple_file, encoding="utf-8") as fh:
        return _build(_tsv_rows(fh, str(triple_file), offenders), str(triple_file),
                      entities, predicates, offenders, "snapshot load failed")


def _entity_catalog(rows, source, offenders) -> dict[str, tuple]:
    """id -> (id, label, description, aliases) of the (lineno, id, label,
    description, aliases) ``rows`` that pass every check; each other row goes
    to ``offenders`` with its first failed check, in row order. A None
    description or aliases reads as absent."""
    entities: dict[str, tuple] = {}
    for lineno, eid, label, description, aliases in rows:
        description = "" if description is None else description
        aliases = () if aliases is None else aliases
        if not isinstance(eid, str):
            problem = "id must be a string"
        elif not is_entity_id(eid):
            problem = f"bad entity id {eid!r}"
        elif eid in entities:
            problem = f"duplicate entity id {eid}"
        elif not isinstance(label, str):
            problem = "label must be a string"
        elif not isinstance(description, str):
            problem = "description must be a string"
        elif not isinstance(aliases, (list, tuple)):
            problem = "aliases must be an array"
        elif not all(isinstance(alias, str) for alias in aliases):
            problem = "aliases must be an array of strings"
        else:
            entities[eid] = (eid, label, description, tuple(aliases))
            continue
        offenders.append((source, lineno, problem))
    return entities


def _predicate_catalog(rows, source, offenders) -> dict[str, PredicateRecord]:
    """id -> record of the (lineno, id, label, description) ``rows`` that
    pass every check; each other row goes to ``offenders`` as in
    ``_entity_catalog``."""
    predicates: dict[str, PredicateRecord] = {}
    for lineno, pid, label, description in rows:
        description = "" if description is None else description
        if not isinstance(pid, str):
            problem = "id must be a string"
        elif not is_predicate_id(pid):
            problem = f"bad predicate id {pid!r}"
        elif pid in predicates:
            problem = f"duplicate predicate id {pid}"
        elif not isinstance(label, str):
            problem = "label must be a string"
        elif not label:
            problem = "empty label"
        elif not isinstance(description, str):
            problem = "description must be a string"
        else:
            predicates[pid] = PredicateRecord(pid, label, description)
            continue
        offenders.append((source, lineno, problem))
    return predicates


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
    """Build a snapshot directly from records (programmatic construction).
    The records pass the checks ``load_snapshot`` holds catalog rows to, and
    a failing record is reported by its position among the records."""
    offenders = []
    entities = _entity_catalog(
        ((n, r.id, r.label, r.description, r.aliases)
         for n, r in enumerate(entity_records, start=1)), "<entity records>", offenders)
    predicates = _predicate_catalog(
        ((n, r.id, r.label, r.description) for n, r in enumerate(predicate_records, start=1)),
        "<predicate records>", offenders)
    return _build(enumerate((Triple(*t) for t in triples), start=1), "<records>",
                  entities, predicates, offenders, "snapshot construction failed")


def _build(rows, source, entities: dict[str, tuple],
           predicates: dict[str, PredicateRecord], offenders, failure) -> Snapshot:
    """Validate (lineno, (s, p, o)) rows into integer columns in one pass,
    dedupe them and index each position, then keep the catalog as columns.

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
    catalog = EntityCatalog.of(entities.values(), entity_ids, degrees)
    return _assemble((s, p, o), catalog, predicates, predicate_ids, literal_ids)


def _assemble(columns, entities: EntityCatalog, predicates, predicate_ids,
              literal_ids) -> Snapshot:
    """The snapshot of deduplicated (s, p, o) id columns.

    Subjects and entity objects have the ids of their positions in
    ``entities``, predicates the ids in ``predicate_ids``, and literals the
    ids in ``literal_ids``, from ``len(entities)``.
    """
    terms = [*entities.ids, *literal_ids]
    key_ids = (entities._rows, predicate_ids, entities._rows)
    table = TripleTable(columns, terms, list(predicates), key_ids, literal_ids)
    return Snapshot(
        entities=entities,
        predicates=predicates,
        triples=table,
        _by_subject=_Pools(table, _SUBJECT),
        _by_object=_Pools(table, _OBJECT),
        _by_predicate=_Pools(table, _PREDICATE),
    )


_INTC = np.dtype(np.intc)
# The cache entry of a snapshot, as ``cache.load`` checks it: name ->
# (dtype, or ``Texts`` for a column of strings; length name).
_ARRAYS = {"s": (_INTC, "triples"), "p": (_INTC, "triples"), "o": (_INTC, "triples"),
           "degrees": (np.dtype(np.int64), "entities"),
           "alias_counts": (np.dtype(np.int64), "entities"), "id_order": (_INTC, "entities"),
           "entity_id": (Texts, "entities"), "entity_label": (Texts, "entities"),
           "entity_description": (Texts, "entities"), "entity_aliases": (Texts, "aliases"),
           "literals": (Texts, "literals"), "predicate_id": (Texts, "predicates"),
           "predicate_label": (Texts, "predicates"),
           "predicate_description": (Texts, "predicates")}


def _within(ids, size):
    """Whether every id is in [0, size)."""
    return not len(ids) or (ids.min() >= 0 and ids.max() < size)


def _entry(snapshot: Snapshot) -> dict:
    """The cache entry of a snapshot: its columns, degrees and strings."""
    table, entities = snapshot.triples, snapshot.entities
    predicates = list(snapshot.predicates.values())
    return {**dict(zip("spo", table._columns)),
            "degrees": entities.degrees.astype(np.int64),
            "alias_counts": np.diff(np.frombuffer(entities._alias_bounds, dtype=np.int64)),
            "id_order": entities.id_order(),
            "entity_id": Texts.of(entities.ids), "entity_label": entities._labels,
            "entity_description": entities._descriptions, "entity_aliases": entities._aliases,
            "literals": Texts.of(table._terms[len(entities):]),
            "predicate_id": Texts.of(p.id for p in predicates),
            "predicate_label": Texts.of(p.label for p in predicates),
            "predicate_description": Texts.of(p.description for p in predicates)}


def _from_entry(values) -> Snapshot:
    """The snapshot from an entry's values, in ``_ARRAYS`` order as
    ``cache.load`` checked them; ValueError if they disagree. Ids and
    literals are decoded into strings; the other entity texts stay packed,
    one string each."""
    (s, p, o, degrees, alias_counts, id_order, ids, labels, descriptions, aliases, literals,
     pids, plabels, pdescriptions) = values.values()
    ids = list(ids)
    n, m = len(ids), len(pids)
    n_terms = n + len(literals)
    if ((alias_counts < 0).any() or alias_counts.sum() != len(aliases)
            or not (_within(s, n) and _within(p, m) and _within(o, n_terms))
            or not _within(id_order, n) or (np.bincount(id_order, minlength=n) != 1).any()):
        raise ValueError("snapshot entry arrays disagree")
    entity_ids = dict(zip(ids, range(n)))
    predicates = {pid: PredicateRecord(pid, label, description)
                  for pid, label, description in zip(pids, plabels, pdescriptions)}
    if len(entity_ids) != n or len(predicates) != m:
        raise ValueError("snapshot entry repeats an id")
    alias_bounds = array("q", [0])
    alias_bounds.frombytes(alias_counts.cumsum().tobytes())
    entities = EntityCatalog(ids, entity_ids, labels, descriptions, aliases, alias_bounds,
                             degrees, id_order)
    return _assemble((s, p, o), entities, predicates, dict(zip(predicates, range(m))),
                     dict(zip(literals, range(n, n_terms))))


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
    profile = snapshot.triples.relations(entity_id)
    if profile is None:
        raise NotFoundError(f"unknown entity id {entity_id}")
    return profile


def prune_by_degree(snapshot: Snapshot, min_degree: int = 10) -> set[str]:
    """Entity ids whose degree (distinct predicates, both directions) is >= min_degree."""
    if min_degree < 0:
        raise ValueError("min_degree must be >= 0")
    entities = snapshot.entities
    return set(map(entities.ids.__getitem__,
                   np.flatnonzero(entities.degrees >= min_degree).tolist()))

