#!/usr/bin/env python3
"""Seeded synthetic graph and question generator for the kgqa benchmark.

    python3 perfbench/gen.py --workload qa-join --seed 7 --out DIR

writes into DIR:

  entities.jsonl    entity catalog ({"id", "label", "description", "aliases"})
  predicates.jsonl  predicate catalog ({"id", "label", "description"})
  triples.tsv       subject <TAB> predicate <TAB> object
  questions.jsonl   dataset in the ``kgqa evaluate`` format, without answers
  expected.json     {question id: sorted expected answer terms}
  remote.json       tables the fake chat and SPARQL endpoints answer from
  shape.json        graph and dataset sizes

The generator imports nothing from ``kgqa``: expected answers come from
its own adjacency maps, so an executor bug shows up as a failed question
instead of a matching wrong gold answer.

Vocabularies are disjoint by construction. Entity labels and descriptions
draw Zipf-skewed words from the entity vocabulary, and every label starts
with a name token that no other document contains. Predicate labels are
single words found in no entity document, and question templates use
words found in no catalog. So for a question that names its entity, BM25
ranks the gold entity and gold predicates within the top 10, while a
question that describes its entity only with words absent from the
entity's own document never retrieves it. The share of such "miss" questions is fixed
per workload, which pins Recall@k, macro F1 and the rejected share
across seeds while the search still does real work on common words.

Question entities are drawn uniformly, then stratified by the work they
cause (summed posting lengths of the question's entity words, or the
rows a nested-loop plan scans in the written pattern order): the
questions are the cost quantiles of a larger candidate pool, so every
seed gets the same spread of cheap and expensive questions.
"""

import argparse
import itertools
import json
import random
from pathlib import Path

TEMPLATE_WORDS = {
    "what", "is", "the", "of", "how", "many", "things", "have", "are",
    "whose", "does", "as", "its", "a",
}

# Per-workload shape. ``forms`` gives the share of each question form;
# "miss" questions describe their entity without its own words.
# ``questions`` is the length of one pass; one-hop questions are the cost
# quantiles of a candidate pool ``pool`` times larger. Search cost is
# heavy-tailed in the Zipf words of a question's labels, so qa-retrieval's
# pool must be large for its quantiles, and with them the median
# question, to repeat across seeds.
SHAPES = {
    "qa-retrieval": dict(
        entities=100_000, predicates=40, vocab=6000, zipf=1.05, out_mean=1.6,
        literal_share=0.3, min_degree=1, questions=64, pool=64,
        forms={"select": 0.5, "ask": 0.25, "miss": 0.25},
    ),
    "qa-join": dict(
        entities=20_000, predicates=40, vocab=3000, zipf=1.05, triples=60_000,
        pareto_subject=2.5, pareto_object=1.1,
        min_degree=10, questions=150,
        forms={"two-hop": 0.25, "two-hop-scan": 0.25, "count": 0.3, "one-hop": 0.05,
               "miss": 0.15},
    ),
    "qa-remote": dict(
        entities=10_000, predicates=40, vocab=3000, zipf=1.05, out_mean=2.0,
        literal_share=0.3, min_degree=1, questions=120, pool=8,
        forms={"select": 0.5, "ask": 0.25, "miss": 0.25},
        off_list_share=0.3, fail_share=0.1,
    ),
}

STRATA_POOL = 8  # qa-join candidates per question drawn before stratifying
SCAN_RANKS = 16  # "two-hop-scan" questions cycle over this many top predicates

_ONSETS = "b d f g k l m n p r s t v z".split()
_VOWELS = "a e i o u".split()
_NAME_ONSETS = "br dr gr kr pr tr vl zh ch sk".split()
_PRED_ONSETS = "h j w y".split()


def _word(rng, onsets, n_syllables):
    return "".join(rng.choice(onsets) + rng.choice(_VOWELS) for _ in range(n_syllables))


def _unique_words(rng, count, onsets, syllables, taken):
    words = []
    while len(words) < count:
        w = _word(rng, onsets, rng.choice(syllables))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


class ZipfSampler:
    def __init__(self, rng, items, exponent):
        self.rng = rng
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** exponent
                                             for r in range(len(items))))

    def draw(self, k):
        return self.rng.choices(self.items, cum_weights=self.cum, k=k)

    def draw_distinct(self, k, exclude=()):
        picked = []
        while len(picked) < k:
            w = self.draw(1)[0]
            if w not in picked and w not in exclude:
                picked.append(w)
        return picked


class Graph:
    """Catalogs plus the generator's own adjacency maps."""

    def __init__(self):
        self.entities = {}      # id -> (label words, description words)
        self.predicates = {}    # id -> (label word, description words)
        self.out = {}           # s -> p -> set(o)
        self.inc = {}           # o -> p -> set(s)
        self.by_pred = {}       # p -> number of triples
        self.triples = []

    def add(self, s, p, o):
        objs = self.out.setdefault(s, {}).setdefault(p, set())
        if o in objs:
            return
        objs.add(o)
        self.triples.append((s, p, o))
        self.by_pred[p] = self.by_pred.get(p, 0) + 1
        if o.startswith("Q"):
            self.inc.setdefault(o, {}).setdefault(p, set()).add(s)

    def outdeg(self, s):
        return sum(len(v) for v in self.out.get(s, {}).values())

    def indeg(self, o):
        return sum(len(v) for v in self.inc.get(o, {}).values())

    def degree(self, e):
        """Distinct predicates touching ``e``, a self-loop counted once."""
        return len(set(self.out.get(e, {})) | set(self.inc.get(e, {})))


def build_catalogs(rng, shape, graph):
    taken = set(TEMPLATE_WORDS)
    vocab = _unique_words(rng, shape["vocab"], _ONSETS, (2, 3), taken)
    words = ZipfSampler(rng, vocab, shape["zipf"])
    names = _unique_words(rng, shape["entities"], _NAME_ONSETS, (3, 4), taken)
    pred_words = _unique_words(rng, shape["predicates"] * 4, _PRED_ONSETS, (2, 3), taken)
    for i, name in enumerate(names):
        label = [name] + words.draw_distinct(2)
        graph.entities[f"Q{i + 1}"] = (label, words.draw(rng.randint(3, 7)))
    for i in range(shape["predicates"]):
        graph.predicates[f"P{i + 1}"] = (pred_words[i], rng.sample(
            pred_words[shape["predicates"]:], 3))
    return words


def _literal(rng):
    return str(rng.randint(1000, 2029))


def build_uniform_triples(rng, shape, graph):
    """Every entity gets 1 + Poisson-ish outgoing triples, uniform objects."""
    ids = list(graph.entities)
    preds = ZipfSampler(rng, list(graph.predicates), 0.8)
    for s in ids:
        n = 1 + sum(1 for _ in range(4) if rng.random() < (shape["out_mean"] - 1) / 4)
        for p in preds.draw(n):
            if rng.random() < shape["literal_share"]:
                graph.add(s, p, _literal(rng))
            else:
                graph.add(s, p, rng.choice(ids))


def _pareto_weights(rng, n, alpha):
    """Pareto quantiles in random order: every seed gets the same weights,
    so the largest hubs are as large on every seed."""
    weights = [(1.0 - (i + 0.5) / n) ** (-1.0 / alpha) for i in range(n)]
    rng.shuffle(weights)
    return weights


def build_hub_triples(rng, shape, graph):
    """Pareto-weighted subjects and objects: a few hubs carry most edges."""
    ids = list(graph.entities)
    subj_w = list(itertools.accumulate(_pareto_weights(rng, len(ids),
                                                       shape["pareto_subject"])))
    obj_w = list(itertools.accumulate(_pareto_weights(rng, len(ids),
                                                      shape["pareto_object"])))
    preds = ZipfSampler(rng, list(graph.predicates), 0.8)
    target = shape["triples"]
    while len(graph.triples) < target:
        s = rng.choices(ids, cum_weights=subj_w)[0]
        o = rng.choices(ids, cum_weights=obj_w)[0]
        graph.add(s, preds.draw(1)[0], o)


def _label(graph, eid):
    return " ".join(w.capitalize() for w in graph.entities[eid][0])


def _doc_words(graph, eid):
    label, desc = graph.entities[eid]
    return set(label) | set(desc)


def _plabel(graph, pid):
    return graph.predicates[pid][0]


def _miss_words(rng, words, graph, eid):
    """Two entity-vocabulary words absent from ``eid``'s own document."""
    return words.draw_distinct(2, exclude=_doc_words(graph, eid))


def _posting_cost(df, tokens):
    return sum(df.get(t, 0) for t in tokens)


def _stratified(pool, count):
    """The middle candidate of each of ``count`` equal cost strata of
    ``pool`` (a list of (cost, item)): the pool's cost quantiles."""
    pool.sort(key=lambda c: c[0])
    return [pool[(2 * i + 1) * len(pool) // (2 * count)][1] for i in range(count)]


def _form_counts(shape):
    n = shape["questions"]
    counts = {form: round(share * n) for form, share in shape["forms"].items()}
    first = next(iter(counts))
    counts[first] += n - sum(counts.values())
    return counts


def one_hop_questions(rng, shape, graph, words, df):
    """SELECT / ASK one-hop questions on uniformly chosen subjects."""
    subjects = [e for e in graph.entities if e in graph.out]
    counts = _form_counts(shape)
    questions = []
    used, texts = set(), set()
    objects = {}

    def objects_of(p):
        if p not in objects:
            objects[p] = sorted(o for o, ps in graph.inc.items() if p in ps)
        return objects[p]

    def pool(form, size):
        cands = []
        while len(cands) < size:
            s = rng.choice(subjects)
            if s in used:
                continue
            q = make(form, s)
            if q is None or q["question"] in texts:
                continue
            used.add(s)
            texts.add(q["question"])
            cands.append((q.pop("_cost"), q))
        return cands

    def make(form, s):
        p = rng.choice(sorted(graph.out[s]))
        objs = graph.out[s][p]
        if form == "ask":
            entity_objs = sorted(o for o in objs if o.startswith("Q"))
            if not entity_objs:
                return None
            o = rng.choice(entity_objs)
            truth = rng.random() < 0.5
            if not truth:
                # An object that does take ``p`` from someone else, so the
                # ontology filter passes and the query runs to "false".
                o = rng.choice(objects_of(p))
                if o in objs:
                    return None
            text = f"Does {_label(graph, s)} have {_plabel(graph, p)} {_label(graph, o)}?"
            tokens = graph.entities[s][0] + graph.entities[o][0]
            return dict(question=text, sparql=f"ASK {{ wd:{s} wdt:{p} wd:{o} }}",
                        entities=[s, o], predicates=[p],
                        answers=["true" if truth else "false"],
                        _cost=_posting_cost(df, tokens))
        if form == "miss":
            described = _miss_words(rng, words, graph, s)
            text = (f"What is the {_plabel(graph, p)} of the "
                    f"{' '.join(described)}?")
            tokens = described
        else:
            text = f"What is the {_plabel(graph, p)} of {_label(graph, s)}?"
            tokens = graph.entities[s][0]
        return dict(question=text, sparql=f"SELECT ?x WHERE {{ wd:{s} wdt:{p} ?x }}",
                    entities=[s], predicates=[p], answers=sorted(objs),
                    _cost=_posting_cost(df, tokens))

    for form, n in counts.items():
        questions += _stratified(pool(form, n * shape["pool"]), n)
    return questions


def join_questions(rng, shape, graph, words, survivors):
    """Two-hop, COUNT and one-hop questions on entities that survive pruning."""
    hubs = sorted((e for e in survivors if e in graph.inc),
                  key=lambda e: (-graph.indeg(e), e))
    hub_w = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(hubs))))
    subjects = sorted(e for e in survivors if e in graph.out)
    counts = _form_counts(shape)
    seen_queries = set()

    by_pred = {}

    def subjects_with(p):
        if p not in by_pred:
            by_pred[p] = [(s, ps[p]) for s, ps in graph.out.items() if p in ps]
        return by_pred[p]

    def two_hop(described, scan, p2=None):
        h = rng.choices(hubs, cum_weights=hub_w)[0]
        p1 = rng.choice(sorted(graph.inc[h]))
        xs = graph.inc[h][p1]
        p2s = sorted({p for x in xs for p in graph.out.get(x, {})} - {p1})
        if p2 is None and p2s:
            p2 = rng.choice(p2s)
        if p2 not in p2s:
            return None
        ys = {y for x in xs for y in graph.out.get(x, {}).get(p2, ())}
        if not ys:
            return None
        # "two-hop-scan" questions list the unselective pattern first, as
        # written queries often do; the local executor joins in written order.
        if scan:
            body = f"?x wdt:{p2} ?y . ?x wdt:{p1} wd:{h}"
            cost = graph.by_pred[p2] + sum(len(objs) * graph.outdeg(x)
                                           for x, objs in subjects_with(p2))
        else:
            body = f"?x wdt:{p1} wd:{h} . ?x wdt:{p2} ?y"
            cost = graph.indeg(h) + sum(graph.outdeg(x) for x in xs)
        entity = (" ".join(_miss_words(rng, words, graph, h)) if described
                  else _label(graph, h))
        text = (f"What are the {_plabel(graph, p2)} of things whose "
                f"{_plabel(graph, p1)} is {'the ' if described else ''}{entity}?")
        return dict(question=text, sparql=f"SELECT DISTINCT ?y WHERE {{ {body} }}",
                    entities=[h], predicates=[p1, p2], answers=sorted(ys), _cost=cost)

    def count():
        h = rng.choices(hubs, cum_weights=hub_w)[0]
        p = rng.choice(sorted(graph.inc[h]))
        n = len(graph.inc[h][p])
        text = f"How many things have {_plabel(graph, p)} {_label(graph, h)}?"
        return dict(question=text,
                    sparql=f"SELECT (COUNT(?x) AS ?n) WHERE {{ ?x wdt:{p} wd:{h} }}",
                    entities=[h], predicates=[p], answers=[str(n)],
                    _cost=graph.indeg(h))

    def one_hop():
        s = rng.choice(subjects)
        p = rng.choice(sorted(graph.out[s]))
        text = f"What is the {_plabel(graph, p)} of {_label(graph, s)}?"
        return dict(question=text, sparql=f"SELECT ?x WHERE {{ wd:{s} wdt:{p} ?x }}",
                    entities=[s], predicates=[p], answers=sorted(graph.out[s][p]),
                    _cost=graph.outdeg(s))

    # A scan question costs about as much as its unselective pattern's
    # predicate has triples, so scan questions take the predicates by
    # frequency rank in turn instead of being stratified.
    ranked = sorted(graph.by_pred, key=lambda p: (-graph.by_pred[p], p))
    makers = {"two-hop": lambda: two_hop(False, False), "count": count,
              "one-hop": one_hop, "miss": lambda: two_hop(True, False)}
    questions = []
    for form, n in counts.items():
        if form == "two-hop-scan":
            for i in range(n):
                for _attempt in range(1000):
                    q = two_hop(False, True, ranked[i % SCAN_RANKS])
                    if q is not None and q["sparql"] not in seen_queries:
                        break
                else:
                    raise SystemExit(f"qa-join: no scan question on {ranked[i % SCAN_RANKS]}")
                seen_queries.add(q["sparql"])
                del q["_cost"]
                questions.append(q)
            continue
        cands = []
        attempts = 0
        while len(cands) < n * STRATA_POOL and attempts < n * STRATA_POOL * 50:
            attempts += 1
            q = makers[form]()
            if q is None or q["sparql"] in seen_queries:
                continue
            seen_queries.add(q["sparql"])
            cands.append((q.pop("_cost"), q))
        if len(cands) < n:
            raise SystemExit(f"qa-join: only {len(cands)} distinct {form} questions")
        questions += _stratified(cands, n)
    return questions


def document_frequencies(graph):
    df = {}
    for label, desc in graph.entities.values():
        for w in set(label) | set(desc):
            df[w] = df.get(w, 0) + 1
    return df


def remote_tables(rng, shape, graph, questions):
    """What the fake endpoints answer: per question, the gold ids and query;
    per query, its results; plus seeded first-attempt failures.

    The off-list and failing questions are seeded, but their numbers are
    fixed shares of the questions, so every seed retries equally often."""
    next_q = len(graph.entities) + 1
    next_p = len(graph.predicates) + 1
    chat, sparql = {}, {}
    statuses = (503, 429)
    n = len(questions)

    def chosen(share):
        return set(rng.sample(range(n), round(share * n)))

    off_list = chosen(shape["off_list_share"])
    failing = {kind: chosen(shape["fail_share"])
               for kind in ("entity", "predicate", "generate", "sparql")}
    for i, q in enumerate(questions):
        extra = i in off_list
        chat[q["question"]] = {
            "entities": q["entities"] + ([f"Q{next_q + i}"] if extra else []),
            "predicates": q["predicates"] + ([f"P{next_p + i}"] if extra else []),
            "query": q["sparql"],
            "fence": "sparql" if i % 2 else "",
            "fail": {kind: statuses[rng.randrange(2)]
                     for kind in ("entity", "predicate", "generate")
                     if i in failing[kind]},
        }
        sparql[q["sparql"]] = {
            "answers": q["answers"],
            "form": q["sparql"].split()[0].lower(),
            "fail": statuses[rng.randrange(2)] if i in failing["sparql"] else 0,
        }
    return {"chat": chat, "sparql": sparql}


def generate(workload, seed, out):
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    graph = Graph()
    words = build_catalogs(rng, shape, graph)
    if "triples" in shape:
        build_hub_triples(rng, shape, graph)
    else:
        build_uniform_triples(rng, shape, graph)
    survivors = {e for e in graph.entities if graph.degree(e) >= shape["min_degree"]}
    if workload == "qa-join":
        questions = join_questions(rng, shape, graph, words, survivors)
    else:
        questions = one_hop_questions(rng, shape, graph, words,
                                      document_frequencies(graph))
    rng.shuffle(questions)
    for i, q in enumerate(questions):
        q["id"] = f"{workload}-{i:04d}"

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "entities.jsonl", "w", encoding="utf-8") as fh:
        for eid, (label, desc) in graph.entities.items():
            fh.write(json.dumps({"id": eid, "label": _label(graph, eid),
                                 "description": " ".join(desc), "aliases": []}) + "\n")
    with open(out / "predicates.jsonl", "w", encoding="utf-8") as fh:
        for pid, (label, desc) in graph.predicates.items():
            fh.write(json.dumps({"id": pid, "label": label,
                                 "description": " ".join(desc)}) + "\n")
    with open(out / "triples.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{p}\t{o}\n" for s, p, o in graph.triples)
    with open(out / "questions.jsonl", "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps({"id": q["id"], "question": q["question"],
                                 "sparql": q["sparql"], "entities": q["entities"],
                                 "predicates": q["predicates"], "dataset": workload,
                                 "split": "test"}) + "\n")
    (out / "expected.json").write_text(json.dumps(
        {q["id"]: q["answers"] for q in questions}, sort_keys=True))
    if workload == "qa-remote":
        (out / "remote.json").write_text(json.dumps(
            remote_tables(rng, shape, graph, questions)))
    (out / "shape.json").write_text(json.dumps({
        "entities": len(graph.entities), "predicates": len(graph.predicates),
        "triples": len(graph.triples), "surviving_entities": len(survivors),
        "min_degree": shape["min_degree"], "questions": len(questions),
        "miss_questions": _form_counts(shape).get("miss", 0),
    }, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
