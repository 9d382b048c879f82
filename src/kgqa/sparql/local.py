"""Conjunctive-pattern execution over an in-memory snapshot.

Solutions are distinct assignments of all pattern variables, found by a
backtracking join that consults the snapshot's adjacency indexes. The
answer set of a SELECT is built from the first projected variable.
LIMIT truncates solutions after sorting them by the projected tuple
(ascending lexicographic), so results are deterministic.
"""

from typing import Iterator, Optional

from kgqa.errors import ExecutionError
from kgqa.kgstore import Snapshot
from kgqa.sparql.answers import AnswerSet
from kgqa.sparql.ast import EntityRef, Literal, PredicateRef, QueryAst, Var
from kgqa.sparql.parser import parse


def _concrete(term, bindings) -> Optional[str]:
    if isinstance(term, Var):
        return bindings.get(term.name)
    if isinstance(term, (EntityRef, PredicateRef)):
        return term.id
    if isinstance(term, Literal):
        return term.value
    raise ExecutionError(f"unsupported term {term!r}")


def _solutions(patterns, snapshot: Snapshot, index: int,
               bindings: dict[str, str]) -> Iterator[dict[str, str]]:
    """Solutions of ``patterns[index:]`` under ``bindings``. A module-level
    function, not a closure over itself: a self-referencing closure is a
    reference cycle that keeps every query's patterns alive until the
    cyclic collector runs."""
    if index == len(patterns):
        yield dict(bindings)
        return
    pattern = patterns[index]
    s = _concrete(pattern.subject, bindings)
    p = _concrete(pattern.predicate, bindings)
    o = _concrete(pattern.object, bindings)
    for triple in snapshot.match(s, p, o):
        added = []
        ok = True
        for term, value in ((pattern.subject, triple.subject),
                            (pattern.predicate, triple.predicate),
                            (pattern.object, triple.object)):
            if isinstance(term, Var):
                bound = bindings.get(term.name)
                if bound is None:
                    bindings[term.name] = value
                    added.append(term.name)
                elif bound != value:
                    ok = False
                    break
        if ok:
            yield from _solutions(patterns, snapshot, index + 1, bindings)
        for name in added:
            del bindings[name]


def execute_local(ast: QueryAst, snapshot: Snapshot) -> AnswerSet:
    """Evaluate a parsed query against the snapshot."""
    solutions = list(_solutions(ast.patterns, snapshot, 0, {}))
    if ast.form == "ask":
        return AnswerSet.from_bool(bool(solutions))
    if ast.form == "count":
        if ast.count_distinct:
            value = len({sol[ast.count_var] for sol in solutions})
        else:
            value = len(solutions)
        return AnswerSet.of([str(value)])
    for name in ast.projection:
        if solutions and name not in solutions[0]:
            raise ExecutionError(f"projected variable ?{name} is unbound")
    rows = [tuple(sol[name] for name in ast.projection) for sol in solutions]
    if ast.distinct:
        rows = set(rows)
    rows = sorted(rows)
    if ast.limit is not None:
        rows = rows[: ast.limit]
    return AnswerSet.of([row[0] for row in rows])


class LocalExecutor:
    """Parse-and-execute handle over one snapshot."""

    name = "local"

    def __init__(self, snapshot: Snapshot):
        self.snapshot = snapshot

    def run(self, query_text: str) -> AnswerSet:
        """Raises QueryParseError for bad text, ExecutionError for bad plans."""
        ast = parse(query_text)
        return execute_local(ast, self.snapshot)


__all__ = ["LocalExecutor", "execute_local"]
