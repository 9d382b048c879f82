"""Restricted SPARQL: parsing, local execution, remote execution.

Grammar subset: optional PREFIX declarations, SELECT (DISTINCT)? over
variables, SELECT (COUNT(?v) AS ?alias), ASK, conjunctive triple patterns,
optional LIMIT. Everything else is rejected at parse time, with
unsupported-but-recognized constructs (FILTER, OPTIONAL, property paths,
qualifier namespaces) classified separately from plain syntax errors.
"""

from kgqa.sparql.answers import AnswerSet, normalize_term
from kgqa.sparql.ast import EntityRef, Literal, PredicateRef, QueryAst, TriplePattern, Var, render
from kgqa.sparql.local import LocalExecutor, execute_local
from kgqa.sparql.parser import parse
from kgqa.sparql.remote import EndpointConfig, RemoteExecutor

__all__ = [
    "AnswerSet",
    "EndpointConfig",
    "EntityRef",
    "Literal",
    "LocalExecutor",
    "PredicateRef",
    "QueryAst",
    "RemoteExecutor",
    "TriplePattern",
    "Var",
    "execute_local",
    "normalize_term",
    "parse",
    "render",
]
