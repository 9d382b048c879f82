"""Normalized answer sets compared by the execution-match metrics."""

import re
from dataclasses import dataclass
from typing import Iterable, Optional

_URI_TAIL_RE = re.compile(r"^https?://\S*/([QP][0-9]+)$")


def normalize_term(value: str) -> str:
    """Collapse entity/property URIs to their terminal id; literals pass through."""
    m = _URI_TAIL_RE.match(value)
    if m:
        return m.group(1)
    return value


@dataclass(frozen=True, slots=True)
class AnswerSet:
    """Set of normalized answer terms; boolean answers also set ``truth``.

    A boolean answer is mirrored into terms as "true"/"false" so that set
    comparison and the empty-result check treat it uniformly (a false
    answer is still an answer).
    """

    terms: frozenset[str]
    truth: Optional[bool] = None

    @classmethod
    def of(cls, values: Iterable[str]) -> "AnswerSet":
        return cls(terms=frozenset(normalize_term(v) for v in values))

    @classmethod
    def from_bool(cls, value: bool) -> "AnswerSet":
        return cls(terms=frozenset({"true" if value else "false"}), truth=value)

    @classmethod
    def empty(cls) -> "AnswerSet":
        return cls(terms=frozenset())

    def sorted_terms(self) -> list[str]:
        return sorted(self.terms)
