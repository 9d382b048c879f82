"""Identifier patterns for catalog entries ("Q" + digits / "P" + digits).

Match with ``fullmatch``: a ``$`` anchor also matches before a trailing newline.
"""

import re

ENTITY_ID_RE = re.compile(r"Q[0-9]+")
PREDICATE_ID_RE = re.compile(r"P[0-9]+")
ANY_ID_RE = re.compile(r"[QP][0-9]+")


def is_entity_id(token: str) -> bool:
    return ENTITY_ID_RE.fullmatch(token) is not None


def is_predicate_id(token: str) -> bool:
    return PREDICATE_ID_RE.fullmatch(token) is not None
