"""Catalog identifier patterns."""

import pytest

from kgqa.ids import ANY_ID_RE, is_entity_id, is_predicate_id


@pytest.mark.parametrize("token, entity, predicate", [
    ("Q1", True, False),
    ("Q007", True, False),
    ("P7", False, True),
    ("Q1\n", False, False),
    ("P7\n", False, False),
    ("Q1 ", False, False),
    ("xQ1", False, False),
    ("Q1x", False, False),
    ("Q", False, False),
    ("q1", False, False),
    ("", False, False),
])
def test_whole_token_must_match(token, entity, predicate):
    assert is_entity_id(token) is entity
    assert is_predicate_id(token) is predicate
    assert (ANY_ID_RE.fullmatch(token) is not None) is (entity or predicate)
