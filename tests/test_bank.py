import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdmkit import (
    Concept,
    ConceptCatalog,
    FormatError,
    Item,
    ItemBank,
    ValidationError,
    load_item_bank,
    qmatrix,
    save_item_bank,
)


def test_qmatrix_rows_follow_tags(tiny_bank):
    q = qmatrix(tiny_bank)
    expected = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(q, expected)


def test_qmatrix_is_pure(tiny_bank):
    np.testing.assert_array_equal(qmatrix(tiny_bank), qmatrix(tiny_bank))


def test_three_items_per_concept_column_sums():
    # 210 single-tag items spread evenly over 70 concepts: every column sums to 3.
    catalog = ConceptCatalog(tuple(Concept(f"c{k}", f"concept {k}") for k in range(70)))
    items = tuple(
        Item(f"q{i}", "", "A", frozenset({f"c{i % 70}"})) for i in range(210)
    )
    bank = ItemBank(items=items, catalog=catalog)
    q = qmatrix(bank)
    assert q.shape == (210, 70)
    np.testing.assert_array_equal(q.sum(axis=0), np.full(70, 3.0))
    np.testing.assert_array_equal(q.sum(axis=1), np.ones(210))


def test_answer_key_is_normalized():
    item = Item("q", "", "  bc ", frozenset({"c"}))
    assert item.answer_key == "BC"


def test_empty_answer_key_rejected():
    with pytest.raises(ValidationError, match="empty answer key"):
        Item("q", "", "   ", frozenset({"c"}))


def test_untagged_item_rejected():
    with pytest.raises(ValidationError, match="no concept tags"):
        Item("q", "", "A", frozenset())


def test_duplicate_item_ids_rejected(tiny_bank):
    with pytest.raises(ValidationError, match="duplicate item id"):
        ItemBank(items=tiny_bank.items + tiny_bank.items[:1], catalog=tiny_bank.catalog)


def test_unknown_tag_names_offender(tiny_bank):
    rogue = Item("q9", "", "A", frozenset({"nope"}))
    with pytest.raises(ValidationError, match=r"q9.*nope"):
        ItemBank(items=tiny_bank.items + (rogue,), catalog=tiny_bank.catalog)


def test_unknown_tags_name_the_least(tiny_bank):
    rogue = Item("q9", "", "A", frozenset({"zz", "aa"}))
    with pytest.raises(ValidationError, match="q9': unknown concept tag 'aa'"):
        ItemBank(items=tiny_bank.items + (rogue,), catalog=tiny_bank.catalog)


def test_duplicate_concept_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate concept id"):
        ConceptCatalog((Concept("c", "x"), Concept("c", "y")))


def test_catalog_index_and_len(tiny_bank):
    assert len(tiny_bank.catalog) == 2
    # A concept's index is its position in the catalog.
    assert tiny_bank.catalog.ids == ("c1", "c2")


def test_bank_round_trip(tiny_bank, tmp_path):
    path = tmp_path / "bank.json"
    save_item_bank(tiny_bank, path)
    loaded = load_item_bank(path)
    assert loaded.item_ids == tiny_bank.item_ids
    assert loaded.catalog.ids == tiny_bank.catalog.ids
    for a, b in zip(loaded.items, tiny_bank.items):
        assert (a.item_id, a.answer_key, a.concept_tags) == (
            b.item_id,
            b.answer_key,
            b.concept_tags,
        )
    np.testing.assert_array_equal(qmatrix(loaded), qmatrix(tiny_bank))


def test_unknown_format_version_rejected(tiny_bank, tmp_path):
    path = tmp_path / "bank.json"
    save_item_bank(tiny_bank, path)
    text = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(text)
    with pytest.raises(FormatError, match="format_version"):
        load_item_bank(path)


def _bank_payload():
    return {
        "format_version": 1,
        "concepts": [{"id": "c1", "label": "loops"}, {"id": "c2"}],
        "items": [
            {"id": "q1", "prompt": "p1", "answer_key": "A", "concepts": ["c1"]},
            {"id": "q2", "answer_key": "b", "concepts": ["c1", "c2"]},
        ],
    }


def test_bank_json_payload_loads(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(_bank_payload()))
    bank = load_item_bank(path)
    assert bank.catalog.concepts == (Concept("c1", "loops"), Concept("c2", "c2"))
    assert bank.items == (
        Item("q1", "p1", "A", frozenset({"c1"})),
        Item("q2", "", "B", frozenset({"c1", "c2"})),
    )


# Each field must hold its JSON type: true and 1.0 are not the version 1, and
# a string of tags is not split into one-character tags.
@pytest.mark.parametrize("record, key, value, message", [
    pytest.param((), "format_version", True, "unsupported format_version True (expected 1)",
                 id="version true"),
    pytest.param((), "format_version", 1.0, "unsupported format_version 1.0 (expected 1)",
                 id="version 1.0"),
    pytest.param((), "format_version", "1", "unsupported format_version '1' (expected 1)",
                 id="version string"),
    pytest.param(("items", 0), "answer_key", 5, "items[0].answer_key must be a string, got 5",
                 id="answer_key number"),
    pytest.param(("items", 1), "id", 2, "items[1].id must be a string, got 2", id="item id number"),
    pytest.param(("items", 0), "prompt", None, "items[0].prompt must be a string, got None",
                 id="prompt null"),
    pytest.param(("items", 1), "concepts", "c1",
                 "items[1].concepts must be a list of strings, got 'c1'", id="tags string"),
    pytest.param(("items", 0), "concepts", ["c1", 1],
                 "items[0].concepts must be a list of strings, got ['c1', 1]", id="tag number"),
    pytest.param(("items", 0), "concepts", {"c1": 1},
                 "items[0].concepts must be a list of strings, got {'c1': 1}", id="tags object"),
    pytest.param(("concepts", 1), "id", 7, "concepts[1].id must be a string, got 7",
                 id="concept id number"),
    pytest.param(("concepts", 0), "label", ["loops"],
                 "concepts[0].label must be a string, got ['loops']", id="label list"),
])
def test_bank_json_field_types_checked(tmp_path, record, key, value, message):
    payload = _bank_payload()
    target = payload
    for step in record:
        target = target[step]
    target[key] = value
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        load_item_bank(path)


def test_malformed_json_is_format_error(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_item_bank(path)


_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)


@st.composite
def _banks(draw):
    concept_ids = draw(st.lists(_text.filter(bool), min_size=1, max_size=5, unique=True))
    catalog = ConceptCatalog(tuple(Concept(c, draw(_text)) for c in concept_ids))
    item_ids = draw(st.lists(_text.filter(bool), min_size=1, max_size=5, unique=True))
    items = tuple(
        Item(
            item_id,
            draw(_text),
            draw(_text.filter(str.strip)),
            frozenset(draw(st.lists(st.sampled_from(concept_ids), min_size=1, max_size=3))),
        )
        for item_id in item_ids
    )
    return ItemBank(items=items, catalog=catalog)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_banks())
def test_bank_round_trip_property(tmp_path, bank):
    save_item_bank(bank, tmp_path / "bank.json")
    loaded = load_item_bank(tmp_path / "bank.json")
    assert loaded.catalog == bank.catalog
    assert loaded.items == bank.items
