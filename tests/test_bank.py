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


def test_orphan_concepts_surfaced():
    catalog = ConceptCatalog((Concept("c1", ""), Concept("c2", ""), Concept("c3", "")))
    bank = ItemBank(
        items=(Item("q", "", "A", frozenset({"c2"})),),
        catalog=catalog,
    )
    assert bank.orphan_concepts == ("c1", "c3")


def test_catalog_index_and_len(tiny_bank):
    assert len(tiny_bank.catalog) == 2
    # A concept's index is its position in the catalog.
    assert tiny_bank.catalog.ids == ("c1", "c2")


@pytest.mark.parametrize("fmt,name", [("json", "bank.json"), ("csv", "bank.csv")])
def test_bank_round_trip(tiny_bank, tmp_path, fmt, name):
    path = tmp_path / name
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


def test_csv_needs_companion_concepts(tiny_bank, tmp_path):
    save_item_bank(tiny_bank, tmp_path / "bank.csv")
    (tmp_path / "concepts.csv").unlink()
    with pytest.raises(FormatError, match="concepts"):
        load_item_bank(tmp_path / "bank.csv")


def test_malformed_json_is_format_error(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_item_bank(path)


_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
# The CSV format joins an item's concept ids with ";".
_concept_ids = _text.filter(lambda c: c and ";" not in c)


@st.composite
def _banks(draw):
    concept_ids = draw(st.lists(_concept_ids, min_size=1, max_size=5, unique=True))
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
@given(_banks(), st.sampled_from(["bank.json", "bank.csv"]))
def test_bank_round_trip_property(tmp_path, bank, name):
    save_item_bank(bank, tmp_path / name)
    loaded = load_item_bank(tmp_path / name)
    assert loaded.catalog == bank.catalog
    assert loaded.items == bank.items
