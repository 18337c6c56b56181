"""Item bank: questions, answer keys, concept tags, and the derived Q-matrix.

The bank is the single source of truth for item ordering (row index i) and
concept ordering (column index k); every matrix in the pipeline inherits its
axes from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .errors import FormatError, ValidationError
from .manifest import check_format_version, first_duplicate, naming, read_json, write_json

BANK_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Concept:
    concept_id: str
    label: str


@dataclass(frozen=True)
class ConceptCatalog:
    """Ordered list of concepts; position in the list is the concept index."""

    concepts: tuple[Concept, ...]

    def __post_init__(self) -> None:
        if "" in self.ids:
            raise ValidationError("concept with empty id")
        dup = first_duplicate(self.ids)
        if dup is not None:
            raise ValidationError(f"duplicate concept id {dup!r}")

    def __len__(self) -> int:
        return len(self.concepts)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(c.concept_id for c in self.concepts)


@dataclass(frozen=True)
class Item:
    """One question: id, prompt text, normalized answer key, concept tags."""

    item_id: str
    prompt: str
    answer_key: str
    concept_tags: frozenset[str]

    def __post_init__(self) -> None:
        if not self.item_id:
            raise ValidationError("item with empty id")
        if not self.answer_key.strip():
            raise ValidationError(f"item {self.item_id!r}: empty answer key")
        if not self.concept_tags:
            raise ValidationError(f"item {self.item_id!r}: no concept tags")
        object.__setattr__(self, "answer_key", self.answer_key.strip().upper())


@dataclass(frozen=True)
class ItemBank:
    """Validated, ordered collection of items plus the concept catalog."""

    items: tuple[Item, ...]
    catalog: ConceptCatalog

    def __post_init__(self) -> None:
        if not self.items:
            raise ValidationError("no items")
        dup = first_duplicate(self.item_ids)
        if dup is not None:
            raise ValidationError(f"duplicate item id {dup!r}")
        known = set(self.catalog.ids)
        if not set().union(*(item.concept_tags for item in self.items)) <= known:
            item = next(item for item in self.items if not item.concept_tags <= known)
            raise ValidationError(
                f"item {item.item_id!r}: unknown concept tag {min(item.concept_tags - known)!r}"
            )

    def __len__(self) -> int:
        return len(self.items)

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(item.item_id for item in self.items)


def qmatrix(bank: ItemBank) -> NDArray[np.float64]:
    """Binary item-by-concept tagging matrix derived from the bank.

    Entry (i, k) is 1.0 iff item i is tagged with concept k.  Pure function of
    the bank; every row has at least one 1 because items must carry tags.
    """
    n_items = len(bank)
    n_concepts = len(bank.catalog)
    out = np.zeros((n_items, n_concepts), dtype=np.float64)
    col = {cid: k for k, cid in enumerate(bank.catalog.ids)}
    for i, item in enumerate(bank.items):
        for tag in item.concept_tags:
            out[i, col[tag]] = 1.0
    return out


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------

def load_item_bank(path: str | Path) -> ItemBank:
    """Load a bank from its JSON file (the layout :func:`write_bank_json` writes)."""
    payload = read_json(path)
    check_format_version(payload, path, BANK_FORMAT_VERSION)

    def text(record: dict, where: str, name: str, default: str | None = None) -> str:
        value = record[name] if default is None else record.get(name, default)
        if not isinstance(value, str):
            raise FormatError(f"{path}: {where}.{name} must be a string, got {value!r}")
        return value

    with naming(path):
        try:
            concepts = []
            for k, rec in enumerate(payload["concepts"]):
                where = f"concepts[{k}]"
                concept_id = text(rec, where, "id")
                concepts.append(Concept(concept_id, text(rec, where, "label", concept_id)))
            items = []
            for i, rec in enumerate(payload["items"]):
                where = f"items[{i}]"
                tags = rec["concepts"]
                if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                    raise FormatError(
                        f"{path}: {where}.concepts must be a list of strings, got {tags!r}"
                    )
                items.append(
                    Item(
                        item_id=text(rec, where, "id"),
                        prompt=text(rec, where, "prompt", ""),
                        answer_key=text(rec, where, "answer_key"),
                        concept_tags=frozenset(tags),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed bank record ({exc!r})") from exc
        return ItemBank(items=tuple(items), catalog=ConceptCatalog(tuple(concepts)))


def save_item_bank(bank: ItemBank, path: str | Path) -> None:
    """Write the bank as the JSON file :func:`load_item_bank` reads."""
    write_bank_json(
        path,
        ((c.concept_id, c.label) for c in bank.catalog.concepts),
        (
            (item.item_id, item.prompt, item.answer_key, sorted(item.concept_tags))
            for item in bank.items
        ),
    )


def write_bank_json(
    path: str | Path,
    concepts: Iterable[tuple[str, str]],
    items: Iterable[tuple[str, str, str, list[str]]],
) -> None:
    """Write a bank in the JSON layout :func:`load_item_bank` reads, from
    ``(id, label)`` per concept and ``(id, prompt, answer key, tags)`` per
    item, the tags sorted.  This is the one home of that layout; the rows
    are not checked, so they come from an ``ItemBank`` or from a simulated
    tag matrix.  Each item is written as ``items`` yields it, so the items
    are never all held at once."""
    write_json(
        path,
        {
            "format_version": BANK_FORMAT_VERSION,
            "concepts": [{"id": cid, "label": label} for cid, label in concepts],
            "items": (
                {"id": item_id, "prompt": prompt, "answer_key": key, "concepts": tags}
                for item_id, prompt, key, tags in items
            ),
        },
    )
