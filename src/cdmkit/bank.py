"""Item bank: questions, answer keys, concept tags, and the derived Q-matrix.

The bank is the single source of truth for item ordering (row index i) and
concept ordering (column index k); every matrix in the pipeline inherits its
axes from here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import FormatError, ValidationError
from .manifest import write_json

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
        seen: set[str] = set()
        for c in self.concepts:
            if not c.concept_id:
                raise ValidationError("concept with empty id")
            if c.concept_id in seen:
                raise ValidationError(f"duplicate concept id {c.concept_id!r}")
            seen.add(c.concept_id)

    def __len__(self) -> int:
        return len(self.concepts)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(c.concept_id for c in self.concepts)

    def index(self, concept_id: str) -> int:
        try:
            return self.ids.index(concept_id)
        except ValueError:
            raise KeyError(concept_id) from None


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
    orphan_concepts: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.items:
            raise ValidationError("no items")
        seen: set[str] = set()
        known = set(self.catalog.ids)
        tagged: set[str] = set()
        for item in self.items:
            if item.item_id in seen:
                raise ValidationError(f"duplicate item id {item.item_id!r}")
            seen.add(item.item_id)
            for tag in sorted(item.concept_tags):
                if tag not in known:
                    raise ValidationError(
                        f"item {item.item_id!r}: unknown concept tag {tag!r}"
                    )
            tagged |= item.concept_tags
        # Concepts nobody tags are legal but worth surfacing to callers.
        object.__setattr__(
            self,
            "orphan_concepts",
            tuple(cid for cid in self.catalog.ids if cid not in tagged),
        )

    def __len__(self) -> int:
        return len(self.items)

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(item.item_id for item in self.items)

    def item_index(self, item_id: str) -> int:
        return self.item_ids.index(item_id)


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
# On-disk formats
# ---------------------------------------------------------------------------

def load_item_bank(path: str | Path, format: str | None = None) -> ItemBank:
    """Load a bank from JSON (single file) or CSV (items + companion concepts).

    ``format`` may be "json" or "csv"; when omitted it is inferred from the
    file extension.
    """
    path = Path(path)
    fmt = format or ("csv" if path.suffix.lower() == ".csv" else "json")
    if fmt == "json":
        return _load_bank_json(path)
    if fmt == "csv":
        return _load_bank_csv(path)
    raise FormatError(f"unknown item bank format {fmt!r}")


def _load_bank_json(path: Path) -> ItemBank:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if version != BANK_FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported format_version {version!r} "
            f"(expected {BANK_FORMAT_VERSION})"
        )
    try:
        catalog = ConceptCatalog(
            tuple(Concept(c["id"], c.get("label", c["id"])) for c in payload["concepts"])
        )
        items = tuple(
            Item(
                item_id=rec["id"],
                prompt=rec.get("prompt", ""),
                answer_key=rec["answer_key"],
                concept_tags=frozenset(rec["concepts"]),
            )
            for rec in payload["items"]
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed bank record ({exc!r})") from exc
    return ItemBank(items=items, catalog=catalog)


def _load_bank_csv(path: Path) -> ItemBank:
    cpath = path.parent / "concepts.csv"
    if not cpath.exists():
        raise FormatError(f"missing companion concepts file {cpath}")
    concepts = []
    with open(cpath, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:2] != ["id", "label"]:
            raise FormatError(f"{cpath}: expected header id,label")
        for r in reader:
            if len(r) == 1:
                raise FormatError(
                    f"{cpath}:{reader.line_num}: concept row {r!r} needs id and label"
                )
            if r:
                concepts.append(Concept(r[0], r[1]))
    catalog = ConceptCatalog(tuple(concepts))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:4] != ["id", "prompt", "answer_key", "concepts"]:
        raise FormatError(f"{path}: expected header id,prompt,answer_key,concepts")
    items = []
    for r in rows[1:]:
        if not r:
            continue
        if len(r) < 4:
            raise FormatError(f"{path}: short row {r!r}")
        items.append(
            Item(
                item_id=r[0],
                prompt=r[1],
                answer_key=r[2],
                concept_tags=frozenset(t for t in r[3].split(";") if t),
            )
        )
    return ItemBank(items=tuple(items), catalog=catalog)


def save_item_bank(bank: ItemBank, path: str | Path, format: str | None = None) -> None:
    path = Path(path)
    fmt = format or ("csv" if path.suffix.lower() == ".csv" else "json")
    if fmt == "json":
        payload = {
            "format_version": BANK_FORMAT_VERSION,
            "concepts": [{"id": c.concept_id, "label": c.label} for c in bank.catalog.concepts],
            "items": [
                {
                    "id": item.item_id,
                    "prompt": item.prompt,
                    "answer_key": item.answer_key,
                    "concepts": sorted(item.concept_tags),
                }
                for item in bank.items
            ],
        }
        write_json(path, payload)
        return
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "prompt", "answer_key", "concepts"])
            for item in bank.items:
                writer.writerow(
                    [item.item_id, item.prompt, item.answer_key, ";".join(sorted(item.concept_tags))]
                )
        with open(path.parent / "concepts.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "label"])
            for c in bank.catalog.concepts:
                writer.writerow([c.concept_id, c.label])
        return
    raise FormatError(f"unknown item bank format {fmt!r}")
