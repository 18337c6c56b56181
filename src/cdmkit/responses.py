"""Response logs, grading aggregation, and the score/weight matrix pair.

``ResponseMatrix`` is the numerical hand-off point to the solver: ``scores``
holds the per-cell fraction of correct attempts and ``weights`` the
observation mask (attempt coverage capped at 1).
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .bank import ItemBank
from .errors import DimensionError, FormatError, ValidationError
from .grading import grade, mark, normalize_key
from .manifest import first_duplicate, naming, open_text

DEFAULT_REPEATS = 10


class Attempt(NamedTuple):
    item_id: str
    attempt_index: int
    raw_output: str


@dataclass(frozen=True)
class ResponseLog:
    """All graded-able attempts for one model.  ``source`` is the file they
    were read from, if any, for errors to name; it is not part of equality.
    Attempts are checked by :func:`aggregate`, over all logs of the model.
    Entries may share objects: :func:`load_response_logs` gives every equal
    attempt in a file, of any model, one immutable :class:`Attempt`."""

    model_id: str
    entries: tuple[Attempt, ...]
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ValidationError("response log with empty model id")


# The fields of one JSONL attempt record and the JSON type each must hold.
_RECORD_KEYS = ("model", "item", "attempt", "output")
_RECORD_TYPES = (str, str, int, str)
_TYPE_NAMES = {str: "a string", int: "an integer"}
_raw_decode = json.JSONDecoder().raw_decode


def load_response_logs(path: str | Path) -> list[ResponseLog]:
    """Read a JSONL file of attempts; returns one log per model (file order).

    Each non-empty line holds exactly one JSON object, with string ``model``,
    ``item`` and ``output`` and an integer ``attempt`` (not a boolean);
    whitespace around it is ignored.  A line that is not such an object is a
    ``FormatError`` ``<file>:<line>: ...``, json's ``ValueError`` and
    ``RecursionError`` included.  Attempt indices and repeats are left to
    :func:`aggregate`.

    Each stripped line is decoded with one ``JSONDecoder.raw_decode`` call,
    which skips the Python layers of ``json.loads`` (a BOM check and two
    whitespace regex matches per line, costlier than the C scanner under
    them), and the record is taken only when the object ends the line.  Any
    other line goes to ``json.loads``, which rejects it too, as a stripped
    line has no edge whitespace to skip, and raises the error in json's
    usual words: ``raw_decode`` calls a BOM "Expecting value" and does not
    look for "Extra data" after the object.

    Within one call, equal attempts are one object: every line with the same
    ``(item, attempt, output)`` appends the same immutable :class:`Attempt`,
    whose item id and output are one ``str`` per distinct text in the file.
    The logs then hold one reference per line plus the file's distinct
    attempts, so their memory grows with distinct attempts, not with lines.
    """
    by_model: dict[str, list[Attempt]] = {}
    attempts: dict[tuple[str, int, str], Attempt] = {}
    texts: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    rec, end = _raw_decode(line)
                except json.JSONDecodeError:
                    end = -1
                if end != len(line):
                    rec = json.loads(line)
                model, item, index, output = (
                    rec["model"], rec["item"], rec["attempt"], rec["output"]
                )
            except (ValueError, RecursionError, KeyError, TypeError) as exc:
                raise FormatError(f"{path}:{lineno}: bad attempt record ({exc!r})") from exc
            # type(), not isinstance(): a JSON true is a bool, and bool is an int.
            if (type(model), type(item), type(index), type(output)) != _RECORD_TYPES:
                key, kind = next(
                    (key, kind) for key, kind in zip(_RECORD_KEYS, _RECORD_TYPES)
                    if type(rec[key]) is not kind
                )
                raise FormatError(
                    f"{path}:{lineno}: {key} must be {_TYPE_NAMES[kind]}, "
                    f"got {json.dumps(rec[key])}"
                )
            attempt = attempts.get((item, index, output))
            if attempt is None:
                item = texts.setdefault(item, item)
                output = texts.setdefault(output, output)
                attempt = Attempt(item, index, output)
                # An Attempt hashes and compares as the tuple of its fields.
                attempts[attempt] = attempt
            entries = by_model.get(model)
            if entries is None:
                entries = by_model[model] = []
            entries.append(attempt)
    with naming(path):
        return [
            ResponseLog(model, tuple(entries), source=str(path))
            for model, entries in by_model.items()
        ]


def save_response_log(log_: ResponseLog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in log_.entries:
            fh.write(
                json.dumps(
                    {
                        "model": log_.model_id,
                        "item": e.item_id,
                        "attempt": e.attempt_index,
                        "output": e.raw_output,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
                + "\n"
            )


@dataclass(frozen=True)
class ResponseMatrix:
    """Item-by-model score fractions plus the matching observation weights."""

    scores: NDArray[np.float64]
    weights: NDArray[np.float64]
    item_ids: tuple[str, ...]
    model_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        s, w = np.asarray(self.scores), np.asarray(self.weights)
        if s.shape != w.shape:
            raise DimensionError(f"scores {s.shape} vs weights {w.shape}")
        if s.shape != (len(self.item_ids), len(self.model_ids)):
            raise DimensionError(
                f"matrix {s.shape} vs ids ({len(self.item_ids)}, {len(self.model_ids)})"
            )
        for name, m in (("scores", s), ("weights", w)):
            if not np.isfinite(m).all():
                raise ValidationError(f"{name} must be finite")
            if m.size and (m.min() < 0 or m.max() > 1):
                raise ValidationError(f"{name} outside [0, 1]")
        if np.any(s[w == 0] != 0):
            raise ValidationError("unobserved cells (weight 0) must carry score 0")

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_models(self) -> int:
        return len(self.model_ids)


def _sources(logs: Iterable[ResponseLog]) -> str:
    """``"<file>, <file>: "`` for the files ``logs`` were read from (empty
    when none was read from a file), to begin an error about them."""
    files = sorted({lg.source for lg in logs if lg.source})
    return f"{', '.join(files)}: " if files else ""


# Stands for a mark not yet given to an (output, key) pair in one aggregate call.
_UNSEEN = object()


def aggregate(
    logs: list[ResponseLog],
    bank: ItemBank,
    repeats: int = DEFAULT_REPEATS,
) -> ResponseMatrix:
    """Grade every attempt and average per cell.

    score = correct/graded attempts for the cell; weight = graded/repeats
    capped at 1; cells with no attempts get score 0, weight 0.  Model columns
    are sorted by id so the result does not depend on log order.  Over all
    logs of a model, no (item, attempt) pair may repeat and every attempt
    index must lie in [0, repeats); a ``ValidationError`` for either names
    the files that hold the model.  An item the bank lacks is an error that
    names the files holding it.

    Each distinct (output, answer key) pair is graded once per call; every
    attempt whose output cannot be graded still logs its own warning, in
    attempt order.
    """
    if not logs:
        raise ValidationError("no response logs given")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    known_items = set(bank.item_ids)
    unknown = sorted(
        {e.item_id for lg in logs for e in lg.entries if e.item_id not in known_items}
    )
    if unknown:
        holders = (lg for lg in logs if not known_items.issuperset(map(itemgetter(0), lg.entries)))
        raise ValidationError(f"{_sources(holders)}items not in the bank: {unknown}")

    merged: dict[str, list[Attempt]] = {}
    for lg in logs:
        merged.setdefault(lg.model_id, []).extend(lg.entries)
    # The checks run in C; the offenders are listed only when one fails.
    for model_id, entries in merged.items():
        if len(set(map(itemgetter(0, 1), entries))) != len(entries):
            keys = Counter(map(itemgetter(0, 1), entries))
            dupes = sorted(k for k, n in keys.items() if n > 1)
            raise ValidationError(
                f"{_sources(lg for lg in logs if lg.model_id == model_id)}"
                f"model {model_id!r}: duplicate attempts {dupes}"
            )
        low = min(map(itemgetter(1), entries), default=0)
        if low < 0 or max(map(itemgetter(1), entries), default=0) >= repeats:
            bad = sorted({e.item_id for e in entries if not 0 <= e.attempt_index < repeats})
            raise ValidationError(
                f"{_sources(lg for lg in logs if lg.model_id == model_id)}"
                f"model {model_id!r}: attempt index outside [0, {repeats}) on {bad}"
            )

    model_ids = tuple(sorted(merged))
    # Per item: its row, its answer key, the key normalized once, and the
    # marks already given under that key (shared by every item with it).
    by_key: dict[str, dict[str, int | None]] = {}
    rows = {}
    for i, item in enumerate(bank.items):
        key = normalize_key(item.answer_key)
        rows[item.item_id] = (i, item.answer_key, key, by_key.setdefault(key, {}))
    scores = np.zeros((len(bank), len(model_ids)), dtype=np.float64)
    weights = np.zeros_like(scores)
    for j, model_id in enumerate(model_ids):
        right = [0] * len(bank)
        graded = [0] * len(bank)
        for item_id, _, output in merged[model_id]:
            i, answer_key, key, marks = rows[item_id]
            got = marks.get(output, _UNSEEN)
            if got is _UNSEEN:
                got = marks[output] = mark(output, key)
            if got is None:
                # grade scores it 0 and logs this attempt's warning.
                got = grade(output, answer_key)
            right[i] += got
            graded[i] += 1
        count = np.array(graded, dtype=np.float64)
        np.divide(right, count, out=scores[:, j], where=count > 0)
        weights[:, j] = np.minimum(count / repeats, 1.0)
    return ResponseMatrix(scores, weights, bank.item_ids, model_ids)


# ---------------------------------------------------------------------------
# CSV round-trip (scores and weights as parallel files)
# ---------------------------------------------------------------------------

# save_matrix_csv formats about this many cells at a time: enough for a
# repeated value to be formatted rarely, few enough to keep the memory small.
_BLOCK_CELLS = 1 << 16


class _Lines(list):
    """A file for ``csv.writer`` that keeps each row it writes as one string."""

    write = list.append


def save_matrix_csv(
    matrix: NDArray[np.float64],
    row_ids: tuple[str, ...],
    col_ids: tuple[str, ...],
    path: str | Path,
    corner: str = "id",
) -> None:
    """Generic labelled-matrix CSV: header of column ids, first column row ids.

    Floats are written with ``repr`` (shortest round-trip form) so that
    save→load is bit-exact and reruns produce byte-identical files.  The bytes
    are those ``csv.writer`` writes for the rows, but only the ids pass
    through ``csv``: a cell never needs quoting, so each row is written as
    ``<id>,<cell>,<cell>…\r\n`` by one ``str.join``.
    """
    bits = np.asarray(matrix, dtype=np.float64).view(np.uint64)
    step = max(1, _BLOCK_CELLS // max(1, bits.shape[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([corner, *col_ids])
        if not bits.shape[1]:
            # A row is its id alone; csv writes a lone empty id as "".
            writer.writerows([rid] for rid in row_ids)
            return
        # Each id quoted as csv quotes the first of several fields: written
        # with an empty second field, so it ends in ",\r\n"; the comma stays.
        quoted = _Lines()
        csv.writer(quoted).writerows([rid, ""] for rid in row_ids)
        heads = [line[:-2] for line in quoted]
        # Each distinct value of a block of rows is formatted once.  Values
        # are told apart by their bits, so -0.0 and 0.0 keep their own text.
        # Rows go to the file one at a time, so no block-sized string is held.
        for start in range(0, len(bits), step):
            block = bits[start : start + step]
            distinct, index = np.unique(block, return_inverse=True)
            text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
            cells = text[index.reshape(block.shape)].tolist()
            fh.writelines(
                head + ",".join(row) + "\r\n"
                for head, row in zip(heads[start : start + step], cells)
            )


def load_matrix_csv(path: str | Path) -> tuple[NDArray[np.float64], tuple[str, ...], tuple[str, ...]]:
    """Read a labelled matrix as written by :func:`save_matrix_csv`.

    Returns ``(values, row_ids, col_ids)`` with ``values`` a C-contiguous
    float64 array.  The contract: the matrix is rectangular (every row holds
    one id plus one value per header column), row ids and column ids are each
    unique, and every value is finite.  A violation raises ``FormatError``
    naming the file and the offending data row (counted from 1 after the
    header) or id.  Empty lines are skipped; a file holding only a header
    (and empty lines) loads as a ``(0, n_columns)`` array.

    The header goes through ``csv.reader``; numpy's C reader parses the rest
    of the file straight from the open file, collecting the row ids through a
    converter on column 0.  Ids may hold any text ``csv`` can quote,
    including ``#`` and line breaks.
    """
    path = Path(path)
    ids: list[str] = []

    def row_id(text: str) -> float:
        ids.append(text)
        return 0.0

    with open_text(path) as fh:
        # Lines come through readline, not iteration, so tell() stays usable.
        header = next(csv.reader(iter(fh.readline, "")), None)
        if header is None:
            raise FormatError(f"{path}: empty matrix file")
        col_ids = tuple(header[1:])
        dup = first_duplicate(col_ids)
        if dup is not None:
            raise FormatError(f"{path}: duplicate column id {dup!r}")
        # numpy skips empty lines; a body of nothing else is header-only.
        while True:
            body_start = fh.tell()
            line = fh.readline()
            if not line:
                return np.empty((0, len(col_ids))), (), col_ids
            if line.strip("\r\n"):
                break
        fh.seek(body_start)
        try:
            # No usecols: loadtxt would silently drop cells past the header.
            # Parsing every column makes it raise on any change of row width.
            table = np.loadtxt(
                fh, dtype=np.float64, delimiter=",", quotechar='"',
                comments=None, converters={0: row_id}, ndmin=2,
            )
        except ValueError as exc:
            reason = str(exc).partition(" at row ")[0]
            if reason.startswith("could not convert"):
                # A bad cell: its row's id was converted before the cell.
                where = f"data row {len(ids)} (id {ids[-1]!r})"
            else:
                # A change of width is found before the row's id is converted.
                where = f"data row {len(ids) + 1}"
            raise FormatError(f"{path}: {where}: {reason}") from exc
    if table.shape[1] - 1 != len(col_ids):
        raise FormatError(
            f"{path}: rows hold {table.shape[1] - 1} values but the header "
            f"names {len(col_ids)} columns"
        )
    row_ids = tuple(ids)
    dup = first_duplicate(row_ids)
    if dup is not None:
        raise FormatError(f"{path}: duplicate row id {dup!r}")
    values = np.ascontiguousarray(table[:, 1:])
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise FormatError(
            f"{path}: row {row_ids[i]!r}, column {col_ids[j]!r} holds "
            f"{float(values[i, j])!r}; matrix values must be finite"
        )
    return values, row_ids, col_ids


def save_response_matrix(rm: ResponseMatrix, scores_path: str | Path, weights_path: str | Path) -> None:
    save_matrix_csv(rm.scores, rm.item_ids, rm.model_ids, scores_path, corner="item_id")
    save_matrix_csv(rm.weights, rm.item_ids, rm.model_ids, weights_path, corner="item_id")


def load_response_matrix(scores_path: str | Path, weights_path: str | Path | None = None) -> ResponseMatrix:
    """Scores and weights (all ones if no file is given); errors name the files."""
    scores, item_ids, model_ids = load_matrix_csv(scores_path)
    if weights_path is None:
        with naming(scores_path):
            return ResponseMatrix(scores, np.ones_like(scores), item_ids, model_ids)
    weights, w_items, w_models = load_matrix_csv(weights_path)
    with naming(scores_path, weights_path):
        if (w_items, w_models) != (item_ids, model_ids):
            raise DimensionError("weights CSV ids do not match scores CSV ids")
        return ResponseMatrix(scores, weights, item_ids, model_ids)
