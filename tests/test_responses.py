import csv
import io
import json
import logging
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cdmkit.responses
from cdmkit import (
    Attempt,
    Concept,
    ConceptCatalog,
    DimensionError,
    FormatError,
    Item,
    ItemBank,
    ResponseLog,
    ResponseMatrix,
    ValidationError,
    aggregate,
    grade,
    load_response_logs,
    load_response_matrix,
    save_response_matrix,
)
from cdmkit.manifest import open_text
from cdmkit.responses import load_matrix_csv, save_matrix_csv
from oracles import save_response_log, xml_char


def _log(model, *entries):
    return ResponseLog(model, tuple(Attempt(i, a, o) for i, a, o in entries))


def test_aggregate_seven_of_ten(tiny_bank):
    entries = [("q1", a, "A" if a < 7 else "B") for a in range(10)]
    rm = aggregate([_log("m1", *entries)], tiny_bank, repeats=10)
    i = rm.item_ids.index("q1")
    assert rm.scores[i, 0] == pytest.approx(0.7)
    assert rm.weights[i, 0] == 1.0


def test_aggregate_missing_cell_is_zero_zero(tiny_bank):
    rm = aggregate([_log("m1", ("q1", 0, "A"))], tiny_bank, repeats=10)
    i = rm.item_ids.index("q3")
    assert rm.scores[i, 0] == 0.0
    assert rm.weights[i, 0] == 0.0


def test_aggregate_partial_coverage(tiny_bank):
    # 5 of 10 attempts present, all correct: full credit, half weight.
    entries = [("q1", a, "A") for a in range(5)]
    rm = aggregate([_log("m1", *entries)], tiny_bank, repeats=10)
    i = rm.item_ids.index("q1")
    assert rm.scores[i, 0] == 1.0
    assert rm.weights[i, 0] == 0.5


def test_scores_on_the_averaging_grid(tiny_bank):
    rng = np.random.default_rng(3)
    logs = []
    for m in range(4):
        entries = []
        for iid in tiny_bank.item_ids:
            key = tiny_bank.items[tiny_bank.item_ids.index(iid)].answer_key
            for a in range(10):
                entries.append((iid, a, key if rng.random() < 0.6 else "Z"))
        logs.append(_log(f"m{m}", *entries))
    rm = aggregate(logs, tiny_bank, repeats=10)
    grid = {round(v, 10) for v in np.arange(11) / 10}
    assert {round(float(v), 10) for v in rm.scores.ravel()} <= grid
    assert np.all(rm.weights == 1.0)


def test_aggregate_permutation_invariant(tiny_bank):
    entries = [("q1", a, "A") for a in range(3)] + [("q2", a, "B C") for a in range(3)]
    a = aggregate([_log("m1", *entries), _log("m2", ("q3", 0, "D"))], tiny_bank)
    b = aggregate(
        [_log("m2", ("q3", 0, "D")), _log("m1", *entries[::-1])], tiny_bank
    )
    assert a.model_ids == b.model_ids
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_model_columns_sorted(tiny_bank):
    rm = aggregate(
        [_log("zed", ("q1", 0, "A")), _log("abe", ("q1", 0, "A"))], tiny_bank
    )
    assert rm.model_ids == ("abe", "zed")


def test_unknown_items_listed(tiny_bank):
    with pytest.raises(ValidationError, match=r"\['ghost', 'phantom'\]"):
        aggregate(
            [_log("m1", ("ghost", 0, "A"), ("phantom", 0, "B"), ("q1", 0, "A"))],
            tiny_bank,
        )


def test_zero_logs_rejected(tiny_bank):
    with pytest.raises(ValidationError, match="no response logs"):
        aggregate([], tiny_bank)


def test_duplicate_attempt_across_merged_logs(tiny_bank):
    with pytest.raises(ValidationError, match="duplicate attempts"):
        aggregate(
            [_log("m1", ("q1", 0, "A")), _log("m1", ("q1", 0, "B"))], tiny_bank
        )


def test_duplicate_check_is_not_quadratic(tiny_bank):
    # 20k attempts of one model split over two files, two of them repeated.
    first = ResponseLog("m", tuple(Attempt("q1", a, "A") for a in range(10_000)), source="a.jsonl")
    second = ResponseLog(
        "m", tuple(Attempt(i, a, "B") for i in ("q2", "q3") for a in range(5_000))
        + (Attempt("q1", 7, "C"), Attempt("q1", 3, "D")),
        source="b.jsonl",
    )
    start = time.perf_counter()
    with pytest.raises(ValidationError) as caught:
        aggregate([first, second], tiny_bank, repeats=10_000)
    elapsed = time.perf_counter() - start
    assert str(caught.value) == (
        "a.jsonl, b.jsonl: model 'm': duplicate attempts [('q1', 3), ('q1', 7)]"
    )
    # list.count per key took seconds on these 20k attempts; a linear count
    # takes milliseconds.
    assert elapsed < 1.0


def test_attempt_index_must_fit_repeats(tiny_bank):
    with pytest.raises(ValidationError, match=re.escape("attempt index outside [0, 5) on ['q1']")):
        aggregate([_log("m1", ("q1", 5, "A"))], tiny_bank, repeats=5)


def test_duplicate_within_one_log_rejected(tiny_bank):
    with pytest.raises(ValidationError, match=re.escape("duplicate attempts [('q1', 0)]")):
        aggregate([_log("m1", ("q1", 0, "A"), ("q1", 0, "B"))], tiny_bank)


def test_log_without_attempts_aggregates_to_zero_weight(tiny_bank):
    rm = aggregate([_log("empty"), _log("m1", ("q1", 0, "A"))], tiny_bank)
    assert rm.model_ids == ("empty", "m1")
    assert not rm.scores[:, 0].any() and not rm.weights[:, 0].any()


@pytest.mark.parametrize("lines, message", [
    (['{"model": "m1", "item": "q1", "attempt": -1, "output": "A"}'],
     "model 'm1': attempt index outside [0, 10) on ['q1']"),
    (['{"model": "m1", "item": "q1", "attempt": 0, "output": "A"}',
      '{"model": "m1", "item": "q1", "attempt": 0, "output": "B"}'],
     "model 'm1': duplicate attempts [('q1', 0)]"),
])
def test_one_file_attempt_rules_name_the_file(tiny_bank, tmp_path, lines, message):
    path = tmp_path / "log.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    logs = load_response_logs(path)  # the loader leaves attempts to aggregate
    with pytest.raises(ValidationError) as caught:
        aggregate(logs, tiny_bank)
    assert str(caught.value) == f"{path}: {message}"


def test_jsonl_round_trip(tmp_path):
    log = _log("m1", ("q1", 0, "答案：B"), ("q2", 1, "C"))
    save_response_log(log, tmp_path / "m1.jsonl")
    loaded = load_response_logs(tmp_path / "m1.jsonl")
    assert len(loaded) == 1
    assert loaded[0] == log


# Text that must survive the JSONL round trip: quotes, backslashes, line
# breaks JSON escapes, and separators it leaves raw (NEL, U+2028) that
# str.splitlines would break a line at.
TRICKY_TEXT = ["", '"', "\\", "a\nb", "a\r\nb", "\x00", "\x85", "\u2028", "答案：B", " edge "]

_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
# A model id is non-empty text that XML 1.0 can carry (the rule checked_ids applies).
_model_ids = st.text(st.characters(exclude_categories=("Cs",)).filter(xml_char), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(("m\u2028,\"x\"", [(t, k, TRICKY_TEXT[-1 - k]) for k, t in enumerate(TRICKY_TEXT)]))
@given(st.tuples(
    _model_ids,
    st.lists(st.tuples(_text, st.integers(min_value=0), _text), max_size=8,
             unique_by=lambda e: e[:2]),
))
def test_jsonl_round_trip_property(tmp_path, case):
    model, entries = case
    log = _log(model, *entries)
    save_response_log(log, tmp_path / "log.jsonl")
    assert load_response_logs(tmp_path / "log.jsonl") == ([log] if entries else [])


def test_jsonl_bad_record_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"model": "m", "item": "q1", "attempt": 0, "output": "A"}\n{"oops": 1}\n')
    with pytest.raises(Exception, match=r":2:"):
        load_response_logs(path)


def _load_response_logs_per_line_loads(path):
    """The reference loader: one ``json.loads`` per stripped line."""
    by_model = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                model, item, index, output = (
                    rec["model"], rec["item"], rec["attempt"], rec["output"]
                )
            except (ValueError, RecursionError, KeyError, TypeError) as exc:
                raise FormatError(f"{path}:{lineno}: bad attempt record ({exc!r})") from exc
            if (type(model), type(item), type(index), type(output)) != (str, str, int, str):
                key, kind = next(
                    (key, kind)
                    for key, kind in zip(("model", "item", "attempt", "output"),
                                         (str, str, int, str))
                    if type(rec[key]) is not kind
                )
                kind_name = {str: "a string", int: "an integer"}[kind]
                raise FormatError(
                    f"{path}:{lineno}: {key} must be {kind_name}, got {json.dumps(rec[key])}"
                )
            by_model.setdefault(model, []).append(Attempt(item, index, output))
    try:
        return [
            ResponseLog(model, tuple(entries), source=str(path))
            for model, entries in by_model.items()
        ]
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# Attempt values as written in the JSON text, valid or not.
_ATTEMPT_TOKENS = [
    *["0", "1", "2", "3", "-0"] * 6, "-1", "NaN", "1.7", "true", "null", '"0"', "1e0",
]


@st.composite
def _record_text(draw):
    """One attempt record as JSON text: any key order and spacing, now and
    then a repeated or a missing key, and attempts that are not JSON integers."""
    fields = [
        ("model", json.dumps(draw(st.sampled_from(["m1", "m2", "\ufeff"])))),
        ("item", json.dumps(draw(st.sampled_from(["q1", "q2"])))),
        ("attempt", draw(st.sampled_from(_ATTEMPT_TOKENS))),
        ("output", json.dumps(draw(_text | st.sampled_from(TRICKY_TEXT)),
                              ensure_ascii=draw(st.booleans()))),
    ]
    if draw(st.integers(0, 7)) == 0:
        key = draw(st.sampled_from([k for k, _ in fields]))
        fields.append((key, draw(st.sampled_from(['"m1"', "3", '"x"']))))
    if draw(st.integers(0, 7)) == 0:
        fields.pop(draw(st.integers(0, len(fields) - 1)))
    fields = draw(st.permutations(fields))
    sep, colon = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,\t", " : ")]))
    return "{" + sep.join(f'"{key}"{colon}{value}' for key, value in fields) + "}"


@st.composite
def _jsonl_lines(draw):
    """The lines of one record, a mangled record, or something else entirely."""
    record = draw(_record_text())
    kind = draw(st.sampled_from(
        ["record"] * 12 + ["blank", "padded", "bom", "junk", "non-object", "split"]
    ))
    if kind == "blank":
        return [draw(st.sampled_from(["", " ", "\t \t", "\x0c", "\x85", "\u2028"]))]
    if kind == "padded":
        pad = st.sampled_from([" ", "\t", " \t ", "\x85", "\xa0", "\u3000"])
        return [draw(pad) + record + draw(pad)]
    if kind == "bom":
        return ["\ufeff" + record]
    if kind == "junk":
        return [record + draw(st.sampled_from([" x", "}", " {}", ",", "]", " \"\"", "\x00"]))]
    if kind == "non-object":
        return [draw(st.sampled_from(["[1, 2]", "[]", "1", '"s"', "null", "true", "NaN"]))]
    if kind == "split":
        cut = draw(st.integers(1, len(record) - 1))
        return [record[:cut], record[cut:]]
    return [record]


@st.composite
def _jsonl_file(draw):
    lines = [line for chunk in draw(st.lists(_jsonl_lines(), max_size=8)) for line in chunk]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


def _load_outcome(load, path):
    try:
        logs = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return logs, [lg.source for lg in logs]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example('{"model": "m1", "item": "q1", "attempt": 0, "output": "A"}\r\n\r\n'
         ' {"item": "q2", "model": "m1", "output": "\u2028", "attempt": 1}\t\n')
@example('{"model": "m1", "item": "q1", "attempt": 0, "output": "A"}\n'
         '\ufeff{"model": "m1", "item": "q1", "attempt": 1, "output": "A"}\n')
@example('{"model": "m1", "model": "m2", "item": "q1", "attempt": 0, "output": "A"} x\n')
@example('{"model": "m1", "item": "q1", "attempt": NaN, "output": "A"}\n')
@example('{"model": "m1", "item": "q1",\n "attempt": 0, "output": "A"}\n')
@example('{"model": "m1", "item": "q1", "attempt": ' + "9" * 5000 + ', "output": "A"}\n')
@example("[" * 100_000 + "\n")
@given(_jsonl_file())
def test_load_response_logs_matches_per_line_loads(tmp_path, text):
    path = tmp_path / "log.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert _load_outcome(load_response_logs, path) == _load_outcome(
        _load_response_logs_per_line_loads, path
    )


def test_valid_log_never_calls_json_loads(tmp_path, monkeypatch):
    log = _log("m1", *[(f"q{k}", k, text) for k, text in enumerate(TRICKY_TEXT)])
    path = tmp_path / "log.jsonl"
    save_response_log(log, path)
    # Edge whitespace and CRLF line ends, which a stripped line drops.
    path.write_bytes(b"\r\n".join(b" \t" + line + b" " for line in path.read_bytes().split(b"\n")))

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads reached on a valid line")

    monkeypatch.setattr(cdmkit.responses.json, "loads", refuse)
    assert load_response_logs(path) == [log]


def test_equal_attempts_share_one_object(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"model": "m1", "item": "q1", "attempt": 0, "output": "The answer is A"}\n'
        '{"model": "m1", "item": "q1", "attempt": 1, "output": "The answer is A"}\n'
        '{"model": "m2", "item": "q1", "attempt": 0, "output": "The answer is A"}\n'
        '{"model": "m2", "item": "q1", "attempt": 1, "output": "The answer is B"}\n'
    )
    (m1, m2) = logs = load_response_logs(path)
    assert m1.entries[0] is m2.entries[0]
    # Distinct attempts still share their item id and output texts.
    assert m1.entries[1] is not m2.entries[1]
    assert m1.entries[1].item_id is m2.entries[1].item_id is m1.entries[0].item_id
    assert m1.entries[1].raw_output is m1.entries[0].raw_output
    assert logs == _load_response_logs_per_line_loads(path)


def test_logs_hold_distinct_attempts_once(tmp_path):
    # 200 models x 30 items x 3 attempts over four outputs: 18,000 lines but
    # 360 distinct attempts.  A line then costs its pointer in a log's entries.
    outputs = ["The answer is A", "B", "I think it is C", "none of these"]
    path = tmp_path / "log.jsonl"
    with path.open("w") as fh:
        for m in range(200):
            for i in range(30):
                for a in range(3):
                    fh.write(json.dumps({"model": f"model-{m}", "item": f"item-{i}",
                                         "attempt": a, "output": outputs[(m + i + a) % 4]}) + "\n")
    n_lines = 200 * 30 * 3
    tracemalloc.start()
    try:
        logs = load_response_logs(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(lg.entries) for lg in logs) == n_lines
    assert held <= 64 * n_lines, f"{held / n_lines:.0f} bytes per line"


def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    scores = rng.random((4, 3))
    weights = np.ones_like(scores)
    rm = ResponseMatrix(scores, weights, ("i1", "i2", "i3", "i4"), ("a", "b", "c"))
    save_response_matrix(rm, tmp_path / "x.csv", tmp_path / "w.csv")
    back = load_response_matrix(tmp_path / "x.csv", tmp_path / "w.csv")
    assert back.item_ids == rm.item_ids and back.model_ids == rm.model_ids
    np.testing.assert_array_equal(back.scores, rm.scores)  # repr round-trips exactly
    np.testing.assert_array_equal(back.weights, rm.weights)


def test_load_without_weights_defaults_to_ones(tmp_path):
    rm = ResponseMatrix(
        np.array([[0.5]]), np.array([[1.0]]), ("i1",), ("m1",)
    )
    save_response_matrix(rm, tmp_path / "x.csv", tmp_path / "w.csv")
    back = load_response_matrix(tmp_path / "x.csv")
    np.testing.assert_array_equal(back.weights, np.ones((1, 1)))


def test_matrix_validation():
    with pytest.raises(DimensionError):
        ResponseMatrix(np.zeros((2, 2)), np.zeros((2, 3)), ("a", "b"), ("x", "y"))
    # The in-[0, 1] rule refuses NaN too, which fails both comparisons.
    for scores, weights, message in (
        ([[1.5]], [[1.0]], "scores: row 'a', column 'x' holds 1.5; values must lie in [0, 1]"),
        ([[np.nan]], [[1.0]], "scores: row 'a', column 'x' holds nan; values must lie in [0, 1]"),
        ([[0.5]], [[np.nan]], "weights: row 'a', column 'x' holds nan; values must lie in [0, 1]"),
        ([[0.5]], [[0.0]],
         "scores: row 'a', column 'x' holds 0.5; unobserved cells (weight 0) must carry score 0"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ResponseMatrix(np.array(scores), np.array(weights), ("a",), ("x",))


@pytest.mark.parametrize("text", ["id,a\r\n", "id,a\r\n\r\n", "id,a\n\n\n"])
def test_header_only_matrix_loads_empty(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, row_ids, col_ids = load_matrix_csv(path)
    assert values.shape == (0, 1) and row_ids == () and col_ids == ("a",)


# Ids that must survive the CSV round trip: the delimiter, the quote, the
# comment character numpy would strip by default, edge spaces, non-ASCII text,
# the empty id, and embedded line breaks.
TRICKY_IDS = ["a,b", 'q"x', "#c", " lead", "trail ", "é中", "", "x\ny", "x\ry", "x\r\ny"]
EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5]

_ids = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6)
_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _labelled_matrices(draw):
    row_ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
    col_ids = draw(st.lists(_ids, max_size=5, unique=True))
    values = [[draw(_values) for _ in col_ids] for _ in row_ids]
    return np.array(values, dtype=np.float64).reshape(len(row_ids), len(col_ids)), row_ids, col_ids


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((np.array([EDGE_VALUES * 3], dtype=np.float64).reshape(1, 12), ["r"], TRICKY_IDS + ["1", "2"]))
@example((np.array([EDGE_VALUES[:1]] * 10, dtype=np.float64), TRICKY_IDS, ["c"]))
@given(_labelled_matrices())
def test_matrix_csv_round_trip_property(tmp_path, case):
    values, row_ids, col_ids = case
    path = tmp_path / "m.csv"
    save_matrix_csv(values, tuple(row_ids), tuple(col_ids), path)
    back, back_rows, back_cols = load_matrix_csv(path)
    assert back_rows == tuple(row_ids) and back_cols == tuple(col_ids)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.shape == values.shape
    # Compare bit patterns, so -0.0 and 0.0 differ.
    np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))


# ---------------------------------------------------------------------------
# aggregate against a reference that grades every attempt on its own
# ---------------------------------------------------------------------------

def _grade_every_attempt(logs, bank, repeats):
    """aggregate as its contract reads: one grade() call per attempt."""
    keys = {item.item_id: item.answer_key for item in bank.items}
    merged = {}
    for lg in logs:
        merged.setdefault(lg.model_id, []).extend(lg.entries)
    model_ids = sorted(merged)
    scores = np.zeros((len(bank), len(model_ids)))
    weights = np.zeros_like(scores)
    for j, model_id in enumerate(model_ids):
        cells = {}
        for e in merged[model_id]:
            cells.setdefault(e.item_id, []).append(grade(e.raw_output, keys[e.item_id]))
        for item_id, marks in cells.items():
            i = bank.item_ids.index(item_id)
            scores[i, j] = sum(marks) / len(marks)
            weights[i, j] = min(len(marks) / repeats, 1.0)
    return scores, weights, tuple(model_ids)


# q1 and q4 share the output pool under a single- and a multi-letter key, and
# no output answers q5's key.
_AGG_BANK = ItemBank(
    items=tuple(
        Item(iid, "prompt", key, frozenset({"c"}))
        for iid, key in (("q1", "B"), ("q2", "A"), ("q3", "BC"), ("q4", "cb"), ("q5", "D"))
    ),
    catalog=ConceptCatalog((Concept("c", "concept"),)),
)
# Few outputs, so they repeat heavily; "∅" and "no idea" never parse.
_AGG_OUTPUTS = ["B", "答案：B", "B, C", "C,B", "(A)", "A B", "BC", "∅", "no idea", "CASH"]


@st.composite
def _repetitive_logs(draw):
    logs = []
    for m in range(draw(st.integers(1, 4))):
        attempts = draw(st.lists(
            st.tuples(st.sampled_from(_AGG_BANK.item_ids), st.integers(0, 3),
                      st.sampled_from(_AGG_OUTPUTS)),
            max_size=30, unique_by=lambda e: e[:2],
        ))
        # Some models come split over two logs, as from two files.
        cut = draw(st.integers(0, len(attempts)))
        parts = [attempts[:cut], attempts[cut:]] if draw(st.booleans()) else [attempts]
        logs.extend(_log(f"m{m}", *part) for part in parts if part)
    return logs or [_log("m0", ("q5", 0, "∅"))]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([_log("m1", ("q1", 0, "∅"), ("q4", 0, "∅"), ("q5", 0, "B"), ("q1", 1, "∅"),
               ("q5", 1, "B")),
          _log("m0", ("q4", 2, "C,B"), ("q1", 2, "∅"))])
@given(_repetitive_logs())
def test_aggregate_matches_grading_every_attempt(caplog, logs):
    with caplog.at_level(logging.WARNING, logger="cdmkit"):
        caplog.clear()
        scores, weights, model_ids = _grade_every_attempt(logs, _AGG_BANK, repeats=4)
        expected = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        caplog.clear()
        rm = aggregate(logs, _AGG_BANK, repeats=4)
        got = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    assert rm.model_ids == model_ids
    # Bit patterns: the same division, not merely close values.
    np.testing.assert_array_equal(rm.scores.view(np.uint64), scores.view(np.uint64))
    np.testing.assert_array_equal(rm.weights.view(np.uint64), weights.view(np.uint64))
    assert got == expected


def _matrix_csv_per_cell(matrix, row_ids, col_ids, corner="id"):
    """The bytes save_matrix_csv must write: csv rows of repr per cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([corner, *col_ids])
    for rid, row in zip(row_ids, np.asarray(matrix, dtype=np.float64)):
        writer.writerow([rid, *map(repr, row.tolist())])
    return buf.getvalue().encode("utf-8")


_REPEATED_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 2.225073858507201e-308, 1e-5, 0.1])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((np.array([[0.0, -0.0, 5e-324], [-0.0, 0.0, -5e-324]]), TRICKY_IDS[:2], TRICKY_IDS[2:5]))
# More cells than one block of rows that share their values' text.
@example((np.random.default_rng(5).choice([0.0, -0.0, 0.5, 5e-324, 1e16], (700, 100)),
          [f'r"{i},' for i in range(700)], [f"c{j}" for j in range(100)]))
# No columns: a row is its id alone, and csv writes a lone empty id as "".
@example((np.zeros((1, 0)), [""], []))
# More columns than a block holds, so each row, and each id csv must quote, is a block.
@example((np.random.default_rng(6).choice([0.0, -0.0, 0.25, 1e16], (3, 2**15 + 1)),
          ["a,b", 'q"x', "x\r\ny"], [f"c{j}" for j in range(2**15 + 1)]))
@given(st.one_of(
    _labelled_matrices(),
    st.tuples(st.integers(1, 6), st.integers(0, 5)).flatmap(lambda shape: st.tuples(
        st.lists(_REPEATED_VALUES, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
        .map(lambda v: np.array(v, dtype=np.float64).reshape(shape)),
        st.lists(st.sampled_from(TRICKY_IDS), min_size=shape[0], max_size=shape[0], unique=True),
        st.lists(st.sampled_from(TRICKY_IDS), min_size=shape[1], max_size=shape[1], unique=True),
    )),
))
def test_matrix_csv_bytes_match_per_cell_repr(tmp_path, case):
    values, row_ids, col_ids = case
    save_matrix_csv(values, tuple(row_ids), tuple(col_ids), tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == _matrix_csv_per_cell(values, row_ids, col_ids)
