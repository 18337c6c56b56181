import json
import math
import re
import tracemalloc
from collections import OrderedDict
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdmkit import FormatError, NumericalError, ValidationError, write_json
from cdmkit.manifest import NumberRows, check_cells, checked_ids, first_duplicate
from oracles import xml_char

# Strings that json escapes: quotes, backslashes, control characters,
# non-ASCII text and a character outside the BMP (a surrogate pair in JSON).
_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "a\r\nb", " ", "é中", "\U0001f600"]
)
_scalars = (
    st.none() | st.booleans() | st.integers() | _text
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
)


class _Pair(NamedTuple):
    first: object
    second: object


class _List(list):
    pass


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        # Subclasses are containers too: json writes them as their base type.
        | st.tuples(children, children).map(lambda pair: _Pair(*pair))
        | st.lists(children, max_size=4).map(_List)
        | st.dictionaries(_text, children, max_size=4).map(OrderedDict)
        | st.dictionaries(_text, children, max_size=4)
        # json converts these keys to strings, after it sorts them.
        | st.dictionaries(st.integers(), children, max_size=4)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
    )


_json_values = st.recursive(_scalars, _containers, max_leaves=24)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example({"a": [], "b": {}, "c": [[], [{}], ()], "d": {"e": [[]]}})
@example({10: [1], 9: {"x": [2.5, math.nan]}, -1: "z"})
@example([{False: [0], True: {}}, {None: [None]}])
@example(-0.0)
# Innermost dicts with int, bool and None keys, and lists, share a depth.
@example({7: [{-1: "x", True: 2.5}, [None, False], {None: 0}], 1.5: [[], {}], False: {2: [1]}})
@example({"p": _Pair([1], _List([OrderedDict(b=2, a=[3])])), "q": [_Pair(1, 2)]})
@given(_json_values)
def test_write_json_is_json_dumps_bytes(tmp_path, value):
    path = tmp_path / "v.json"
    write_json(path, value)
    expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


class _Yields:
    """Stands for a generator of ``items``; the test makes a fresh one per write."""

    def __init__(self, items: list) -> None:
        self.items = items

    def __repr__(self) -> str:
        return f"_Yields({self.items!r})"


def _payload_and_list_form(spec):
    """``spec`` with each ``_Yields`` a generator, and ``spec`` as json takes it:
    each generator the list of what it yields."""
    if isinstance(spec, dict):
        pairs = {key: _payload_and_list_form(item) for key, item in spec.items()}
        return ({key: p for key, (p, _) in pairs.items()},
                {key: plain for key, (_, plain) in pairs.items()})
    if isinstance(spec, (list, _Yields)):
        pairs = [_payload_and_list_form(item) for item in getattr(spec, "items", spec)]
        payloads = (p for p, _ in pairs) if isinstance(spec, _Yields) else [p for p, _ in pairs]
        return payloads, [plain for _, plain in pairs]
    return spec, spec


_lazy_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(_text, children, max_size=4)
        | st.lists(children, max_size=4).map(_Yields)
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(_Yields([]))
@example({"g": _Yields([]), "h": _Yields([1, [2.5], _Yields([[1.0, -0.0]])]), "i": [_Yields([])]})
@given(_lazy_values)
def test_generators_are_written_as_their_lists(tmp_path, spec):
    payload, plain = _payload_and_list_form(spec)
    path = tmp_path / "v.json"
    write_json(path, payload)
    expected = json.dumps(plain, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


# Rows of finite floats of shape (0, k), (n, 0) or n x k.
_float_rows = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    )
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([[-0.0, 0.0]])
@example([[5e-324], [-5e-324]])
@example([[1e16, 1e22], [-1e16, 1e-7]])
@example([[0.1, 0.1, 0.30000000000000004]])
@example([[], []])
@given(_float_rows)
def test_number_rows_are_written_as_json_writes_their_floats(tmp_path, rows):
    def node():
        # The rows come from a generator, and each cell is repr's text.
        return NumberRows([repr(x) for x in row] for row in rows)

    path = tmp_path / "v.json"
    for payload, plain in (
        (node(), rows),
        ({"m": [node(), 1], "a": node()}, {"m": [rows, 1], "a": rows}),
    ):
        write_json(path, payload)
        expected = json.dumps(plain, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("payload, message", [
    pytest.param({"a": list(range(100000)), "z": object()},
                 "Object of type object is not JSON serializable", id="value after a long list"),
    pytest.param({"a": [1], "b": {(1, 2): 3}},
                 "keys must be str, int, float, bool or None, not tuple", id="tuple key"),
    pytest.param({"a": [1], 1: [2]},
                 "'<' not supported between instances of 'int' and 'str'", id="unsortable keys"),
    pytest.param({"a": [1], "m": np.zeros((2, 2))},
                 "Object of type ndarray is not JSON serializable", id="numpy array"),
])
def test_unserializable_payload_leaves_no_file(tmp_path, payload, message):
    with pytest.raises(TypeError) as exc:
        json.dumps(payload, indent=2, sort_keys=True)
    assert str(exc.value) == message
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError, match=re.escape(message)):
        write_json(path, payload)
    assert not path.exists()


def test_circular_payload_is_value_error(tmp_path):
    payload: dict = {"a": [1]}
    payload["b"] = [payload]
    with pytest.raises(ValueError, match="Circular reference detected"):
        write_json(tmp_path / "loop.json", payload)
    assert not (tmp_path / "loop.json").exists()


def test_write_json_does_not_hold_the_document(tmp_path):
    # A 3000 x 120 float matrix, the shape of a large simulated world: json.dumps
    # with indent builds about four times the file's size in str objects.
    rows = np.random.default_rng(0).random((3000, 120)).tolist()
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        write_json(path, {"rows": rows})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.1 * size, f"peak {peak} bytes for a {size}-byte file"


# ---------------------------------------------------------------------------
# checked_ids against XML 1.0's Char production, read code point by code point
# ---------------------------------------------------------------------------

# Both edges of every range of Char, the surrogates (which st.characters draws
# only when asked), and any code point at all.
_EDGES = [0x0, 0x8, 0x9, 0xA, 0xB, 0xC, 0xD, 0xE, 0x1F, 0x20, 0x7F, 0x85, 0xD7FF, 0xD800,
          0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0xFFFD, 0xFFFE, 0xFFFF, 0x10000, 0x10FFFF]
_id_chars = st.sampled_from([chr(point) for point in _EDGES]) | st.integers(0, 0x10FFFF).map(chr)


@settings(max_examples=500, deadline=None)
@example(["a\ud800"])
@example([" edge ", "\t", "x\r\ny", "\U0001f600"])
@example(["ok", "a\x01b", ""])
@given(
    # Distinct non-empty ids put the character rule to the test; any ids, the other two.
    st.lists(st.text(_id_chars, min_size=1, max_size=3), max_size=4, unique=True)
    | st.lists(st.text(_id_chars, max_size=3), max_size=4)
)
def test_checked_ids_matches_the_xml_char_oracle(ids):
    bad = [i for i in ids if not all(map(xml_char, i))]
    if "" in ids:
        message = "model with empty id"
    elif len(set(ids)) < len(ids):
        message = f"duplicate model id {first_duplicate(ids)!r}"
    elif bad:
        char = next(c for c in bad[0] if not xml_char(c))
        message = f"model id {bad[0]!r} holds {char!r}, which XML 1.0 cannot carry"
    else:
        # Any other text is an id as written, edge whitespace included.
        assert checked_ids(iter(ids), "model") == tuple(ids)
        return
    with pytest.raises(ValidationError) as caught:
        checked_ids(iter(ids), "model")
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# check_cells: the first bad cell in row order, by its ids and its value
# ---------------------------------------------------------------------------

_BAD_CELLS = [math.nan, math.inf, -math.inf, -5e-324, -1.0, 1.0000000000000002, 1.5, 1e308]


@st.composite
def _planted_matrices(draw):
    """A matrix of cells in [0, 1] of any shape, 0 rows or 0 columns too, with
    up to four bad cells planted; its row and column ids, or None for indices."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cells = draw(st.lists(st.floats(0, 1), min_size=rows * cols, max_size=rows * cols))
    values = np.array(cells, dtype=np.float64).reshape(rows, cols)
    if values.size:
        for index, bad in draw(st.lists(st.tuples(st.integers(0, values.size - 1),
                                                  st.sampled_from(_BAD_CELLS)), max_size=4)):
            values.flat[index] = bad
    def ids(n):
        return draw(st.none() | st.lists(st.text(max_size=3), unique=True,
                                         min_size=n, max_size=n).map(tuple))

    return values, ids(rows), ids(cols)


@settings(max_examples=300, deadline=None)
@example((np.array([[0.5, np.nan], [2.0, 0.0]]), ("q0", "q1"), ("m0", "m1")), ValidationError)
@example((np.empty((0, 3)), None, None), ValidationError)
@example((np.empty((4, 0)), None, None), ValidationError)
@given(_planted_matrices(), st.sampled_from([ValidationError, FormatError, NumericalError]))
def test_check_cells_names_the_first_bad_cell(case, error):
    values, row_ids, col_ids = case
    rule = "values must lie in [0, 1]"
    bad = [(i, j) for i in range(values.shape[0]) for j in range(values.shape[1])
           if not 0 <= values[i, j] <= 1]
    args = ("scores.csv", values, (values >= 0) & (values <= 1), rule, row_ids, col_ids, error)
    if not bad:
        assert check_cells(*args) is None
        return
    i, j = bad[0]
    row = i if row_ids is None else row_ids[i]
    col = j if col_ids is None else col_ids[j]
    with pytest.raises(error) as caught:
        check_cells(*args)
    assert type(caught.value) is error
    assert str(caught.value) == (
        f"scores.csv: row {row!r}, column {col!r} holds {float(values[i, j])!r}; {rule}"
    )
