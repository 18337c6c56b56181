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
from hypothesis.extra import numpy as hnp

from cdmkit import write_json

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


# Arrays of each kind write_json is given, empty ones and 3-D ones among them.
_shapes = st.sampled_from([(), (0,), (0, 3), (2, 0), (2, 0, 3)]) | hnp.array_shapes(
    min_dims=0, max_dims=3, min_side=0, max_side=3
)
_arrays = (
    hnp.arrays(np.float64, _shapes, elements=st.floats() | st.sampled_from([math.nan, -0.0]))
    | hnp.arrays(np.int64, _shapes)
    | hnp.arrays(np.bool_, _shapes)
)


class _Yields:
    """Stands for a generator of ``items``; the test makes a fresh one per write."""

    def __init__(self, items: list) -> None:
        self.items = items

    def __repr__(self) -> str:
        return f"_Yields({self.items!r})"


def _payload_and_list_form(spec):
    """``spec`` with each ``_Yields`` a generator, and ``spec`` as json takes it:
    each array its ``tolist()`` and each generator the list of what it yields."""
    if isinstance(spec, np.ndarray):
        return spec, spec.tolist()
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
    _scalars | _arrays,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(_text, children, max_size=4)
        | st.lists(children, max_size=4).map(_Yields)
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(np.array(-0.0))
@example(np.array([[math.nan, math.inf], [-math.inf, -0.0]]))
@example({"e": np.zeros(0), "r": np.zeros((0, 3)), "c": np.zeros((2, 0)), "t": np.zeros((2, 0, 3))})
@example([np.arange(24).reshape(2, 3, 4), np.array([[True], [False]]), np.array(7)])
@example(_Yields([]))
@example({"g": _Yields([]), "h": _Yields([1, [2.5], _Yields([np.ones((2, 2))])]), "i": [_Yields([])]})
@given(_lazy_values)
def test_arrays_and_generators_are_written_as_their_lists(tmp_path, spec):
    payload, plain = _payload_and_list_form(spec)
    path = tmp_path / "v.json"
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


def test_write_json_does_not_list_an_array(tmp_path):
    # The same matrix as an ndarray: it is written a row at a time, and its
    # whole tolist() (about 10 MB of float objects) is never built.
    matrix = np.random.default_rng(0).random((3000, 120))
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        write_json(path, {"rows": matrix})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.1 * size, f"peak {peak} bytes for a {size}-byte file"
