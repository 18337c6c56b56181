"""Generated malformed inputs for `fit` and `grade`.

Each example starts from valid input files, written by the library's matrix
writer and by the fixture writers in ``oracles``, applies one mutation from a
catalogue to one file, and runs the command in this process.  Whatever the
mutation, the command ends in exit 0 with sound outputs, or in exit 2 with one
stderr line that names an input file and with no ``--out``; never in exit 1
or a traceback.

The catalogue: id text from all of Unicode (surrogates and C0 controls
included); cells that are NaN, ±inf, −0, 1e308, negative or blank; rows,
columns or headers repeated, dropped or swapped; JSON fields of another type;
a BOM, CRLF line ends, or an empty file.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdmkit import Attempt, Concept, ConceptCatalog, Item, ItemBank, ResponseLog
from cdmkit.cli import main
from cdmkit.responses import load_matrix_csv, save_matrix_csv
from cdmkit.solver import load_mastery
from oracles import save_item_bank, save_response_log

FIT_FILES = ("scores.csv", "weights.csv", "qmatrix.csv")
GRADE_FILES = ("bank.json", "log.jsonl")
# Gate 3's allowance for an objective step (float rounding), as in the bench.
MONOTONE_SLACK = 1e-9


def _write_valid(root: Path) -> None:
    rng = np.random.default_rng(5)
    items = tuple(f"q{i}" for i in range(6))
    models = tuple(f"m{j}" for j in range(4))
    concepts = ("c0", "c1", "c2")
    scores = (rng.random((6, 4)) > 0.5).astype(float)
    qmat = np.zeros((6, 3))
    qmat[np.arange(6), np.arange(6) % 3] = 1.0
    save_matrix_csv(scores, items, models, root / "scores.csv", corner="item_id")
    save_matrix_csv(np.ones_like(scores), items, models, root / "weights.csv", corner="item_id")
    save_matrix_csv(qmat, items, concepts, root / "qmatrix.csv", corner="item_id")
    bank = ItemBank(
        items=(Item("q1", "p1", "A", frozenset({"c1"})),
               Item("q2", "p2", "BC", frozenset({"c1", "c2"}))),
        catalog=ConceptCatalog((Concept("c1", "loops"), Concept("c2", "sets"))),
    )
    save_item_bank(bank, root / "bank.json")
    attempts = (Attempt("q1", 0, "A"), Attempt("q1", 1, "no idea"),
                Attempt("q2", 0, "B, C"), Attempt("q2", 1, "C"))
    save_response_log(ResponseLog("m1", attempts), root / "log.jsonl")


def _documents() -> dict:
    """Each valid file as the document a mutation edits: a CSV as its rows of
    cells, the bank as its JSON object, the log as its list of records."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_valid(root)
        docs = {name: list(csv.reader(io.StringIO((root / name).read_text(encoding="utf-8"))))
                for name in FIT_FILES}
        docs["bank.json"] = json.loads((root / "bank.json").read_text(encoding="utf-8"))
        docs["log.jsonl"] = [json.loads(line) for line in
                             (root / "log.jsonl").read_text(encoding="utf-8").splitlines()]
    return docs


VALID = _documents()


def _paths(node, prefix=()):
    """The path of ``node`` and of every node below it."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _positions(kind: str, name: str, doc) -> list[tuple]:
    """The paths in ``doc`` that a mutation of ``kind`` may edit."""
    if name in FIT_FILES:
        if kind == "id":
            return [(0, c) for c in range(len(doc[0]))] + [(r, 0) for r in range(1, len(doc))]
        return [(r, c) for r in range(1, len(doc)) for c in range(1, len(doc[r]))]
    paths = [p for p in _paths(doc) if p]
    if kind == "id":
        return [p for p in paths if p[-1] in ("id", "model", "item")
                or (len(p) == 4 and p[2] == "concepts")]
    if kind == "cell":
        return [p for p in paths if p[-1] in ("format_version", "attempt")]
    return paths  # "type": any node


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _edit_list(items: list, op: str, i: int, j: int) -> None:
    if not items:
        return
    i, j = i % len(items), j % len(items)
    if op == "repeat":
        items.insert(i, copy.deepcopy(items[j]))
    elif op == "drop":
        del items[i]
    else:
        items[i], items[j] = items[j], items[i]


def _mutated_bytes(mutation: tuple) -> bytes:
    kind, name = mutation[:2]
    doc = copy.deepcopy(VALID[name])
    if kind in ("id", "cell", "type"):
        index, value = mutation[2:]
        if kind == "cell":
            value = value[0] if name in FIT_FILES else value[1]
        positions = _positions(kind, name, doc)
        _set(doc, positions[index % len(positions)], value)
    elif kind == "rows":
        _edit_list(doc["items"] if name == "bank.json" else doc, *mutation[2:])
    elif kind == "columns":
        if name == "bank.json":
            _edit_list(doc["concepts"], *mutation[2:])
        else:
            for row in doc:
                _edit_list(row, *mutation[2:])
    if name in FIT_FILES:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(doc)
        text = buf.getvalue()
    elif name == "bank.json":
        text = json.dumps(doc)
    else:
        text = "".join(json.dumps(record) + "\n" for record in doc)
    if kind == "bytes":
        form = mutation[2]
        text = {"bom": "\ufeff" + text, "crlf": text.replace("\n", "\r\n"), "empty": ""}[form]
    # A lone surrogate cannot be UTF-8: the file holds the bytes Python would give it.
    return text.encode("utf-8", "surrogatepass")


_ID_TEXT = st.text(st.characters(exclude_categories=()), max_size=4) | st.sampled_from(
    ["", "\ud800", "a\udfff", "\x00", "\x1f", "\ufffe", "\uffff", ",", '"', "\n", "\r\n",
     " q1", "q0", "m0", "c1", "\ufeff", "x" * 131_073]
)
# Each cell as CSV text and as a JSON value.
_CELLS = st.sampled_from([
    ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("-0", -0.0),
    ("1e308", 1e308), ("-1e308", -1e308), ("1e400", 10**400), ("-1", -1), ("-0.5", -0.5),
    ("", ""), (" ", None),
])
_JSON_VALUES = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
    | st.lists(st.text(max_size=2), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)
_INDEX = st.integers(0, 1000)
_OPS = st.sampled_from(["repeat", "drop", "swap"])
_MUTATIONS = st.one_of(
    st.tuples(st.just("id"), st.sampled_from(FIT_FILES + GRADE_FILES), _INDEX, _ID_TEXT),
    st.tuples(st.just("cell"), st.sampled_from(FIT_FILES + ("log.jsonl",)), _INDEX, _CELLS),
    st.tuples(st.just("rows"), st.sampled_from(FIT_FILES + GRADE_FILES), _OPS, _INDEX, _INDEX),
    st.tuples(st.just("columns"), st.sampled_from(FIT_FILES + ("bank.json",)), _OPS, _INDEX, _INDEX),
    st.tuples(st.just("type"), st.sampled_from(GRADE_FILES), _INDEX, _JSON_VALUES),
    st.tuples(st.just("bytes"), st.sampled_from(FIT_FILES + GRADE_FILES),
              st.sampled_from(["bom", "crlf", "empty"])),
)


def _argv(command: str, root: Path) -> list[str]:
    if command == "fit":
        return ["fit", "--scores", str(root / "scores.csv"), "--weights", str(root / "weights.csv"),
                "--qmatrix", str(root / "qmatrix.csv"), "--skills", "2", "--starts", "1",
                "--max-iters", "20", "--out", str(root / "out")]
    return ["grade", "--bank", str(root / "bank.json"), "--logs", str(root / "log.jsonl"),
            "--repeats", "2", "--out", str(root / "out")]


def _check_outputs(command: str, out: Path) -> None:
    """Finite outputs, mastery probabilities in [0, 1], a trace that does not rise."""
    for path in out.glob("*.csv"):
        if path.name != "trace.csv":
            values, _, _ = load_matrix_csv(path)  # refuses a non-finite cell
            if command == "grade":
                assert values.min(initial=0) >= 0 and values.max(initial=0) <= 1, path.name
    if command == "grade":
        return
    prob = load_mastery(out / "mastery.json").prob  # refuses a non-finite cell
    assert prob.min(initial=0) >= 0 and prob.max(initial=0) <= 1
    trace = [float(line.split(",")[1])
             for line in (out / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert all(map(math.isfinite, trace))
    assert np.diff(trace).max(initial=0) <= MONOTONE_SLACK, trace
    report = json.loads((out / "reconstruction.json").read_text(encoding="utf-8"))
    assert all(v is None or math.isfinite(v) for v in report.values()), report


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# A model id json decodes to a lone surrogate: refused where the log is read.
@example(("id", "log.jsonl", 0, "a\ud800"))
# An id past csv's field size limit (131,072 characters): in a CSV header, and
# in a log, whose model ids grade would write as the header of scores.csv.
@example(("id", "scores.csv", 1, "x" * 131_073))
@example(("id", "log.jsonl", 0, "x" * 131_073))
@given(_MUTATIONS)
def test_generated_malformed_input(mutation):
    name = mutation[1]
    command = "fit" if name in FIT_FILES else "grade"
    files = FIT_FILES if command == "fit" else GRADE_FILES
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_valid(root)
        (root / name).write_bytes(_mutated_bytes(mutation))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(_argv(command, root))
        err = stderr.getvalue()
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert any(str(root / f) in err for f in files), err
            assert not (root / "out").exists()
        else:
            _check_outputs(command, root / "out")
