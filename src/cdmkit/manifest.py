"""Run manifests: what ran, on which inputs, with which effective config.

Every successful CLI command writes one ``manifest.json`` into its output
directory.  Input files are recorded by content digest so a rerun can be
checked for identity; the timestamp is the only field allowed to differ
between identical reruns.  :func:`write_json` writes every JSON file: exactly
the bytes ``json.dumps`` gives with ``indent=2`` and ``sort_keys=True``, and a
newline, streamed to the file as they are encoded rather than built as one
string; a numpy array or a generator in the payload is written as the list
it stands for, without that list being built.  :func:`read_json` reads every
JSON input, every text input is opened through :func:`open_text`, and the
input rules loaders share are here.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from types import GeneratorType
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from . import __version__
from .errors import FormatError, ValidationError

MANIFEST_NAME = "manifest.json"
_CONTAINERS = (dict, list, tuple, np.ndarray, GeneratorType)
_EMPTY = object()  # what next() gives for a generator that yields nothing


def write_json(path: str | Path, payload: object) -> None:
    """Write ``payload`` to ``path`` as ``json.dumps`` with ``indent=2`` and
    ``sort_keys=True`` would, and a newline, byte for byte.  It is written as
    it is encoded: the whole document is never held in memory.  If encoding
    fails, no file is left at ``path``.

    A numpy array is written as its ``tolist()`` would be, one row at a
    time, and a generator as the list of what it yields (``[]`` if nothing),
    taken one item at a time; json itself takes neither.  A list, tuple or
    dict that holds another container is written item by item; whether it
    does is checked once per distinct type of its items, and a subclass (a
    ``NamedTuple``, an ``OrderedDict``) counts as a container, as it does
    for json.  Everything else, dict keys included, goes through one json
    encoder per nesting depth, made once for the whole call."""
    path = Path(path)
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            _write_value(fh.write, payload, 0, set(), _Encoders())
            fh.write("\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


class _Encoders(dict):
    """json's C encoder for each nesting depth, made on first use.  Its item
    separator carries the newline and indentation of the level below."""

    def __missing__(self, depth: int) -> json.JSONEncoder:
        encoder = self[depth] = json.JSONEncoder(
            sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": ")
        )
        return encoder


def _write_value(
    write: Callable[[str], object],
    value: object,
    depth: int,
    open_ids: set[int],
    encoders: _Encoders,
) -> None:
    """Write ``value`` as ``json.dumps`` does at nesting ``depth`` with
    ``indent=2`` and ``sort_keys=True``, an array as its ``tolist()`` and a
    generator as the list it yields.  A generator, an array of two or more
    dimensions (as its rows) and a container that holds containers are
    written item by item; anything else goes to the encoder of ``depth`` in
    one call."""
    if isinstance(value, np.ndarray):
        value = value.tolist() if value.ndim < 2 else list(value)
    inner = "\n" + "  " * (depth + 1)
    encode = encoders[depth].encode
    is_dict = isinstance(value, dict)
    if isinstance(value, GeneratorType):
        first = next(value, _EMPTY)
        if first is _EMPTY:
            write("[]")
            return
        items: Iterable[object] = chain((first,), value)
    else:
        children = value.values() if is_dict else value if isinstance(value, (list, tuple)) else ()
        if not any(issubclass(t, _CONTAINERS) for t in set(map(type, children))):
            text = encode(value)
            if children:  # json puts the brackets of a non-empty container on lines of their own
                text = f"{text[0]}{inner}{text[1:-1]}\n{'  ' * depth}{text[-1]}"
            write(text)
            return
        # json sorts the items before it converts non-string keys.
        items = sorted(value.items()) if is_dict else value
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    write(("{" if is_dict else "[") + inner)
    for i, item in enumerate(items):
        if i:
            write("," + inner)
        if is_dict:
            key, item = item
            write(encode(_json_key(key, encode)) + ": ")
        _write_value(write, item, depth + 1, open_ids, encoders)
    write("\n" + "  " * depth + ("}" if is_dict else "]"))
    open_ids.discard(id(value))


def _json_key(key: object, encode: Callable[[object], str]) -> str:
    """A dict key as json writes it: numbers, booleans and null become their
    JSON text; any other non-string key is a ``TypeError``."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8 text, newlines untranslated (as
    ``csv`` wants); a decode error in the block is a ``FormatError`` naming it."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_json(path: str | Path) -> dict:
    """The JSON object in ``path``, or a ``FormatError`` naming the file.
    Besides ``JSONDecodeError``, json raises ``ValueError`` past its integer
    digit limit and ``RecursionError`` on deep nesting; both are invalid JSON
    here too."""
    with open_text(path) as fh:
        try:
            payload = json.load(fh)
        except UnicodeDecodeError:
            raise  # open_text names it
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return payload


def check_format_version(payload: dict, path: str | Path, expected: int) -> None:
    """A ``FormatError`` unless ``payload["format_version"]`` is the int ``expected``."""
    version = payload.get("format_version")
    # type() rather than ==, so that neither true nor 1.0 passes for 1.
    if type(version) is not int or version != expected:
        raise FormatError(
            f"{path}: unsupported format_version {version!r} (expected {expected})"
        )


def first_duplicate(ids: Iterable[str]) -> str | None:
    """The first id that repeats an earlier one, or ``None`` if all differ."""
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)
    return None


@contextmanager
def naming(*paths: str | Path) -> Iterator[None]:
    """Raise a ``ValidationError`` of the block again, of the same type, as
    ``"<path>, <path>: <message>"``; messages in the block name no file."""
    try:
        yield
    except ValidationError as exc:
        raise type(exc)(f"{', '.join(map(str, paths))}: {exc}") from exc


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    input_digests: dict[str, str]
    seed: int | None
    tool_version: str = __version__
    created_at: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def to_dict(self) -> dict:
        return asdict(self)


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: dict,
    inputs: list[str | Path] | None = None,
    seed: int | None = None,
) -> Path:
    digests = {str(p): sha256_file(p) for p in (inputs or [])}
    manifest = RunManifest(
        command=command, config=config, input_digests=digests, seed=seed
    )
    path = Path(out_dir) / MANIFEST_NAME
    write_json(path, manifest.to_dict())
    return path
