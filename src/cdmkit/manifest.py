"""Run manifests: what ran, on which inputs, with which effective config.

Every successful CLI command writes one ``manifest.json`` into its output
directory.  Input files are recorded by content digest so a rerun can be
checked for identity; the timestamp is the only field allowed to differ
between identical reruns.  :func:`write_json` writes every JSON file,
:func:`read_json` reads every JSON input, and every text input is opened
through :func:`open_text`.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, TextIO

from . import __version__
from .errors import FormatError

MANIFEST_NAME = "manifest.json"


def write_json(path: str | Path, payload: object) -> None:
    """``payload`` as indented, key-sorted JSON with a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    """The JSON object in ``path``, or a ``FormatError`` naming the file."""
    with open_text(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return payload


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
