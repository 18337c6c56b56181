"""Run manifests: what ran, on which inputs, with which effective config.

Every CLI command writes exactly one ``manifest.json`` into its output
directory.  Input files are recorded by content digest so a rerun can be
checked for identity; the timestamp is the only field allowed to differ
between identical reruns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__

MANIFEST_NAME = "manifest.json"


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
    path.write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
