"""The bench's tracer wraps cdmkit functions by module and attribute name; a
rename in cdmkit must fail here, not first in a traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import cdmkit.cli  # noqa: F401  (the import the bench pipeline makes first)

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_bench_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.TARGETS and not missing, missing
