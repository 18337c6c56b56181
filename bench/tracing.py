"""Spans around cdmkit's public functions, installed from outside the package.

Each target is replaced, for the length of one traced pipeline run, by a
wrapper under the name its caller looks it up by: `cdmkit.cli.multistart_fit`
for the CLI's call, `cdmkit.solver.fit` for the starts inside
`multistart_fit`, `cdmkit.responses.grade` for the attempts inside
`aggregate`.  A span records its name, start, end, parent span and whether it
raised.  Spans are kept in flat arrays in memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from pathlib import Path


def _path_arg(position: int, keyword: str):
    def get(args, kwargs):
        return kwargs[keyword] if keyword in kwargs else args[position]
    return get


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Hooks run after a call returns and turn what it did into counts.
def _count_fit(tr, args, kwargs, result):
    tr.count("solver.iterations", result.iterations_run)
    tr.count("solver.converged", int(result.converged))


def _count_winner(tr, args, kwargs, result):
    tr.count("solver.winner_iterations", result.iterations_run)


def _count_csv(get_path):
    def hook(tr, args, kwargs, result):
        tr.count("responses.csv_bytes", _size(get_path(args, kwargs)))
    return hook


def _count_attempts(tr, args, kwargs, result):
    tr.count("responses.attempts", sum(len(log.entries) for log in result))


def _count_items(tr, args, kwargs, result):
    tr.count("bank.items", len(result))


def _count_unparsed(tr, args, kwargs, result):
    tr.count("grading.unparsed", int(result is None))


def _count_sim_bytes(tr, args, kwargs, result):
    tr.count("simulate.bytes_written", sum(_size(p) for p in result.values()))


def _count_svg(tr, args, kwargs, result):
    tr.count("heatmap.svg_bytes", len(result.encode("utf-8")))


def _count_hashed(tr, args, kwargs, result):
    tr.count("manifest.bytes_hashed", _size(args[0] if args else kwargs["path"]))


_SAVE_CSV_PATH = _path_arg(3, "path")
_LOAD_CSV_PATH = _path_arg(0, "path")

# (module, attribute, span name or None for a count-only wrapper, hook)
TARGETS = (
    ("cdmkit.cli", "simulate", "simulate.draw", None),
    ("cdmkit.cli", "save_sim_output", "simulate.save", _count_sim_bytes),
    ("cdmkit.cli", "load_item_bank", "bank.load", _count_items),
    ("cdmkit.cli", "load_response_logs", "responses.load_logs", _count_attempts),
    ("cdmkit.cli", "aggregate", "responses.aggregate", None),
    ("cdmkit.responses", "grade", "grading.grade", None),
    ("cdmkit.grading", "extract_choice", None, _count_unparsed),
    ("cdmkit.cli", "load_matrix_csv", "responses.load_csv", _count_csv(_LOAD_CSV_PATH)),
    ("cdmkit.responses", "load_matrix_csv", "responses.load_csv", _count_csv(_LOAD_CSV_PATH)),
    ("cdmkit.responses", "save_matrix_csv", "responses.save_csv", _count_csv(_SAVE_CSV_PATH)),
    ("cdmkit.solver", "save_matrix_csv", "responses.save_csv", _count_csv(_SAVE_CSV_PATH)),
    ("cdmkit.cli", "multistart_fit", "solver.multistart_fit", _count_winner),
    ("cdmkit.solver", "fit", "solver.fit", _count_fit),
    ("cdmkit.cli", "save_factors", "solver.save", None),
    ("cdmkit.cli", "save_mastery", "solver.save", None),
    ("cdmkit.cli", "save_fit_bundle", "solver.save", None),
    ("cdmkit.cli", "mastery", "solver.mastery", None),
    ("cdmkit.cli", "predict_scores", "solver.predict", None),
    ("cdmkit.solver", "predict_scores", "solver.predict", None),
    ("cdmkit.cli", "load_mastery", "solver.load_mastery", None),
    ("cdmkit.cli", "reconstruction_metrics", "metrics.reconstruction", None),
    ("cdmkit.cli", "concept_counts", "metrics.concept_counts", None),
    ("cdmkit.cli", "cluster_models", "metrics.cluster", None),
    ("cdmkit.cli", "krippendorff_alpha", "metrics.alpha", None),
    ("cdmkit.cli", "render_svg", "heatmap.render", _count_svg),
    ("cdmkit.cli", "write_manifest", "manifest.write", None),
    ("cdmkit.manifest", "sha256_file", None, _count_hashed),
)


class Tracer:
    """Spans and counters for one pipeline run at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._first_span = 0

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int, raised: bool) -> None:
        self.end[span] = time.perf_counter()
        self.raised[span] = raised
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name: str | None, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = tracer.open(name)
                raised = True
                try:
                    result = fn(*args, **kwargs)
                    raised = False
                finally:
                    tracer.close(span, raised)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Start a run: reset counters and swap every target for its wrapper."""
        self.counters = {}
        self._first_span = len(self.name)
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], int]:
        """Inclusive time, self time and call count per span name, for the current run."""
        first = self._first_span
        n = len(self.name)
        child_time = [0.0] * (n - first)
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        # Children always come after their parent, so one backwards pass
        # has every child's time summed before its parent is reached.
        for span in range(n - 1, first - 1, -1):
            duration = self.end[span] - self.start[span]
            parent = self.parent[span]
            if parent >= first:
                child_time[parent - first] += duration
            key = self.names[self.name[span]]
            inclusive[key] = inclusive.get(key, 0.0) + duration
            own[key] = own.get(key, 0.0) + duration - child_time[span - first]
            calls[key] = calls.get(key, 0) + 1
        raised = sum(self.raised[first:n])
        return inclusive, own, calls, raised

    def write_spans(self, path: Path) -> None:
        """All spans of every traced run as CSV: id, name, parent, start, end, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start,end,raised\n")
            for span in range(len(self.name)):
                fh.write(
                    f"{span},{self.names[self.name[span]]},{self.parent[span]},"
                    f"{self.start[span]!r},{self.end[span]!r},{self.raised[span]}\n"
                )


def layer_metrics(tracer: Tracer, per: int = 1) -> dict[str, float | None]:
    """Per-layer figures of the current run, per world of its `per` worlds.

    Times and counts are divided by `per`; ratios are taken over the totals.
    A layer the run never reached is None.
    """
    inclusive, own, calls, raised = tracer.run_totals()
    counters = {key: value / per for key, value in tracer.counters.items()}
    own = {key: value / per for key, value in own.items()}
    calls = {key: value / per for key, value in calls.items()}

    def seconds(*names: str) -> float | None:
        hit = [inclusive[n] for n in names if n in inclusive]
        return sum(hit) / per if hit else None

    def ratio(num: float | None, den: float | None, scale: float = 1.0) -> float | None:
        return None if not den or num is None else scale * num / den

    fit_calls = calls.get("solver.fit")
    iterations = counters.get("solver.iterations")
    grade_calls = calls.get("grading.grade")
    unparsed = counters.get("grading.unparsed") if grade_calls else None
    return {
        "solver.fit_calls": fit_calls,
        "solver.fit_s": seconds("solver.fit"),
        "solver.iterations": iterations,
        "solver.us_per_iter": ratio(seconds("solver.fit"), iterations, 1e6),
        "solver.winner_iter_ratio": ratio(counters.get("solver.winner_iterations"), iterations),
        "solver.converged_ratio": ratio(counters.get("solver.converged"), fit_calls),
        "solver.save_s": seconds("solver.save"),
        "solver.load_mastery_s": seconds("solver.load_mastery"),
        "solver.mastery_s": seconds("solver.mastery"),
        "solver.predict_s": seconds("solver.predict"),
        "responses.load_logs_s": seconds("responses.load_logs"),
        "responses.attempts": counters.get("responses.attempts"),
        "responses.aggregate_self_s": own.get("responses.aggregate"),
        "responses.load_csv_s": seconds("responses.load_csv"),
        "responses.save_csv_s": seconds("responses.save_csv"),
        "responses.csv_bytes": counters.get("responses.csv_bytes"),
        "grading.calls": grade_calls,
        "grading.s": seconds("grading.grade"),
        "grading.unparsed": unparsed,
        "grading.parse_ratio": ratio(None if unparsed is None else grade_calls - unparsed,
                                     grade_calls),
        "bank.load_s": seconds("bank.load"),
        "bank.items": counters.get("bank.items"),
        "simulate.draw_s": seconds("simulate.draw"),
        "simulate.save_s": seconds("simulate.save"),
        "simulate.bytes_written": counters.get("simulate.bytes_written"),
        "metrics.cluster_s": seconds("metrics.cluster"),
        "metrics.reconstruction_s": seconds("metrics.reconstruction"),
        "metrics.concept_counts_s": seconds("metrics.concept_counts"),
        "metrics.alpha_s": seconds("metrics.alpha"),
        "heatmap.render_s": seconds("heatmap.render"),
        "heatmap.svg_bytes": counters.get("heatmap.svg_bytes"),
        "manifest.write_s": seconds("manifest.write"),
        "manifest.bytes_hashed": counters.get("manifest.bytes_hashed"),
        "trace.spans": sum(calls.values()),
        "trace.spans_raised": raised / per,
    }
