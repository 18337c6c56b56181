"""Command-line pipeline: simulate, grade, fit, diagnose, agreement, sweep.

Contract for scripting: exit 0 on success, 1 on numerical/degenerate-data
failures, 2 on usage or input errors.  Identical inputs, flags, and seed
produce numerically identical output files; only the manifest timestamp may
differ between reruns.  Option precedence: command-line flags beat the
--config file, which beats built-in defaults; the effective configuration is
echoed into the manifest.  Each subcommand declares its options once, in a
table of :class:`Option` rows, and every value is checked against its row,
and every required input is checked to be given, before any input is read.
Every warning is logged under ``cdmkit``; :func:`main` writes a successful
command's records to ``<out>/warnings.log``, then the manifest, and prints a
failed command's records to stderr before the error.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import io
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .bank import load_item_bank
from .errors import (
    DegenerateDataError,
    DimensionError,
    FormatError,
    NumericalError,
    ValidationError,
)
from .heatmap import render_svg
from .manifest import check_cells, checked_ids, naming, open_text, read_json, write_json, write_manifest
from .metrics import (
    DISTANCES,
    cluster_models,
    concept_counts,
    krippendorff_alpha,
    reconstruction_metrics,
    render_concept_table,
)
from .responses import (
    DEFAULT_REPEATS,
    aggregate,
    load_matrix_csv,
    load_response_logs,
    load_response_matrix,
    save_matrix_csv,
    save_response_matrix,
)
from .simulate import SimConfig, save_sim_output, simulate
from .solver import (
    McfConfig,
    load_mastery,
    mastery,
    multistart_fit,
    predict_scores,
    save_factors,
    save_fit_bundle,
    save_mastery,
)

USAGE_ERROR = 2
RUNTIME_ERROR = 1

log = logging.getLogger(__name__)

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _is_number(value: object) -> bool:
    """A JSON number a float can hold; booleans are not numbers."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class Option:
    """One option: ``key`` is its config-file and manifest key, and with ``_``
    written as ``-`` its flag.  ``kind`` is int, float or str; ``field`` names
    the SimConfig/McfConfig field it feeds, if any; a ``required`` one must be set.
    """

    key: str
    kind: type
    default: object = None
    aliases: tuple[str, ...] = ()
    choices: tuple[str, ...] = ()
    field: str | None = None
    help: str | None = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        kwargs: dict = {"dest": self.key, "help": self.help, "choices": self.choices or None}
        if self.kind is not str:
            kwargs["type"] = self.kind
        parser.add_argument(self.flag, *self.aliases, **kwargs)

    def check(self, value: object, source: str) -> object:
        """``value`` as this option's type, or a FormatError naming ``source``.

        Booleans are not numbers, numbers must be finite; ``None`` only where it is the default.
        """
        if value is None and self.default is None:
            return None
        if self.kind is float:
            ok = _is_number(value)
        else:
            ok = isinstance(value, self.kind) and not isinstance(value, bool)
        if not ok or (self.choices and value not in self.choices):
            expected = f"one of {list(self.choices)}" if self.choices else _KIND_NAMES[self.kind]
            raise FormatError(
                f"{source}: {self.key} must be {expected}, got {json.dumps(value)}"
            )
        if self.kind is float and not math.isfinite(value):
            raise FormatError(f"{source}: {self.key} must be finite, got {json.dumps(value)}")
        return self.kind(value)


def _field(cls: type, name: str, key: str | None = None, **kwargs) -> Option:
    """The option for dataclass field ``cls.name``, with its type and default."""
    default = cls.__dataclass_fields__[name].default
    return Option(key or name, type(default), default, field=name, **kwargs)


def _fields(options: tuple[Option, ...], effective: dict) -> dict:
    """The config-dataclass arguments among the effective options."""
    return {o.field: effective[o.key] for o in options if o.field}


def _effective(args: argparse.Namespace) -> dict:
    """flags > config file > defaults; returns the effective option dict."""
    options = {o.key: o for o in args.options}
    effective = {key: o.default for key, o in options.items()}
    if args.config:
        payload = read_json(args.config)
        unknown = sorted(set(payload) - set(options))
        if unknown:
            raise FormatError(f"{args.config}: unknown config keys {unknown}")
        for key, value in payload.items():
            effective[key] = options[key].check(value, args.config)
    for key, option in options.items():
        value = getattr(args, key)
        if value is not None:
            effective[key] = option.check(value, "command line")
    return effective


def _out_dir(effective: dict) -> Path:
    out = Path(effective["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_OPTIONS = (
    _field(SimConfig, "n_items", "items", aliases=("--m",)),
    _field(SimConfig, "n_models", "models", aliases=("--n",)),
    _field(SimConfig, "n_concepts", "concepts", aliases=("--k",)),
    _field(SimConfig, "n_skills", "skills", aliases=("--t",)),
    _field(SimConfig, "seed"),
    Option("out", str, "sim_out"),
)


def cmd_simulate(eff: dict) -> list[str]:
    config = SimConfig(**_fields(SIMULATE_OPTIONS, eff))
    sim = simulate(config)
    out = _out_dir(eff)
    save_sim_output(sim, out)
    print(f"simulated {config.n_items}x{config.n_models} world -> {out}")
    return []


# ---------------------------------------------------------------------------
# grade
# ---------------------------------------------------------------------------

GRADE_OPTIONS = (
    Option("bank", str, required=True),
    Option("logs", str, help="glob of JSONL response logs", required=True),
    Option("repeats", int, DEFAULT_REPEATS),
    Option("out", str, "grade_out"),
)


def cmd_grade(eff: dict) -> list[str]:
    bank = load_item_bank(eff["bank"])
    log_paths = sorted(globmod.glob(eff["logs"]))
    if not log_paths:
        raise ValidationError(f"no response logs match {eff['logs']!r}")
    logs = []
    for path in log_paths:
        logs.extend(load_response_logs(path))
    if not logs:
        raise ValidationError(f"{', '.join(log_paths)}: no attempts in the response logs")
    matrix = aggregate(logs, bank, repeats=eff["repeats"])
    out = _out_dir(eff)
    save_response_matrix(matrix, out / "scores.csv", out / "weights.csv")
    print(f"graded {len(matrix.item_ids)} items x {len(matrix.model_ids)} models -> {out}")
    return [eff["bank"], *log_paths]


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

FIT_OPTIONS = (
    Option("scores", str, required=True),
    Option("weights", str),
    Option("qmatrix", str, required=True),
    _field(McfConfig, "n_skills", "skills", aliases=("--t",)),
    *(_field(McfConfig, name) for name in ("q_weight", "ridge_item", "ridge_model", "ridge_concept")),
    *(_field(McfConfig, name) for name in ("max_iters", "tol", "seed")),
    Option("starts", int, 8),
    Option("out", str, "fit_out"),
)


def _load_fit_inputs(eff: dict):
    matrix = load_response_matrix(eff["scores"], eff["weights"])
    if not matrix.n_items:
        raise FormatError(f"{eff['scores']}: no data rows")
    if not matrix.n_models:
        raise FormatError(f"{eff['scores']}: no model columns")
    if not matrix.weights.any():
        raise ValidationError(f"{eff['weights']}: every weight is 0, so no cell is observed")
    qmat, q_item_ids, concept_ids = load_matrix_csv(eff["qmatrix"])
    if qmat.shape[0] != matrix.scores.shape[0]:
        raise DimensionError(
            f"{eff['qmatrix']} has {qmat.shape[0]} rows but "
            f"{eff['scores']} has {matrix.scores.shape[0]}"
        )
    if q_item_ids != matrix.item_ids:
        raise DimensionError(
            f"item ids in {eff['qmatrix']} do not match {eff['scores']}"
        )
    if not concept_ids:
        raise FormatError(f"{eff['qmatrix']}: no concept columns")
    with naming(eff["qmatrix"]):
        checked_ids(concept_ids, "concept")
    check_cells(eff["qmatrix"], qmat, (qmat == 0) | (qmat == 1), "Q-matrix cells must be 0 or 1",
                q_item_ids, concept_ids)
    for what, ids, cells in (("concept(s) tagged by no item", concept_ids, qmat),
                             ("model(s) observed in no cell", matrix.model_ids, matrix.weights)):
        missing = [i for i, seen in zip(ids, cells.any(axis=0)) if not seen]
        if missing:
            log.warning("%d %s, so no score bears on their mastery: %s", len(missing), what, missing)
    inputs = [eff["scores"], eff["qmatrix"]] + ([eff["weights"]] if eff["weights"] else [])
    return matrix, qmat, concept_ids, inputs


def cmd_fit(eff: dict) -> list[str]:
    config = McfConfig(**_fields(FIT_OPTIONS, eff))
    matrix, qmat, concept_ids, inputs = _load_fit_inputs(eff)
    result = multistart_fit(matrix.scores, matrix.weights, qmat, config, starts=eff["starts"])
    mm = mastery(result.factors, model_ids=matrix.model_ids, concept_ids=concept_ids)
    predicted = predict_scores(result.factors)
    report = reconstruction_metrics(predicted.values, matrix.scores, matrix.weights)
    out = _out_dir(eff)
    save_factors(
        result.factors, out,
        item_ids=matrix.item_ids, model_ids=matrix.model_ids, concept_ids=concept_ids,
    )
    save_mastery(mm, out)
    write_json(out / "reconstruction.json", asdict(report))
    save_fit_bundle(result, predicted, out)
    auc_text = "absent" if report.auc is None else f"{report.auc:.4f}"
    print(
        f"fit seed={result.seed} objective={result.objective:.6g} "
        f"converged={result.converged} auc={auc_text} rmse={report.rmse:.4f} -> {out}"
    )
    return inputs


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

DIAGNOSE_OPTIONS = (
    Option("mastery", str, help="path to a mastery.json bundle", required=True),
    Option("threshold", float, 0.9),
    Option("clusters", int, 2),
    Option("out", str, "diagnose_out"),
)


def cmd_diagnose(eff: dict) -> list[str]:
    mm = load_mastery(eff["mastery"])
    if not mm.n_concepts:
        raise ValidationError(f"{eff['mastery']}: no concepts to diagnose")
    # Everything that can fail runs before --out is touched, so a failed run
    # leaves no partial outputs.
    counts = concept_counts(mm, threshold=eff["threshold"])
    table = render_concept_table(counts)
    svg = render_svg(mm)
    try:
        clusters = cluster_models(mm, n_clusters=eff["clusters"])
        clusters_doc = asdict(clusters)
    except DegenerateDataError as exc:
        log.warning("clustering skipped: %s", exc)
        clusters_doc = {"skipped": str(exc)}

    out = _out_dir(eff)
    with open(out / "concept_counts.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "mastered_count", "total", "mean_score"])
        for row in counts:
            writer.writerow([row.model_id, row.mastered_count, row.total, repr(row.mean_score)])
    (out / "concept_counts.txt").write_text(table, encoding="utf-8")
    save_matrix_csv(mm.prob, mm.model_ids, mm.concept_ids, out / "heatmap.csv", corner="model_id")
    (out / "heatmap.svg").write_text(svg, encoding="utf-8")
    write_json(out / "clusters.json", clusters_doc)
    print(f"diagnosed {mm.n_models} models over {mm.n_concepts} concepts -> {out}")
    return [eff["mastery"]]


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

AGREEMENT_OPTIONS = (
    Option("annotations", str, required=True),
    Option("distance", str, "nominal", choices=tuple(DISTANCES)),
    Option("out", str, "agreement_out"),
)


def _load_annotations(path: str, distance: str) -> list[list[object]]:
    with open_text(path) as fh:
        reader = csv.reader(fh)
        rows = []
        for row in reader:
            if rows and len(row) > len(rows[0]):
                raise FormatError(
                    f"{path}:{reader.line_num}: {len(row)} cells but the header "
                    f"has {len(rows[0])}"
                )
            rows.append(row)
    if len(rows) < 2:
        raise FormatError(f"{path}: need a header row and at least one unit")
    try:
        checked_ids((row[0] for row in rows[1:] if row), "unit")
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None
    table: list[list[object]] = []
    for row in rows[1:]:
        unit: list[object] = []
        for cell in row[1:]:
            cell = cell.strip()
            label = (frozenset(part.strip() for part in cell.split(";")) - {""}
                     if distance == "jaccard" else cell)
            # An empty cell, or a Jaccard cell of separators only, is missing.
            unit.append(label or None)
        table.append(unit)
    return table


def cmd_agreement(eff: dict) -> list[str]:
    table = _load_annotations(eff["annotations"], eff["distance"])
    with naming(eff["annotations"]):
        report = krippendorff_alpha(table, distance=eff["distance"])
    out = _out_dir(eff)
    write_json(out / "agreement.json", asdict(report))
    print(f"alpha={report.krippendorff_alpha:.4f} over {report.n_units} units -> {out}")
    return [eff["annotations"]]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_OPTIONS = (
    *(o for o in FIT_OPTIONS if o.key in ("scores", "weights", "qmatrix")),
    Option("skills_grid", str, "4,8,16,32"),
    Option("q_weight_grid", str, repr(McfConfig.q_weight)),
    *(o for o in FIT_OPTIONS if o.key in ("max_iters", "tol", "seed")),
    Option("starts", int, 1),
    Option("out", str, "sweep_out"),
)


def _parse_grid(text: str, flag: str, field: str) -> list:
    """Comma-separated values of McfConfig's ``field``.  A token its type cannot
    parse or McfConfig refuses, or a value given twice (``2,2``, or ``1,1.0`` as
    floats), is a usage error naming ``flag``: each grid point is fitted once."""
    kind = type(getattr(McfConfig, field))
    values = []
    for token in text.split(","):
        if token:
            try:
                value = kind(token)
                McfConfig(**{field: value})
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{flag}: {token!r}: {exc}") from None
            if value in values:
                raise ValidationError(f"{flag}: {value!r} is given twice")
            values.append(value)
    return values


def cmd_sweep(eff: dict) -> list[str]:
    skills_grid = _parse_grid(eff["skills_grid"], "--skills-grid", "n_skills")
    q_weight_grid = _parse_grid(eff["q_weight_grid"], "--q-weight-grid", "q_weight")
    if not skills_grid or not q_weight_grid:
        raise ValidationError("empty sweep grid")
    configs = [
        McfConfig(n_skills=n_skills, q_weight=q_weight, **_fields(SWEEP_OPTIONS, eff))
        for n_skills in skills_grid
        for q_weight in q_weight_grid
    ]
    matrix, qmat, _, inputs = _load_fit_inputs(eff)
    lines = ["n_skills,q_weight,objective,iterations,converged,accuracy,auc,rmse"]
    for config in configs:
        result = multistart_fit(matrix.scores, matrix.weights, qmat, config, starts=eff["starts"])
        predicted = predict_scores(result.factors)
        report = reconstruction_metrics(predicted.values, matrix.scores, matrix.weights)
        auc_text = "" if report.auc is None else repr(report.auc)
        lines.append(
            f"{config.n_skills},{repr(config.q_weight)},{repr(result.objective)},"
            f"{result.iterations_run},{result.converged},"
            f"{repr(report.accuracy)},{auc_text},{repr(report.rmse)}"
        )
    out = _out_dir(eff)
    (out / "sweep.csv").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"swept {len(skills_grid)}x{len(q_weight_grid)} grid -> {out}")
    return inputs


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

COMMANDS = {
    "simulate": ("draw a planted-truth synthetic world", SIMULATE_OPTIONS, cmd_simulate),
    "grade": ("grade response logs against an item bank", GRADE_OPTIONS, cmd_grade),
    "fit": ("fit the co-factorization and export mastery", FIT_OPTIONS, cmd_fit),
    "diagnose": ("rankings, heatmap, clusters from mastery", DIAGNOSE_OPTIONS, cmd_diagnose),
    "agreement": ("Krippendorff alpha over an annotation CSV", AGREEMENT_OPTIONS, cmd_agreement),
    "sweep": ("grid over skill count and tag weight", SWEEP_OPTIONS, cmd_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdmkit",
        description="Knowledge-mastery diagnosis: simulate, grade, fit, diagnose.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option defaults")
        for option in options:
            option.add_to(p)
        p.set_defaults(func=func, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The default format is the bare message, so each record is one line.
    records = logging.StreamHandler(io.StringIO())
    logging.getLogger("cdmkit").addHandler(records)
    try:
        eff = _effective(args)
        missing = [o.flag for o in args.options if o.required and not eff[o.key]]
        if missing:
            raise ValidationError(f"{args.command} requires {' and '.join(missing)}")
        inputs = args.func(eff)
        log_path = Path(eff["out"]) / "warnings.log"
        log_path.write_text(records.stream.getvalue(), encoding="utf-8")
        write_manifest(eff["out"], args.command, eff, inputs=inputs)
    except (FormatError, ValidationError, OSError) as exc:
        code, error = USAGE_ERROR, exc
    except (NumericalError, DegenerateDataError) as exc:
        code, error = RUNTIME_ERROR, exc
    else:
        n_records = len(records.stream.getvalue().splitlines())
        if n_records:
            print(f"{n_records} warnings -> {log_path}", file=sys.stderr)
        return 0
    finally:
        logging.getLogger("cdmkit").removeHandler(records)
    print(f"{records.stream.getvalue()}error: {error}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
