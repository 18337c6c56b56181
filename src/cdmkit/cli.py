"""Command-line pipeline: simulate, grade, fit, diagnose, agreement, sweep.

Contract for scripting: exit 0 on success, 1 on numerical/degenerate-data
failures, 2 on usage or input errors.  Identical inputs, flags, and seed
produce numerically identical output files; only the manifest timestamp may
differ between reruns.  Option precedence: command-line flags beat the
--config file, which beats built-in defaults; the effective configuration is
echoed into the manifest.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bank import load_item_bank
from .errors import (
    DegenerateDataError,
    DimensionError,
    FormatError,
    NumericalError,
    ValidationError,
)
from .grading import get_rule
from .heatmap import grid_from_mastery, render_svg, save_heatmap_csv
from .manifest import write_manifest
from .metrics import (
    cluster_models,
    concept_counts,
    krippendorff_alpha,
    reconstruction_metrics,
    render_concept_table,
)
from .responses import (
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


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults; returns the effective option dict."""
    effective = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            payload = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{config_path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise FormatError(f"{config_path}: config file must hold a JSON object")
        unknown = sorted(set(payload) - set(defaults))
        if unknown:
            raise FormatError(f"{config_path}: unknown config keys {unknown}")
        effective.update(payload)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    return effective


def _out_dir(effective: dict) -> Path:
    out = Path(effective["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_DEFAULTS: dict = {
    "items": 210,
    "models": 30,
    "concepts": 70,
    "skills": 5,
    "seed": 0,
    "q_mode": "threshold",
    "q_threshold": 0.92,
    "response_mode": "mean",
    "repeats": 10,
    "gamma_item": list(SimConfig.__dataclass_fields__["gamma_item"].default),
    "gamma_model": list(SimConfig.__dataclass_fields__["gamma_model"].default),
    "gamma_concept": list(SimConfig.__dataclass_fields__["gamma_concept"].default),
    "out": "sim_out",
}


def cmd_simulate(args: argparse.Namespace) -> int:
    eff = _merge_config(args, SIMULATE_DEFAULTS)
    config = SimConfig(
        n_items=int(eff["items"]),
        n_models=int(eff["models"]),
        n_concepts=int(eff["concepts"]),
        n_skills=int(eff["skills"]),
        seed=int(eff["seed"]),
        gamma_item=tuple(eff["gamma_item"]),
        gamma_model=tuple(eff["gamma_model"]),
        gamma_concept=tuple(eff["gamma_concept"]),
        q_mode=eff["q_mode"],
        q_threshold=float(eff["q_threshold"]),
        response_mode=eff["response_mode"],
        repeats=int(eff["repeats"]),
    )
    out = _out_dir(eff)
    sim = simulate(config)
    save_sim_output(sim, out)
    write_manifest(out, "simulate", eff, inputs=[], seed=config.seed)
    print(f"simulated {config.n_items}x{config.n_models} world -> {out}")
    return 0


# ---------------------------------------------------------------------------
# grade
# ---------------------------------------------------------------------------

GRADE_DEFAULTS: dict = {
    "bank": None,
    "logs": None,
    "rule": "choice-letter",
    "repeats": 10,
    "out": "grade_out",
}


def cmd_grade(args: argparse.Namespace) -> int:
    eff = _merge_config(args, GRADE_DEFAULTS)
    if not eff["bank"] or not eff["logs"]:
        raise ValidationError("grade requires --bank and --logs")
    bank = load_item_bank(eff["bank"])
    log_paths = sorted(globmod.glob(eff["logs"]))
    if not log_paths:
        raise ValidationError(f"no response logs match {eff['logs']!r}")
    logs = []
    for path in log_paths:
        logs.extend(load_response_logs(path))
    rule = get_rule(eff["rule"])
    out = _out_dir(eff)

    # Capture grading warnings into a deterministic sidecar log.
    records: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda rec: records.append(rec.getMessage())  # type: ignore[method-assign]
    grading_logger = logging.getLogger("cdmkit.grading")
    grading_logger.addHandler(handler)
    try:
        matrix = aggregate(logs, bank, rule=rule, repeats=int(eff["repeats"]))
    finally:
        grading_logger.removeHandler(handler)

    save_response_matrix(matrix, out / "scores.csv", out / "weights.csv")
    (out / "warnings.log").write_text(
        "".join(line + "\n" for line in records), encoding="utf-8"
    )
    write_manifest(out, "grade", eff, inputs=[eff["bank"], *log_paths], seed=None)
    print(
        f"graded {len(matrix.item_ids)} items x {len(matrix.model_ids)} models "
        f"({len(records)} warnings) -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

FIT_DEFAULTS: dict = {
    "scores": None,
    "weights": None,
    "qmatrix": None,
    "skills": 16,
    "q_weight": 1.0,
    "ridge_item": 0.01,
    "ridge_model": 0.01,
    "ridge_concept": 0.01,
    "max_iters": 2000,
    "tol": 1e-6,
    "epsilon": 1e-12,
    "seed": 0,
    "starts": 8,
    "init": "gamma_prior",
    "normalization": "clip",
    "binarize_threshold": 0.5,
    "out": "fit_out",
}


def _load_fit_inputs(eff: dict):
    if not eff["scores"] or not eff["qmatrix"]:
        raise ValidationError("fit requires --scores and --qmatrix")
    matrix = load_response_matrix(eff["scores"], eff["weights"])
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
    return matrix, qmat, concept_ids


def cmd_fit(args: argparse.Namespace) -> int:
    eff = _merge_config(args, FIT_DEFAULTS)
    matrix, qmat, concept_ids = _load_fit_inputs(eff)
    config = McfConfig(
        n_skills=int(eff["skills"]),
        q_weight=float(eff["q_weight"]),
        ridge_item=float(eff["ridge_item"]),
        ridge_model=float(eff["ridge_model"]),
        ridge_concept=float(eff["ridge_concept"]),
        max_iters=int(eff["max_iters"]),
        tol=float(eff["tol"]),
        epsilon=float(eff["epsilon"]),
        seed=int(eff["seed"]),
        init=eff["init"],
    )
    result = multistart_fit(
        matrix.scores, matrix.weights, qmat, config, starts=int(eff["starts"])
    )
    out = _out_dir(eff)
    save_factors(
        result.factors, out,
        item_ids=matrix.item_ids, model_ids=matrix.model_ids, concept_ids=concept_ids,
    )
    mm = mastery(
        result.factors,
        normalization=eff["normalization"],
        model_ids=matrix.model_ids,
        concept_ids=concept_ids,
    )
    save_mastery(mm, out)
    predicted = predict_scores(result.factors)
    report = reconstruction_metrics(
        predicted.values, matrix.scores, matrix.weights,
        binarize_threshold=float(eff["binarize_threshold"]),
    )
    _write_json(out / "reconstruction.json", report.to_dict())
    with open(out / "trace.csv", "w", encoding="utf-8") as fh:
        fh.write("iteration,objective\n")
        for i, value in enumerate(result.objective_trace):
            fh.write(f"{i},{repr(value)}\n")
    save_fit_bundle(result, config, out / "fit.json")
    inputs = [eff["scores"], eff["qmatrix"]]
    if eff["weights"]:
        inputs.append(eff["weights"])
    write_manifest(out, "fit", eff, inputs=inputs, seed=config.seed)
    auc_text = "absent" if report.auc is None else f"{report.auc:.4f}"
    print(
        f"fit seed={result.seed} objective={result.objective:.6g} "
        f"converged={result.converged} auc={auc_text} rmse={report.rmse:.4f} -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

DIAGNOSE_DEFAULTS: dict = {
    "mastery": None,
    "threshold": 0.9,
    "clusters": 2,
    "out": "diagnose_out",
}


def cmd_diagnose(args: argparse.Namespace) -> int:
    eff = _merge_config(args, DIAGNOSE_DEFAULTS)
    if not eff["mastery"]:
        raise ValidationError("diagnose requires --mastery (a mastery.json bundle)")
    mm = load_mastery(eff["mastery"])
    out = _out_dir(eff)

    report = concept_counts(mm, threshold=float(eff["threshold"]))
    with open(out / "concept_counts.csv", "w", encoding="utf-8") as fh:
        fh.write("model_id,mastered_count,total,mean_score\n")
        for row in report.rows:
            fh.write(
                f"{row.model_id},{row.mastered_count},{row.total},{repr(row.mean_score)}\n"
            )
    (out / "concept_counts.txt").write_text(render_concept_table(report), encoding="utf-8")

    grid = grid_from_mastery(mm)
    save_heatmap_csv(grid, out / "heatmap.csv")
    (out / "heatmap.svg").write_text(render_svg(grid), encoding="utf-8")

    n_clusters = int(eff["clusters"])
    if mm.n_models < 2:
        print("clustering skipped: need at least 2 models")
        _write_json(out / "clusters.json", {"skipped": "need at least 2 models"})
    else:
        clusters = cluster_models(mm, n_clusters=n_clusters)
        _write_json(
            out / "clusters.json",
            {
                "n_clusters": n_clusters,
                "assignments": clusters.assignments,
                "merges": [[a, b, d] for a, b, d in clusters.merges],
                "excluded": list(clusters.excluded),
            },
        )
    write_manifest(out, "diagnose", eff, inputs=[eff["mastery"]], seed=None)
    print(f"diagnosed {mm.n_models} models over {mm.n_concepts} concepts -> {out}")
    return 0


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

AGREEMENT_DEFAULTS: dict = {
    "annotations": None,
    "distance": "nominal",
    "out": "agreement_out",
}


def _load_annotations(path: str, distance: str) -> list[list[object]]:
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise FormatError(f"{path}: need a header row and at least one unit")
    table: list[list[object]] = []
    for row in rows[1:]:
        unit: list[object] = []
        for cell in row[1:]:
            cell = cell.strip()
            if not cell:
                unit.append(None)
            elif distance == "jaccard":
                unit.append(frozenset(part for part in cell.split(";") if part))
            else:
                unit.append(cell)
        table.append(unit)
    return table


def cmd_agreement(args: argparse.Namespace) -> int:
    eff = _merge_config(args, AGREEMENT_DEFAULTS)
    if not eff["annotations"]:
        raise ValidationError("agreement requires --annotations")
    table = _load_annotations(eff["annotations"], eff["distance"])
    report = krippendorff_alpha(table, distance=eff["distance"])
    out = _out_dir(eff)
    _write_json(
        out / "agreement.json",
        {
            "krippendorff_alpha": report.krippendorff_alpha,
            "n_units": report.n_units,
            "n_coders": report.n_coders,
            "distance": report.distance,
        },
    )
    write_manifest(out, "agreement", eff, inputs=[eff["annotations"]], seed=None)
    print(f"alpha={report.krippendorff_alpha:.4f} over {report.n_units} units -> {out}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_DEFAULTS: dict = {
    "scores": None,
    "weights": None,
    "qmatrix": None,
    "skills_grid": "4,8,16,32",
    "q_weight_grid": "1.0",
    "max_iters": 2000,
    "tol": 1e-6,
    "seed": 0,
    "starts": 1,
    "out": "sweep_out",
}


def _parse_grid(text: object, flag: str, kind: type) -> list:
    """Comma-separated grid values; a token ``kind`` cannot parse is a usage error."""
    values = []
    for token in str(text).split(","):
        if token:
            try:
                values.append(kind(token))
            except ValueError:
                raise ValidationError(
                    f"{flag}: {token!r} is not a valid {kind.__name__}"
                ) from None
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    eff = _merge_config(args, SWEEP_DEFAULTS)
    skills_grid = _parse_grid(eff["skills_grid"], "--skills-grid", int)
    q_weight_grid = _parse_grid(eff["q_weight_grid"], "--q-weight-grid", float)
    if not skills_grid or not q_weight_grid:
        raise ValidationError("empty sweep grid")
    matrix, qmat, _ = _load_fit_inputs(eff)
    out = _out_dir(eff)
    lines = ["n_skills,q_weight,objective,iterations,converged,accuracy,auc,rmse"]
    for n_skills in skills_grid:
        for q_weight in q_weight_grid:
            config = McfConfig(
                n_skills=n_skills,
                q_weight=q_weight,
                max_iters=int(eff["max_iters"]),
                tol=float(eff["tol"]),
                seed=int(eff["seed"]),
            )
            result = multistart_fit(
                matrix.scores, matrix.weights, qmat, config, starts=int(eff["starts"])
            )
            predicted = predict_scores(result.factors)
            report = reconstruction_metrics(predicted.values, matrix.scores, matrix.weights)
            auc_text = "" if report.auc is None else repr(report.auc)
            lines.append(
                f"{n_skills},{repr(q_weight)},{repr(result.objective)},"
                f"{result.iterations_run},{result.converged},"
                f"{repr(report.accuracy)},{auc_text},{repr(report.rmse)}"
            )
    (out / "sweep.csv").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    inputs = [eff["scores"], eff["qmatrix"]]
    if eff["weights"]:
        inputs.append(eff["weights"])
    write_manifest(out, "sweep", eff, inputs=inputs, seed=int(eff["seed"]))
    print(f"swept {len(skills_grid)}x{len(q_weight_grid)} grid -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdmkit",
        description="Knowledge-mastery diagnosis: simulate, grade, fit, diagnose.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a planted-truth synthetic world")
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--items", "--m", type=int, dest="items")
    p.add_argument("--models", "--n", type=int, dest="models")
    p.add_argument("--concepts", "--k", type=int, dest="concepts")
    p.add_argument("--skills", "--t", type=int, dest="skills")
    p.add_argument("--seed", type=int)
    p.add_argument("--q-mode", choices=["threshold", "bernoulli"], dest="q_mode")
    p.add_argument("--q-threshold", type=float, dest="q_threshold")
    p.add_argument("--response-mode", choices=["mean", "bernoulli"], dest="response_mode")
    p.add_argument("--repeats", type=int)
    p.add_argument("--gamma-item", nargs=2, type=float, dest="gamma_item",
                   metavar=("SHAPE", "RATE"))
    p.add_argument("--gamma-model", nargs=2, type=float, dest="gamma_model",
                   metavar=("SHAPE", "RATE"))
    p.add_argument("--gamma-concept", nargs=2, type=float, dest="gamma_concept",
                   metavar=("SHAPE", "RATE"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("grade", help="grade response logs against an item bank")
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--bank")
    p.add_argument("--logs", help="glob of JSONL response logs")
    p.add_argument("--rule")
    p.add_argument("--repeats", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grade)

    p = sub.add_parser("fit", help="fit the co-factorization and export mastery")
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--scores")
    p.add_argument("--weights")
    p.add_argument("--qmatrix")
    p.add_argument("--skills", "--t", type=int, dest="skills")
    p.add_argument("--q-weight", type=float, dest="q_weight")
    p.add_argument("--ridge-item", type=float, dest="ridge_item")
    p.add_argument("--ridge-model", type=float, dest="ridge_model")
    p.add_argument("--ridge-concept", type=float, dest="ridge_concept")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tol", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--starts", type=int)
    p.add_argument("--init", choices=["gamma_prior", "uniform"])
    p.add_argument("--normalization", choices=["clip", "minmax_global", "minmax_per_concept"])
    p.add_argument("--binarize-threshold", type=float, dest="binarize_threshold")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnose", help="rankings, heatmap, clusters from mastery")
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--mastery", help="path to a mastery.json bundle")
    p.add_argument("--threshold", type=float)
    p.add_argument("--clusters", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("agreement", help="Krippendorff alpha over an annotation CSV")
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--annotations")
    p.add_argument("--distance", choices=["nominal", "jaccard"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("sweep", help="grid over skill count and tag weight")
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--scores")
    p.add_argument("--weights")
    p.add_argument("--qmatrix")
    p.add_argument("--skills-grid", dest="skills_grid")
    p.add_argument("--q-weight-grid", dest="q_weight_grid")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--starts", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except (FormatError, ValidationError, FileNotFoundError, IsADirectoryError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NumericalError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
