"""Output checks and quality figures, computed from outside on the files cdmkit wrote."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import worlds

EXPECTED_FILES = {
    "simulate": ("bank.json", "scores.csv", "weights.csv", "qmatrix.csv", "truth.json"),
    "grade": ("scores.csv", "weights.csv", "warnings.log"),
    "fit": ("factor_item_skill.csv", "factor_skill_model.csv", "factor_skill_concept.csv",
            "mastery_raw.csv", "mastery_prob.csv", "mastery.json", "reconstruction.json",
            "trace.csv", "fit.json"),
    "diagnose": ("concept_counts.csv", "concept_counts.txt", "heatmap.csv", "heatmap.svg",
                 "clusters.json"),
    "sweep": ("sweep.csv",),
    "agreement": ("agreement.json",),
}
# Gate 3 allows objective steps up to this size (float rounding); so does trace.csv.
MONOTONE_SLACK = 1e-9
GATE_MAX_RMSE = 0.30   # gate 1
GATE_MIN_AUC = 0.95    # gate 1
GATE_MIN_RHO = 0.9     # gate 2


def read_matrix(path: Path) -> tuple[np.ndarray, list[str], list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    values = np.array([[float(v) for v in row[1:]] for row in rows[1:]], dtype=np.float64)
    return values, [row[0] for row in rows[1:]], rows[0][1:]


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def missing_files(stage: str, digests: dict[str, str]) -> list[str]:
    return [name for name in (*EXPECTED_FILES[stage], "manifest.json") if name not in digests]


def check_stage(stage: str, out: Path, workload: str, expect: dict) -> list[str]:
    """Problems found in one command's outputs; an empty list means they pass."""
    try:
        return _check_stage(stage, out, workload, expect)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{stage}: unreadable output ({exc!r})"]


def _check_stage(stage: str, out: Path, workload: str, expect: dict) -> list[str]:
    problems = []
    if _json(out / "manifest.json").get("command") != stage:
        problems.append(f"{stage}: manifest names another command")
    if stage == "simulate":
        qmat, _, _ = read_matrix(out / "qmatrix.csv")
        if not np.isin(qmat, (0.0, 1.0)).all() or qmat.sum(axis=1).min() < 1:
            problems.append("simulate: qmatrix is not binary with a tag on every item")
    elif stage == "grade":
        scores, items, models = read_matrix(out / "scores.csv")
        weights, _, _ = read_matrix(out / "weights.csv")
        if items != expect["item_ids"] or models != expect["model_ids"]:
            problems.append("grade: item or model ids differ from the bank and logs")
        elif not (np.array_equal(scores, expect["scores"])
                  and np.array_equal(weights, expect["weights"])):
            problems.append("grade: scores or weights differ from the planted grades")
        warnings = (out / "warnings.log").read_text(encoding="utf-8").splitlines()
        if len(warnings) != expect["unparseable"]:
            problems.append(f"grade: {len(warnings)} warnings for "
                            f"{expect['unparseable']} unparseable outputs")
    elif stage == "fit":
        with open(out / "trace.csv", encoding="utf-8") as fh:
            trace = [float(line.split(",")[1]) for line in list(fh)[1:]]
        steps = np.diff(trace)
        if steps.size and steps.max() > MONOTONE_SLACK:
            problems.append(f"fit: objective rises by {float(steps.max())!r} in trace.csv")
        if _json(out / "fit.json")["iterations_run"] != len(trace) - 1:
            problems.append("fit: fit.json iterations disagree with trace.csv")
        prob = np.array(_json(out / "mastery.json")["prob"], dtype=np.float64)
        if not np.isfinite(prob).all() or prob.min() < 0 or prob.max() > 1:
            problems.append("fit: mastery prob outside [0, 1]")
        rmse = _json(out / "reconstruction.json")["rmse"]
        if not math.isfinite(rmse) or (workload == "gate" and rmse > GATE_MAX_RMSE):
            problems.append(f"fit: reconstruction rmse {rmse!r} above the gate-1 bound")
    elif stage == "diagnose":
        with open(out / "concept_counts.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        mastery = _json(out.parent / "fit" / "mastery.json")
        n_models, n_concepts = len(mastery["model_ids"]), len(mastery["concept_ids"])
        counts = [int(row[1]) for row in rows]
        if len(rows) != n_models or min(counts) < 0 or max(counts) > n_concepts:
            problems.append("diagnose: concept counts do not cover every model")
        svg = (out / "heatmap.svg").read_text(encoding="utf-8")
        if svg.count("<rect ") != n_models * n_concepts:
            problems.append("diagnose: heatmap does not have one cell per model and concept")
        assignments = _json(out / "clusters.json")["assignments"]
        if sorted(assignments) != sorted(mastery["model_ids"]):
            problems.append("diagnose: clusters do not assign every model")
    elif stage == "sweep":
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if [row[0] for row in rows] != worlds.GATE_SKILLS_GRID.split(","):
            problems.append("sweep: rows do not follow the skills grid")
        elif not all(math.isfinite(float(row[2])) for row in rows):
            problems.append("sweep: non-finite objective")
    elif stage == "agreement":
        report = _json(out / "agreement.json")
        alpha = report["krippendorff_alpha"]
        if not (math.isfinite(alpha) and -1.0 <= alpha <= 1.0):
            problems.append(f"agreement: alpha {alpha!r} outside [-1, 1]")
        if (report["n_units"], report["n_coders"]) != (expect["alpha_units"], expect["coders"]):
            problems.append("agreement: unit or coder count differs from the annotations")
    return problems


def mean_spearman(fitted: np.ndarray, planted: np.ndarray) -> float | None:
    """Mean per-model Spearman of fitted vs planted mastery rows (gate 2's score).

    Rows constant on either side have no rank correlation and are skipped,
    as in cdmkit.recovery_score.
    """
    from scipy.stats import spearmanr

    rhos = [spearmanr(a, b).statistic for a, b in zip(fitted, planted)
            if np.ptp(a) > 0 and np.ptp(b) > 0]
    return float(np.mean(rhos)) if rhos else None


def quality(workload: str, out: Path, expect: dict) -> dict:
    """Recovery, reconstruction and how informative the planted world is."""
    if workload == "leaderboard":
        p_response, qmat, p_mastery = expect["p_response"], expect["qmat"], expect["p_mastery"]
    else:
        truth = _json(out / "simulate" / "truth.json")
        p_response = np.array(truth["p_response"])
        p_mastery = np.array(truth["p_mastery"])
        qmat, _, _ = read_matrix(out / "simulate" / "qmatrix.csv")
    # The raw factor product ranks as every normalization of it does.
    fitted = np.array(_json(out / "fit" / "mastery.json")["raw"], dtype=np.float64)
    recon = _json(out / "fit" / "reconstruction.json")
    figures = {
        "recovery_rho": mean_spearman(fitted, p_mastery),
        "recon_auc": recon["auc"],
        "recon_rmse": recon["rmse"],
        "world_tags_per_item": float(qmat.sum(axis=1).mean()),
        "world_concepts": int(qmat.shape[1]),
        "world_cells_p_below_half": int((p_response < 0.5).sum()),
        "world_cells": int(p_response.size),
    }
    if workload == "gate":
        auc = figures["recon_auc"]
        figures["gate_auc_met"] = auc is not None and auc >= GATE_MIN_AUC
        rho = figures["recovery_rho"]
        figures["gate_rho_met"] = rho is not None and rho >= GATE_MIN_RHO
    return figures
