"""Weighted non-negative co-factorization of scores and tags over shared item factors.

Two reconstructions are fit jointly: the observed score matrix as
``item_skill @ skill_model`` and the binary tag (Q) matrix as
``item_skill @ skill_concept``, sharing the item-side factor.  The product
``skill_modelᵀ @ skill_concept`` is the model-by-concept mastery estimate the
rest of the toolkit consumes.

The objective is

    ||weights ∘ (scores − item_skill @ skill_model)||²_F
      + q_weight · ||qmat − item_skill @ skill_concept||²_F
      + ridge_item·||item_skill||² + ridge_model·||skill_model||²
      + ridge_concept·||skill_concept||²

minimized by multiplicative updates (Lee & Seung 2001), which keep every
factor non-negative by construction and never increase the objective.  Both
properties are checked at runtime on every iteration, as is finiteness.

Each iteration updates E = item_skill, then U = skill_model, then
V = skill_concept, and evaluates the objective for the stop rule.  The
iteration kernel avoids repeated work:

- ``weights² ∘ scores`` is formed once per fit;
- ``E @ U`` is formed once after each change of E or U, and the product after
  the U update serves both the objective and the next E update;
- the tag term never forms an items×concepts residual.  The E update uses
  ``E (V Vᵀ)`` and the V update ``(EᵀE) V``, and the objective uses the Gram
  identity ``‖Q − EV‖² = ‖Q‖² − 2⟨EᵀQ, V⟩ + ⟨EᵀE, VVᵀ⟩`` with the ``EᵀQ``
  and ``EᵀE`` of the V update.

:func:`objective` evaluates the same loss kernel from freshly formed
products.  :func:`objective_gradients` keeps the direct residual form, so the
gradient check compares the kernel against an independent formula.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, NumericalError, ValidationError
from .manifest import write_json
from .responses import load_matrix_csv, save_matrix_csv

log = logging.getLogger(__name__)

NORMALIZATIONS = ("clip", "minmax_global", "minmax_per_concept")
INITS = ("gamma_prior", "uniform")


@dataclass(frozen=True)
class McfConfig:
    """Solver hyperparameters; defaults are the documented baseline."""

    n_skills: int = 16
    q_weight: float = 1.0
    ridge_item: float = 0.01
    ridge_model: float = 0.01
    ridge_concept: float = 0.01
    max_iters: int = 2000
    tol: float = 1e-6
    epsilon: float = 1e-12
    seed: int = 0
    init: str = "gamma_prior"
    init_gamma_item: tuple[float, float] = (1.0, 1.0)
    init_gamma_model: tuple[float, float] = (1.0, 1.0)
    init_gamma_concept: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.n_skills < 1:
            raise ValidationError("n_skills must be >= 1")
        # The comparisons are written so that NaN, which fails them all, is rejected.
        for name in ("q_weight", "ridge_item", "ridge_model", "ridge_concept"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be >= 0")
        for name in ("tol", "epsilon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and > 0")
        if self.init not in INITS:
            raise ValidationError(f"unknown init mode {self.init!r}")
        for name in ("init_gamma_item", "init_gamma_model", "init_gamma_concept"):
            if not all(0 < x < math.inf for x in getattr(self, name)):
                raise ValidationError(f"{name} must be finite and > 0 (shape and rate)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "McfConfig":
        kw = dict(d)
        for name in ("init_gamma_item", "init_gamma_model", "init_gamma_concept"):
            if name in kw:
                kw[name] = tuple(kw[name])
        return cls(**kw)


@dataclass(frozen=True)
class FactorSet:
    """The three latent matrices: items×skills, skills×models, skills×concepts."""

    item_skill: NDArray[np.float64]
    skill_model: NDArray[np.float64]
    skill_concept: NDArray[np.float64]

    def __post_init__(self) -> None:
        e, u, v = self.item_skill, self.skill_model, self.skill_concept
        if e.ndim != 2 or u.ndim != 2 or v.ndim != 2:
            raise DimensionError("factors must be 2-D")
        if not (e.shape[1] == u.shape[0] == v.shape[0]):
            raise DimensionError(
                f"skill axes disagree: {e.shape}, {u.shape}, {v.shape}"
            )
        for name, m in (("item_skill", e), ("skill_model", u), ("skill_concept", v)):
            if not np.isfinite(m).all():
                raise NumericalError(f"{name} contains NaN/Inf")
            if m.size and m.min() < 0:
                raise ValidationError(f"{name} has negative entries")

    @property
    def n_items(self) -> int:
        return self.item_skill.shape[0]

    @property
    def n_skills(self) -> int:
        return self.item_skill.shape[1]

    @property
    def n_models(self) -> int:
        return self.skill_model.shape[1]

    @property
    def n_concepts(self) -> int:
        return self.skill_concept.shape[1]


@dataclass(frozen=True)
class FitResult:
    factors: FactorSet
    objective_trace: tuple[float, ...]
    iterations_run: int
    converged: bool
    seed: int

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


@dataclass(frozen=True)
class PredictedScores:
    values: NDArray[np.float64]
    n_clipped: int


@dataclass(frozen=True)
class MasteryMatrix:
    """Model-by-concept mastery: the raw factor product and a [0,1] view."""

    raw: NDArray[np.float64]
    prob: NDArray[np.float64]
    normalization: str
    model_ids: tuple[str, ...]
    concept_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.normalization not in NORMALIZATIONS:
            raise ValidationError(f"unknown normalization {self.normalization!r}")
        if self.raw.shape != self.prob.shape:
            raise DimensionError("raw/prob shape mismatch")
        if self.raw.shape != (len(self.model_ids), len(self.concept_ids)):
            raise DimensionError("mastery shape does not match id lists")
        for name, m in (("raw", self.raw), ("prob", self.prob)):
            if not np.isfinite(m).all():
                raise ValidationError(f"mastery {name} entries must be finite")
        if self.prob.size and (self.prob.min() < 0 or self.prob.max() > 1):
            raise ValidationError("prob entries outside [0, 1]")

    @property
    def n_models(self) -> int:
        return len(self.model_ids)

    @property
    def n_concepts(self) -> int:
        return len(self.concept_ids)


# ---------------------------------------------------------------------------
# Objective and gradients
# ---------------------------------------------------------------------------

def _check_problem(
    scores: NDArray[np.float64],
    weights: NDArray[np.float64],
    qmat: NDArray[np.float64],
) -> None:
    if scores.ndim != 2 or weights.ndim != 2 or qmat.ndim != 2:
        raise DimensionError("scores, weights, qmat must be 2-D")
    if scores.shape != weights.shape:
        raise DimensionError(f"scores {scores.shape} vs weights {weights.shape}")
    if qmat.shape[0] != scores.shape[0]:
        raise DimensionError(
            f"qmat has {qmat.shape[0]} rows but scores has {scores.shape[0]}"
        )


def _loss(
    eu: NDArray[np.float64],
    ete: NDArray[np.float64],
    etq: NDArray[np.float64],
    vvt: NDArray[np.float64],
    u: NDArray[np.float64],
    v: NDArray[np.float64],
    scores: NDArray[np.float64],
    weights: NDArray[np.float64],
    q_sq: float,
    config: McfConfig,
) -> float:
    """The objective from the products a multiplicative step already holds.

    ``eu = E@U``, ``ete = EᵀE``, ``etq = EᵀQ``, ``vvt = VVᵀ`` and
    ``q_sq = ‖Q‖²``.  The weighted term is the direct residual; the tag term
    is ``‖Q‖² − 2⟨EᵀQ,V⟩ + ⟨EᵀE,VVᵀ⟩`` and the item and concept ridges are
    the traces of the two Gram matrices.
    """
    r = scores - eu
    r *= weights
    return float(
        np.vdot(r, r)
        + config.q_weight * (q_sq - 2.0 * np.vdot(etq, v) + np.vdot(ete, vvt))
        + config.ridge_item * np.trace(ete)
        + config.ridge_model * np.vdot(u, u)
        + config.ridge_concept * np.trace(vvt)
    )


def objective(
    factors: FactorSet,
    scores: NDArray[np.float64],
    weights: NDArray[np.float64],
    qmat: NDArray[np.float64],
    config: McfConfig,
) -> float:
    """The fitted loss, computed in double precision by the kernel ``fit`` uses."""
    _check_problem(scores, weights, qmat)
    e, u, v = factors.item_skill, factors.skill_model, factors.skill_concept
    return _loss(
        e @ u, e.T @ e, e.T @ qmat, v @ v.T, u, v,
        scores, weights, float(np.vdot(qmat, qmat)), config,
    )


def objective_gradients(
    factors: FactorSet,
    scores: NDArray[np.float64],
    weights: NDArray[np.float64],
    qmat: NDArray[np.float64],
    config: McfConfig,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Analytic gradients of the objective w.r.t. each factor.

    These justify the multiplicative rules (each rule is gradient descent with
    a positive per-entry step size) and are verified against central finite
    differences in the test suite.
    """
    _check_problem(scores, weights, qmat)
    e, u, v = factors.item_skill, factors.skill_model, factors.skill_concept
    w2 = weights * weights
    res_x = w2 * (scores - e @ u)
    res_q = qmat - e @ v
    grad_e = -2.0 * (res_x @ u.T) - 2.0 * config.q_weight * (res_q @ v.T) + 2.0 * config.ridge_item * e
    grad_u = -2.0 * (e.T @ res_x) + 2.0 * config.ridge_model * u
    grad_v = -2.0 * config.q_weight * (e.T @ res_q) + 2.0 * config.ridge_concept * v
    return grad_e, grad_u, grad_v


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _init_factors(
    n_items: int, n_models: int, n_concepts: int, config: McfConfig
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    rng = np.random.default_rng(config.seed)
    t = config.n_skills
    if config.init == "gamma_prior":
        sa, ra = config.init_gamma_item
        sc, rc = config.init_gamma_model
        se, re_ = config.init_gamma_concept
        e = rng.gamma(sa, 1.0 / ra, (n_items, t))
        u = rng.gamma(sc, 1.0 / rc, (t, n_models))
        v = rng.gamma(se, 1.0 / re_, (t, n_concepts))
    else:  # uniform over (0, 1]
        e = 1.0 - rng.random((n_items, t))
        u = 1.0 - rng.random((t, n_models))
        v = 1.0 - rng.random((t, n_concepts))
    return e, u, v


def fit(
    scores: NDArray[np.float64],
    weights: NDArray[np.float64],
    qmat: NDArray[np.float64],
    config: McfConfig,
) -> FitResult:
    """Run multiplicative updates from a seeded start until converged.

    Deterministic given the config seed.  The returned trace starts with the
    objective at initialization, so ``max_iters=0`` yields a length-1 trace.
    """
    scores = np.asarray(scores, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    qmat = np.asarray(qmat, dtype=np.float64)
    _check_problem(scores, weights, qmat)
    for name, m in (("scores", scores), ("weights", weights)):
        # Written so that NaN, which fails every comparison, is rejected too.
        if m.size and not (m.min() >= 0 and m.max() <= 1):
            raise ValidationError(f"{name} must be finite and within [0, 1]")
    if not np.all((qmat == 0) | (qmat == 1)):
        raise ValidationError("qmat must be binary")
    if not np.any(weights > 0):
        raise ValidationError("all weights are zero: nothing observed")

    n_items, n_models = scores.shape
    n_concepts = qmat.shape[1]
    beta = config.q_weight
    le, lu, lv = config.ridge_item, config.ridge_model, config.ridge_concept
    eps = config.epsilon

    e, u, v = _init_factors(n_items, n_models, n_concepts, config)
    w2 = weights * weights
    w2x = w2 * scores
    q_sq = float(np.vdot(qmat, qmat))

    # At the top of every iteration eu = E@U and vvt = VVᵀ for the current factors.
    eu = e @ u
    vvt = v @ v.T
    trace = [_loss(eu, e.T @ e, e.T @ qmat, vvt, u, v, scores, weights, q_sq, config)]
    converged = False
    iterations = 0
    for it in range(config.max_iters):
        e = e * ((w2x @ u.T + beta * (qmat @ v.T)) /
                 ((w2 * eu) @ u.T + beta * (e @ vvt) + le * e + eps))
        eu = e @ u
        u = u * ((e.T @ w2x) / (e.T @ (w2 * eu) + lu * u + eps))
        ete = e.T @ e
        etq = e.T @ qmat
        v = v * ((beta * etq) / (beta * (ete @ v) + lv * v + eps))
        for name, m in (("item", e), ("model", u), ("concept", v)):
            if not np.isfinite(m).all():
                raise NumericalError(f"non-finite {name} factor at iteration {it}")
            if m.min() < 0:
                raise NumericalError(f"negative {name} factor at iteration {it}")
        eu = e @ u
        vvt = v @ v.T
        val = _loss(eu, ete, etq, vvt, u, v, scores, weights, q_sq, config)
        iterations = it + 1
        trace.append(val)
        if trace[-2] - val < config.tol * abs(trace[-2]):
            converged = True
            break

    return FitResult(
        factors=FactorSet(e, u, v),
        objective_trace=tuple(trace),
        iterations_run=iterations,
        converged=converged,
        seed=config.seed,
    )


def multistart_fit(
    scores: NDArray[np.float64],
    weights: NDArray[np.float64],
    qmat: NDArray[np.float64],
    config: McfConfig,
    starts: int = 8,
) -> FitResult:
    """Fit from ``starts`` consecutive seeds and keep the lowest objective.

    Ties go to the earliest seed, so the result does not depend on any
    execution schedule.
    """
    if starts < 1:
        raise ValidationError("starts must be >= 1")
    best: FitResult | None = None
    for offset in range(starts):
        result = fit(scores, weights, qmat, replace(config, seed=config.seed + offset))
        if best is None or result.objective < best.objective:
            best = result
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Derived outputs
# ---------------------------------------------------------------------------

def predict_scores(factors: FactorSet) -> PredictedScores:
    """Reconstructed score matrix, clipped into [0, 1]."""
    product = factors.item_skill @ factors.skill_model
    n_clipped = int((product > 1.0).sum() + (product < 0.0).sum())
    return PredictedScores(values=np.clip(product, 0.0, 1.0), n_clipped=n_clipped)


def _default_ids(prefix: str, n: int) -> tuple[str, ...]:
    width = len(str(max(n - 1, 0)))
    return tuple(f"{prefix}_{i:0{width}d}" for i in range(n))


def mastery(
    factors: FactorSet,
    normalization: str = "clip",
    model_ids: tuple[str, ...] | None = None,
    concept_ids: tuple[str, ...] | None = None,
) -> MasteryMatrix:
    """Model-by-concept mastery from the fitted factors.

    ``raw`` is the exact factor product; ``prob`` maps it into [0,1] under the
    chosen mode: "clip" caps at 1, "minmax_global" rescales by the matrix-wide
    range, "minmax_per_concept" rescales each column.  clip and minmax_global
    preserve each row's argmax.
    """
    if normalization not in NORMALIZATIONS:
        raise ValidationError(f"unknown normalization {normalization!r}")
    raw = factors.skill_model.T @ factors.skill_concept
    if normalization == "clip":
        prob = np.minimum(raw, 1.0)
    elif normalization == "minmax_global":
        lo, hi = float(raw.min()), float(raw.max())
        if hi - lo <= 0:
            log.warning("constant mastery matrix; minmax maps all entries to 0")
            prob = np.zeros_like(raw)
        else:
            prob = (raw - lo) / (hi - lo)
    else:
        prob = np.zeros_like(raw)
        for k in range(raw.shape[1]):
            col = raw[:, k]
            lo, hi = float(col.min()), float(col.max())
            if hi - lo <= 0:
                log.warning("constant mastery column %d; minmax maps it to 0", k)
            else:
                prob[:, k] = (col - lo) / (hi - lo)
    n_models, n_concepts = raw.shape
    return MasteryMatrix(
        raw=raw,
        prob=prob,
        normalization=normalization,
        model_ids=model_ids or _default_ids("model", n_models),
        concept_ids=concept_ids or _default_ids("concept", n_concepts),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_factors(
    factors: FactorSet,
    out_dir: str | Path,
    item_ids: tuple[str, ...] | None = None,
    model_ids: tuple[str, ...] | None = None,
    concept_ids: tuple[str, ...] | None = None,
) -> list[Path]:
    """Write one CSV per factor matrix; returns the paths written."""
    out_dir = Path(out_dir)
    item_ids = item_ids or _default_ids("item", factors.n_items)
    model_ids = model_ids or _default_ids("model", factors.n_models)
    concept_ids = concept_ids or _default_ids("concept", factors.n_concepts)
    skill_ids = _default_ids("skill", factors.n_skills)
    paths = []
    for name, matrix, rows, cols in (
        ("factor_item_skill.csv", factors.item_skill, item_ids, skill_ids),
        ("factor_skill_model.csv", factors.skill_model, skill_ids, model_ids),
        ("factor_skill_concept.csv", factors.skill_concept, skill_ids, concept_ids),
    ):
        path = out_dir / name
        save_matrix_csv(matrix, rows, cols, path)
        paths.append(path)
    return paths


def load_factors(out_dir: str | Path) -> FactorSet:
    out_dir = Path(out_dir)
    e, _, _ = load_matrix_csv(out_dir / "factor_item_skill.csv")
    u, _, _ = load_matrix_csv(out_dir / "factor_skill_model.csv")
    v, _, _ = load_matrix_csv(out_dir / "factor_skill_concept.csv")
    return FactorSet(e, u, v)


def save_fit_bundle(
    result: FitResult, config: McfConfig, path: str | Path
) -> None:
    """JSON sidecar for a fit: config, trace, convergence, clip diagnostics."""
    predicted = predict_scores(result.factors)
    payload = {
        "config": config.to_dict(),
        "seed": result.seed,
        "iterations_run": result.iterations_run,
        "converged": result.converged,
        "objective_trace": list(result.objective_trace),
        "clipped_prediction_cells": predicted.n_clipped,
    }
    write_json(path, payload)


def save_mastery(m: MasteryMatrix, out_dir: str | Path) -> list[Path]:
    """Write mastery CSVs plus a JSON bundle carrying the normalization tag."""
    out_dir = Path(out_dir)
    raw_path = out_dir / "mastery_raw.csv"
    prob_path = out_dir / "mastery_prob.csv"
    save_matrix_csv(m.raw, m.model_ids, m.concept_ids, raw_path, corner="model_id")
    save_matrix_csv(m.prob, m.model_ids, m.concept_ids, prob_path, corner="model_id")
    bundle = out_dir / "mastery.json"
    payload = {
        "format_version": 1,
        "normalization": m.normalization,
        "model_ids": list(m.model_ids),
        "concept_ids": list(m.concept_ids),
        "raw": [[float(x) for x in row] for row in m.raw],
        "prob": [[float(x) for x in row] for row in m.prob],
    }
    write_json(bundle, payload)
    return [raw_path, prob_path, bundle]


def load_mastery(path: str | Path) -> MasteryMatrix:
    """Read a mastery JSON bundle (as written by :func:`save_mastery`).

    A missing or malformed field, or a bundle ``MasteryMatrix`` rejects (for
    example a non-finite entry), raises ``ValidationError`` naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    norm = payload.get("normalization")
    if norm not in NORMALIZATIONS:
        raise ValidationError(f"{path}: unknown normalization tag {norm!r}")

    def matrix(rows) -> NDArray[np.float64]:
        return np.array([[float(x) for x in row] for row in rows], dtype=np.float64)

    fields = {}
    for name, convert in (
        ("raw", matrix), ("prob", matrix), ("model_ids", tuple), ("concept_ids", tuple)
    ):
        if name not in payload:
            raise ValidationError(f"{path}: missing field {name!r}")
        try:
            fields[name] = convert(payload[name])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed field {name!r} ({exc})") from exc
    try:
        return MasteryMatrix(normalization=norm, **fields)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
