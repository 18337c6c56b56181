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

The two terms share the item factor E = item_skill, so the objective is one
weighted NMF of the stacked matrix ``[scores | qmat]`` (collective matrix
factorization, Singh & Gordon 2008).  Write X = scores, W = weights,
Q = qmat, β = q_weight, λ_E = ridge_item, U = skill_model, V = skill_concept,
``A = [W²∘X | βQ]`` and ``F = [U | V]``.  Each iteration makes two block
updates, E and then F, and evaluates the objective for the stop rule:

    E ← E ∘ (A Fᵀ) / ((W²∘EU) Uᵀ + E (βVVᵀ + λ_E I) + ε)
    F ← F ∘ (EᵀA) / ([Eᵀ(W²∘EU) | β EᵀE V] + ridge ∘ F + ε)

where ``ridge`` holds ``ridge_model`` for the columns of U and
``ridge_concept`` for those of V.  The F step is exactly the separate U and
V steps, both taken after the E step.  ``A`` and ``ridge`` are formed once
per fit, and U and V are views into F.  Neither residual matrix is ever
formed: expanding both squares gives the objective as

    Σ(W²∘X∘X) + β‖Q‖² − 2⟨EᵀA, F⟩ + ⟨W²∘EU, EU⟩ + ⟨EᵀE, βVVᵀ + λ_E I⟩
      + ⟨F, ridge ∘ F⟩

whose ``EᵀA`` and ``EᵀE`` are the F step's, and whose ``W²∘EU`` and
``βVVᵀ + λ_E I`` are carried into the next E step.  The first two terms are
a constant of the fit, which the weighted cross term cancels just as the tag
cross term cancels ``‖Q‖²``.  The rounding this costs stayed below 2e-14 of
the objective computed from explicit residuals, on gate-sized worlds at 5 and
32 skills and on a 3000 × 120 × 300 one: far below the stop rule's tolerance.

The stop rule: a fit stops, ``converged``, after the first iteration whose
objective falls by less than ``tol`` times the previous objective, and
otherwise after ``max_iters`` iterations.  The default ``tol`` is 1e-4, not
the customary 1e-6, because what the toolkit reports is the mastery ranking
and the reconstructed scores, and both settle long before the last digits of
the objective.  It was chosen on planted worlds the release gates do not use
(210 items × 30 models × 70 concepts, 8 starts each), varying only ``tol``.
"ρ" is the mean per-model Spearman correlation of the winning start's raw
mastery with the planted mastery:

======  =====  ============================  ==========================
skills  seeds  iterations, 1e-6 → 1e-4       ρ per world, 1e-6 → 1e-4
======  =====  ============================  ==========================
5       21–25  69,912 → 8,441 (8.3×)         .943 .959 .914 .943 .898
                                             → .945 .957 .949 .959 .909
8       21–23  48,000 → 8,318 (5.8×)         .888 .894 .931 → .888 .895 .923
16      21–23  48,000 → 27,167 (1.8×)        .728 .713 .742 → .726 .720 .745
======  =====  ============================  ==========================

Every start stopped on ``tol`` at 1e-4; at 1e-6 most ran into the
2000-iteration cap.  The winning start's reconstruction RMSE rose by 0.006
on one world (5 skills, seed 25) and by at most 0.002 on the others.  Rules
that were tried and rejected: the relative projected-gradient norm of Lin
(2007) stopped after a handful of iterations or never; a cap on the change
of the predicted scores never fired at 1e-4 and cost ranking quality at
1e-3; a cap on the relative change of ``UᵀV`` fired late, because that
product keeps drifting in scale after its ranks have settled.
``tol=1e-6`` reproduces the earlier default exactly.

:func:`objective` evaluates the same loss kernel from freshly formed
products.  :func:`objective_gradients` keeps the direct residual form, so the
gradient check compares the kernel against an independent formula.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, NumericalError, ValidationError
from .manifest import check_format_version, first_duplicate, naming, read_json, write_json
from .responses import load_matrix_csv, save_matrix_csv

log = logging.getLogger(__name__)

# Added to every multiplicative-update denominator so that none is zero.
EPSILON = 1e-12

# The mastery bundle's format; every bundle save_mastery has written carries 1.
MASTERY_FORMAT_VERSION = 1


@dataclass(frozen=True)
class McfConfig:
    """Solver hyperparameters; defaults are the documented baseline."""

    n_skills: int = 16
    q_weight: float = 1.0
    ridge_item: float = 0.01
    ridge_model: float = 0.01
    ridge_concept: float = 0.01
    max_iters: int = 2000
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_skills < 1:
            raise ValidationError("n_skills must be >= 1")
        # The comparisons are written so that NaN, which fails them all, is rejected.
        for name in ("q_weight", "ridge_item", "ridge_model", "ridge_concept"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be >= 0")
        if not 0 < self.tol < math.inf:
            raise ValidationError("tol must be finite and > 0")

    def to_dict(self) -> dict:
        return asdict(self)


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
    model_ids: tuple[str, ...]
    concept_ids: tuple[str, ...]

    def __post_init__(self) -> None:
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


def _stack(
    scores: NDArray[np.float64],
    weights: NDArray[np.float64],
    qmat: NDArray[np.float64],
    config: McfConfig,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], float]:
    """The fixed parts of the stacked problem: ``W²``, ``A``, the ridge row, the constant.

    ``A = [W²∘X | βQ]`` is the target of ``F = [U | V]``, the ridge row holds
    ``ridge_model`` for every column of U and ``ridge_concept`` for every
    column of V, and the constant is ``Σ(W²∘X∘X) + β‖Q‖²``.
    """
    n = scores.shape[1]
    w2 = weights * weights
    # A is filled in place, so that W²∘X and βQ are never arrays of their own.
    a = np.empty((scores.shape[0], n + qmat.shape[1]))
    w2x = np.multiply(w2, scores, out=a[:, :n])
    np.multiply(config.q_weight, qmat, out=a[:, n:])
    ridge = np.repeat(
        (config.ridge_model, config.ridge_concept), (scores.shape[1], qmat.shape[1])
    )
    const = float(np.vdot(w2x, scores)) + config.q_weight * float(np.vdot(qmat, qmat))
    return w2, a, ridge, const


def _loss(
    const: float,
    eta: NDArray[np.float64],
    f: NDArray[np.float64],
    ridge: NDArray[np.float64],
    eu: NDArray[np.float64],
    w2eu: NDArray[np.float64],
    ete: NDArray[np.float64],
    gram: NDArray[np.float64],
) -> float:
    """The objective from the products a multiplicative step already holds.

    ``eta = EᵀA``, ``eu = E@U``, ``w2eu = W²∘EU``, ``ete = EᵀE`` and
    ``gram = βVVᵀ + λ_E I``.  Expanding both squared residuals gives
    ``const − 2⟨EᵀA, F⟩ + ⟨W²∘EU, EU⟩ + ⟨EᵀE, βVVᵀ + λ_E I⟩ + ⟨F, ridge∘F⟩``.
    """
    return float(
        const
        - 2.0 * np.vdot(eta, f)
        + np.vdot(w2eu, eu)
        + np.vdot(ete, gram)
        + np.vdot(f, ridge * f)
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
    w2, a, ridge, const = _stack(scores, weights, qmat, config)
    eu = e @ u
    gram = config.q_weight * (v @ v.T) + config.ridge_item * np.eye(len(v))
    f = np.concatenate((u, v), axis=1)
    return _loss(const, e.T @ a, f, ridge, eu, w2 * eu, e.T @ e, gram)


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
    """Seeded unit-exponential (Gamma(1, 1)) draws for E, then U, then V."""
    rng = np.random.default_rng(config.seed)
    t = config.n_skills
    return (
        rng.gamma(1.0, 1.0, (n_items, t)),
        rng.gamma(1.0, 1.0, (t, n_models)),
        rng.gamma(1.0, 1.0, (t, n_concepts)),
    )


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
    beta = config.q_weight
    w2, a, ridge, const = _stack(scores, weights, qmat, config)

    e0, u0, v0 = _init_factors(n_items, n_models, qmat.shape[1], config)
    # E and F = [U | V] are views into one buffer, so the runtime check below
    # is two reductions; u and v are views into F.  Every update is in place.
    x = np.concatenate((e0, np.concatenate((u0, v0), axis=1)), axis=None)
    e = x[: e0.size].reshape(e0.shape)
    f = x[e0.size :].reshape(len(u0), -1)
    u, v = f[:, :n_models], f[:, n_models:]
    ridge_eye = config.ridge_item * np.eye(len(v))

    # At the top of every iteration w2eu = W²∘EU and gram = βVVᵀ + λ_E I.
    eu = e @ u
    w2eu = w2 * eu
    gram = beta * (v @ v.T) + ridge_eye
    trace = [_loss(const, e.T @ a, f, ridge, eu, w2eu, e.T @ e, gram)]
    converged = False
    iterations = 0
    for it in range(config.max_iters):
        e *= (a @ f.T) / (w2eu @ u.T + e @ gram + EPSILON)
        eta = e.T @ a
        ete = e.T @ e
        den = np.concatenate((e.T @ (w2 * (e @ u)), (beta * ete) @ v), axis=1)
        den += ridge * f
        den += EPSILON
        f *= eta / den
        # min >= 0 fails on NaN and max < inf on +inf, so this passes only
        # finite, non-negative factors; the loop below names what failed.
        if not (x.min() >= 0 and x.max() < math.inf):
            for name, m in (("item", e), ("model", u), ("concept", v)):
                if not np.isfinite(m).all():
                    raise NumericalError(f"non-finite {name} factor at iteration {it}")
                if m.size and m.min() < 0:
                    raise NumericalError(f"negative {name} factor at iteration {it}")
        eu = e @ u
        w2eu = w2 * eu
        gram = beta * (v @ v.T) + ridge_eye
        val = _loss(const, eta, f, ridge, eu, w2eu, ete, gram)
        iterations = it + 1
        trace.append(val)
        if trace[-2] - val < config.tol * abs(trace[-2]):
            converged = True
            break

    return FitResult(
        factors=FactorSet(e, np.ascontiguousarray(u), np.ascontiguousarray(v)),
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
    starts: int,
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
    model_ids: tuple[str, ...] | None = None,
    concept_ids: tuple[str, ...] | None = None,
) -> MasteryMatrix:
    """Model-by-concept mastery from the fitted factors.

    ``raw`` is the exact factor product; ``prob`` rescales it by the
    matrix-wide range into [0,1], which keeps the order of every cell.  Only
    the ranks of ``raw`` carry meaning: its scale is set by the ridge terms.
    """
    raw = factors.skill_model.T @ factors.skill_concept
    lo, hi = float(raw.min()), float(raw.max())
    if hi - lo <= 0:
        log.warning("constant mastery matrix; minmax maps all entries to 0")
        prob = np.zeros_like(raw)
    else:
        prob = (raw - lo) / (hi - lo)
    n_models, n_concepts = raw.shape
    return MasteryMatrix(
        raw=raw,
        prob=prob,
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
    result: FitResult, config: McfConfig, predicted: PredictedScores, path: str | Path
) -> None:
    """JSON sidecar for a fit: config, trace, convergence, clip diagnostics.

    ``predicted`` is ``predict_scores(result.factors)``.
    """
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
    """Write mastery CSVs plus a JSON bundle holding ids, raw and prob."""
    out_dir = Path(out_dir)
    raw_path = out_dir / "mastery_raw.csv"
    prob_path = out_dir / "mastery_prob.csv"
    save_matrix_csv(m.raw, m.model_ids, m.concept_ids, raw_path, corner="model_id")
    save_matrix_csv(m.prob, m.model_ids, m.concept_ids, prob_path, corner="model_id")
    bundle = out_dir / "mastery.json"
    payload = {
        "format_version": MASTERY_FORMAT_VERSION,
        "model_ids": list(m.model_ids),
        "concept_ids": list(m.concept_ids),
        # float64 first: an integer array would list ints, written without ".0".
        "raw": np.asarray(m.raw, dtype=np.float64),
        "prob": np.asarray(m.prob, dtype=np.float64),
    }
    write_json(bundle, payload)
    return [raw_path, prob_path, bundle]


def load_mastery(path: str | Path) -> MasteryMatrix:
    """Read a mastery JSON bundle (as written by :func:`save_mastery`).

    A file that is not a JSON object, or whose ``format_version`` is missing
    or is not the integer 1, raises ``FormatError``; a missing or malformed
    field, or a bundle ``MasteryMatrix`` rejects (for example a non-finite
    entry or a ``prob`` outside [0, 1]), raises ``ValidationError``.  Both
    name the file.  The id fields are lists of distinct strings, and every
    cell of ``raw`` and ``prob`` is a JSON number (not ``true``, not
    ``"0.5"``).  Other keys are ignored, such as the ``normalization`` tag
    of older bundles: their ``prob`` is used as written.
    """
    payload = read_json(path)
    check_format_version(payload, path, MASTERY_FORMAT_VERSION)

    def ids(values) -> tuple[str, ...]:
        if not isinstance(values, list) or not set(map(type, values)) <= {str}:
            raise TypeError("not a list of strings")
        dup = first_duplicate(values)
        if dup is not None:
            raise ValueError(f"repeats id {dup!r}")
        return tuple(values)

    def matrix(rows) -> NDArray[np.float64]:
        # Checked by type: float() would take true and "0.5" as well.
        if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
            raise TypeError("cells must be JSON numbers")
        # One column per concept id, so a bundle with no models reads as (0, K).
        values = np.array(rows, dtype=np.float64)
        return values.reshape(len(rows), len(fields["concept_ids"]))

    fields = {}
    with naming(path):
        for name, convert in (
            ("model_ids", ids), ("concept_ids", ids), ("raw", matrix), ("prob", matrix)
        ):
            if name not in payload:
                raise ValidationError(f"missing field {name!r}")
            try:
                fields[name] = convert(payload[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"malformed field {name!r} ({exc})") from exc
        return MasteryMatrix(**fields)
