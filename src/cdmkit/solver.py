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
``A = [W²∘X | βQ]``, ``F = [U | V]`` and ``F_β = F∘c = [U | βV]``, where the
column scale ``c`` holds 1 for the columns of U and β for those of V.  Each
iteration makes two block updates, E and then F, and evaluates the objective
for the stop rule:

    E ← E ∘ (A Fᵀ) / ((W²∘EU) Uᵀ + E G + ε)
    F ← F ∘ (EᵀA) / ([Eᵀ(W²∘EU) | EᵀE (βV)] + ridge ∘ F + ε)

with ``G = βVVᵀ + λ_E I``, formed from the V block of ``F_β``, and where
``ridge`` holds ``ridge_model`` for the columns of U and ``ridge_concept``
for those of V.  The F step is exactly the separate U and V steps, both
taken after the E step.  ``A``, ``c`` and ``ridge`` are formed once per fit,
and U and V are views into F.  Neither residual matrix is ever formed:
expanding both squares gives the objective as

    Σ(W²∘X∘X) + β‖Q‖² − 2⟨EᵀA, F⟩ + ⟨W²∘EU, EU⟩ + ⟨EᵀE, G⟩ + ⟨F, ridge ∘ F⟩

whose ``EᵀA`` and ``EᵀE`` are the F step's.  ``F_β``, ``G``, ``ridge ∘ F``
and ``W²∘EU`` are formed once per iteration, after the F step, and serve
both the objective and the next iteration's steps.  The first two terms are
a constant of the fit, which the weighted cross term cancels just as the tag
cross term cancels ``‖Q‖²``.  The rounding this costs stayed below 2e-14 of
the objective computed from explicit residuals, on gate-sized worlds at 5 and
32 skills and on a 3000 × 120 × 300 one: far below the stop rule's tolerance.

When every weight is 1 (``fit`` without ``--weights``, and every simulated
world), ``W²∘EU = EU`` and the score block takes the Gram form of unweighted
NMF (Lee & Seung 2001), as the tag block already does:

    (EU)Uᵀ = E(UUᵀ),   Eᵀ(EU) = (EᵀE)U,   ⟨EU, EU⟩ = ⟨EᵀE, UUᵀ⟩

so that, with ``G = F_β Fᵀ + λ_E I = UUᵀ + βVVᵀ + λ_E I``,

    E ← E ∘ (A Fᵀ) / (E G + ε)
    F ← F ∘ (EᵀA) / (EᵀE F_β + ridge ∘ F + ε)

and the objective is ``Σ(X∘X) + β‖Q‖² − 2⟨EᵀA, F⟩ + ⟨EᵀE, G⟩ + ⟨F, ridge ∘ F⟩``.
Neither ``W²`` nor ``EU`` is formed: an iteration is six matrix products,
``A Fᵀ``, ``EᵀA``, ``EᵀE``, ``E G``, ``EᵀE F_β`` and ``F_β Fᵀ``, and 21 numpy
calls in all; the E step's ``+ ε``, ratio and product run in place.  The
weights choose the form (all exactly 1, or not), and :func:`objective` takes
the same one through the same helper, so it reproduces the trace to the last
bit.  The two forms differ only by rounding: on the bench's ``gate``
worlds (seed 1), each start and sweep point ran the same iterations in both,
and their traces agreed within 3.8e-14 relative.

Traced ``solver.us_per_iter`` (2-core box, numpy 2.4 with OpenBLAS, medians
of 6–7 bench runs of 10 s), before and after each product was formed once:
94.8 → 86.2 µs on the bench's ``gate`` worlds (210 × 30 × 70, 5 skills),
where per-call overhead sets the time, and 2237 → 2120 µs on its 3000 ×
120 × 300 world at 16 skills, where ``A Fᵀ`` and ``EᵀA``, one pass each over
the 10 MB ``A``, are most of an iteration.

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
products.  The gradient check (gate 4) compares that kernel against analytic
gradients in the direct residual form, an independent formula kept in
``tests/oracles.py``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, NumericalError, ValidationError
from .manifest import (
    NumberRows, check_cells, check_format_version, checked_ids, naming, read_json, write_json,
)
from .responses import cell_text, load_matrix_csv, matrix_csv_writer, save_matrix_csv

log = logging.getLogger(__name__)

# Added to every multiplicative-update denominator so that none is zero.
EPSILON = 1e-12

# The mastery bundle's format; every bundle save_mastery has written carries 1.
MASTERY_FORMAT_VERSION = 1

# The most entries one matrix that fit or simulate allocates may hold, checked
# before it is allocated: 1e8 float64 entries are 800 MB.
MAX_MATRIX_ELEMENTS = 10**8


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
        for name in ("max_iters", "seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if not 0 < self.tol < math.inf:
            raise ValidationError("tol must be finite and > 0")


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
            check_cells(name, m, np.isfinite(m), "factors must be finite", error=NumericalError)
            check_cells(name, m, m >= 0, "factors must be >= 0")

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
    converged: bool
    seed: int

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]

    @property
    def iterations_run(self) -> int:
        """Update steps run; the trace's first entry is the objective at initialization."""
        return len(self.objective_trace) - 1


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
        checked_ids(self.model_ids, "model")
        checked_ids(self.concept_ids, "concept")
        if self.raw.shape != self.prob.shape:
            raise DimensionError("raw/prob shape mismatch")
        if self.raw.shape != (len(self.model_ids), len(self.concept_ids)):
            raise DimensionError("mastery shape does not match id lists")
        ids = (self.model_ids, self.concept_ids)
        check_cells("raw", self.raw, np.isfinite(self.raw), "values must be finite", *ids)
        check_cells("prob", self.prob, (self.prob >= 0) & (self.prob <= 1),
                    "values must lie in [0, 1]", *ids)

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
) -> tuple[
    NDArray[np.float64] | None, NDArray[np.float64], NDArray[np.float64],
    NDArray[np.float64], float,
]:
    """The fixed parts of the stacked problem: ``W²``, ``A``, the ridge row,
    the column scale and the constant.

    ``A = [W²∘X | βQ]`` is the target of ``F = [U | V]``.  The ridge row
    holds ``ridge_model`` for every column of U and ``ridge_concept`` for
    every column of V, the column scale ``c`` holds 1 and β in the same
    places, and the constant is ``Σ(W²∘X∘X) + β‖Q‖²``.  When every weight is
    1, ``W²`` is None, which selects the Gram form, and ``A`` holds X itself:
    the numbers ``1∘X`` would give.
    """
    n = scores.shape[1]
    # (weights == 1).all() rather than min() == 1: objective() takes any weights.
    w2 = None if (weights == 1).all() else weights * weights
    # A is filled in place, so that W²∘X and βQ are never arrays of their own.
    a = np.empty((scores.shape[0], n + qmat.shape[1]))
    w2x = a[:, :n]
    if w2 is None:
        np.copyto(w2x, scores)
    else:
        np.multiply(w2, scores, out=w2x)
    np.multiply(config.q_weight, qmat, out=a[:, n:])
    blocks = (n, qmat.shape[1])
    ridge = np.repeat((config.ridge_model, config.ridge_concept), blocks)
    scale = np.repeat((1.0, config.q_weight), blocks)
    const = float(np.vdot(w2x, scores)) + config.q_weight * float(np.vdot(qmat, qmat))
    return w2, a, ridge, scale, const


def _products(
    e: NDArray[np.float64],
    f: NDArray[np.float64],
    scale: NDArray[np.float64],
    ridge: NDArray[np.float64],
    ridge_eye: NDArray[np.float64],
    w2: NDArray[np.float64] | None,
) -> tuple[
    NDArray[np.float64], NDArray[np.float64], NDArray[np.float64],
    NDArray[np.float64] | None, float,
]:
    """What the loss and the next step take from (E, F): ``F_β = F∘c``,
    ``ridge∘F``, ``G``, ``W²∘EU`` and ``⟨W²∘EU, EU⟩``.

    In the Gram form ``G = F_β Fᵀ + λ_E I`` and the last two are
    ``(None, 0.0)``, since ``G`` carries ``UUᵀ`` in their place.  In the
    weighted form ``G = βVVᵀ + λ_E I``, from the V block of ``F_β``.
    """
    fb = f * scale
    rf = ridge * f
    if w2 is None:
        gram = fb @ f.T
        w2eu, score_fit = None, 0.0
    else:
        n = w2.shape[1]
        gram = fb[:, n:] @ f[:, n:].T
        eu = e @ f[:, :n]
        w2eu = w2 * eu
        score_fit = float(np.vdot(w2eu, eu))
    gram += ridge_eye
    return fb, rf, gram, w2eu, score_fit


def _loss(
    const: float,
    eta: NDArray[np.float64],
    f: NDArray[np.float64],
    rf: NDArray[np.float64],
    score_fit: float,
    ete: NDArray[np.float64],
    gram: NDArray[np.float64],
) -> float:
    """The objective from the products a multiplicative step already holds.

    ``eta = EᵀA``, ``rf = ridge∘F``, ``score_fit = ⟨W²∘EU, EU⟩``,
    ``ete = EᵀE`` and ``gram = βVVᵀ + λ_E I``.  Expanding both squared
    residuals gives ``const − 2⟨EᵀA, F⟩ + ⟨W²∘EU, EU⟩ + ⟨EᵀE, βVVᵀ + λ_E I⟩
    + ⟨F, ridge∘F⟩``.  In the Gram form ``score_fit`` is 0 and ``gram`` adds
    ``UUᵀ``, since there ``⟨EU, EU⟩ = ⟨EᵀE, UUᵀ⟩``.
    """
    return float(
        const
        - 2.0 * np.vdot(eta, f)
        + score_fit
        + np.vdot(ete, gram)
        + np.vdot(f, rf)
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
    w2, a, ridge, scale, const = _stack(scores, weights, qmat, config)
    f = np.concatenate((u, v), axis=1)
    _, rf, gram, _, score_fit = _products(
        e, f, scale, ridge, config.ridge_item * np.eye(len(f)), w2
    )
    return _loss(const, e.T @ a, f, rf, score_fit, e.T @ e, gram)


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
    n_items, n_models = scores.shape
    t = config.n_skills
    for rows, cols in ((n_items, t), (t, n_models + qmat.shape[1]), (t, t)):
        if rows * cols > MAX_MATRIX_ELEMENTS:
            raise ValidationError(
                f"n_skills {t:,} makes a {rows:,} x {cols:,} matrix, more than the "
                f"{MAX_MATRIX_ELEMENTS:,} elements one matrix may hold"
            )
    for name, m in (("scores", scores), ("weights", weights)):
        check_cells(name, m, (m >= 0) & (m <= 1), "values must lie in [0, 1]")
    check_cells("qmat", qmat, (qmat == 0) | (qmat == 1), "values must be binary (0 or 1)")
    if not np.any(weights > 0):
        raise ValidationError("all weights are zero: nothing observed")

    w2, a, ridge, scale, const = _stack(scores, weights, qmat, config)

    e0, u0, v0 = _init_factors(n_items, n_models, qmat.shape[1], config)
    # E and F = [U | V] are views into one buffer, so the runtime check below
    # is two reductions; u and v are views into F.  Every update is in place.
    x = np.concatenate((e0, np.concatenate((u0, v0), axis=1)), axis=None)
    e = x[: e0.size].reshape(e0.shape)
    f = x[e0.size :].reshape(len(u0), -1)
    u, v = f[:, :n_models], f[:, n_models:]
    ridge_eye = config.ridge_item * np.eye(len(f))

    # At the top of every iteration these are the _products of E and F.
    fb, rf, gram, w2eu, score_fit = _products(e, f, scale, ridge, ridge_eye, w2)
    trace = [_loss(const, e.T @ a, f, rf, score_fit, e.T @ e, gram)]
    converged = False
    for it in range(config.max_iters):
        den = e @ gram
        if w2 is not None:
            den += w2eu @ u.T
        den += EPSILON
        ratio = a @ f.T
        ratio /= den
        e *= ratio
        eta = e.T @ a
        ete = e.T @ e
        if w2 is None:
            den = ete @ fb
        else:
            den = np.concatenate((e.T @ (w2 * (e @ u)), ete @ fb[:, n_models:]), axis=1)
        den += rf
        den += EPSILON
        np.divide(eta, den, out=den)
        f *= den
        # min >= 0 fails on NaN and max < inf on +inf, so this passes only
        # finite, non-negative factors; the loop below names what failed.
        if not (x.min() >= 0 and x.max() < math.inf):
            for name, m in (("item", e), ("model", u), ("concept", v)):
                where = f"{name} factor at iteration {it}"
                check_cells(where, m, np.isfinite(m), "factors must be finite", error=NumericalError)
                check_cells(where, m, m >= 0, "factors must be >= 0", error=NumericalError)
        fb, rf, gram, w2eu, score_fit = _products(e, f, scale, ridge, ridge_eye, w2)
        val = _loss(const, eta, f, rf, score_fit, ete, gram)
        trace.append(val)
        if trace[-2] - val < config.tol * abs(trace[-2]):
            converged = True
            break

    return FitResult(
        factors=FactorSet(e, np.ascontiguousarray(u), np.ascontiguousarray(v)),
        objective_trace=tuple(trace),
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
    result: FitResult, predicted: PredictedScores, out_dir: str | Path
) -> None:
    """Write the record of a fit: ``trace.csv``, one line per objective value
    of the trace (the first at initialization), and ``fit.json`` with the
    seed, iterations run, convergence and the number of clipped prediction
    cells.  The run's settings are in its ``manifest.json``.

    ``predicted`` is ``predict_scores(result.factors)``.
    """
    out_dir = Path(out_dir)
    with open(out_dir / "trace.csv", "w", encoding="utf-8") as fh:
        fh.write("iteration,objective\n")
        for i, value in enumerate(result.objective_trace):
            fh.write(f"{i},{repr(value)}\n")
    payload = {
        "seed": result.seed,
        "iterations_run": result.iterations_run,
        "converged": result.converged,
        "clipped_prediction_cells": predicted.n_clipped,
    }
    write_json(out_dir / "fit.json", payload)


def save_mastery(m: MasteryMatrix, out_dir: str | Path) -> list[Path]:
    """Write ``mastery_raw.csv``, ``mastery_prob.csv`` and ``mastery.json``,
    a bundle that holds the ids and both matrices again.

    Each cell is formatted once.  Each block of :func:`cell_text` rows goes
    to its CSV and then to the bundle, as :func:`write_json` takes it, so the
    bundle's numbers are the CSVs' cell text and one block of text is held
    at a time."""
    out_dir = Path(out_dir)
    raw_path = out_dir / "mastery_raw.csv"
    prob_path = out_dir / "mastery_prob.csv"
    bundle = out_dir / "mastery.json"
    ids = (m.model_ids, m.concept_ids, "model_id")
    with open(raw_path, "w", newline="", encoding="utf-8") as raw_fh, \
            open(prob_path, "w", newline="", encoding="utf-8") as prob_fh:
        write_json(bundle, {
            "format_version": MASTERY_FORMAT_VERSION,
            "model_ids": list(m.model_ids),
            "concept_ids": list(m.concept_ids),
            "raw": NumberRows(_written_rows(m.raw, matrix_csv_writer(raw_fh, *ids))),
            "prob": NumberRows(_written_rows(m.prob, matrix_csv_writer(prob_fh, *ids))),
        })
    return [raw_path, prob_path, bundle]


def _written_rows(
    matrix: NDArray[np.float64], write_rows: Callable[[list[list[str]]], None]
) -> Iterator[list[str]]:
    """The rows of ``cell_text(matrix)``, each block once ``write_rows`` has
    written it."""
    for rows in cell_text(matrix):
        write_rows(rows)
        yield from rows


def load_mastery(path: str | Path) -> MasteryMatrix:
    """Read a mastery JSON bundle (as written by :func:`save_mastery`).

    A file that is not a JSON object, or whose ``format_version`` is missing
    or is not the integer 1, raises ``FormatError``; a missing or malformed
    field, or a bundle ``MasteryMatrix`` rejects (for example a non-finite
    entry or a ``prob`` outside [0, 1]), raises ``ValidationError``.  Both
    name the file.  The id fields are lists of strings that ``checked_ids``
    takes, and every cell of ``raw`` and ``prob`` is a JSON number (not
    ``true``, not ``"0.5"``).  Other keys are ignored, such as the
    ``normalization`` tag of older bundles: their ``prob`` is used as written.
    """
    payload = read_json(path)
    check_format_version(payload, path, MASTERY_FORMAT_VERSION)

    def ids(values) -> tuple[str, ...]:
        if not isinstance(values, list) or not set(map(type, values)) <= {str}:
            raise TypeError("not a list of strings")
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
