"""Classical conjunctive diagnosis model used as a small-scale oracle.

An examinee answers an item correctly with probability 1−slip when they
master every concept the item requires, and with probability guess otherwise.
With few enough concepts the full posterior over all 2^K mastery profiles is
computed by direct enumeration, which makes this model an independent check
on the factorization pipeline: no shared code, no shared approximations.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NumericalError, ValidationError

log = logging.getLogger(__name__)

MAX_CONCEPTS = 16
PARAM_FLOOR = 0.001
PARAM_CEIL = 0.999
# em_fit's starting slip and guess for every item, and its relative stop tolerance.
INIT_SLIP = 0.2
INIT_GUESS = 0.2
EM_TOL = 1e-8


@dataclass(frozen=True)
class DinaParams:
    """Per-item slip and guess probabilities."""

    slip: NDArray[np.float64]
    guess: NDArray[np.float64]

    def __post_init__(self) -> None:
        s, g = np.asarray(self.slip), np.asarray(self.guess)
        if s.shape != g.shape or s.ndim != 1:
            raise ValidationError("slip and guess must be 1-D and the same length")
        if s.size and (s.min() < 0 or s.max() >= 1 or g.min() < 0 or g.max() >= 1):
            raise ValidationError("slip/guess must lie in [0, 1)")
        if np.any(s + g >= 1):
            bad = np.flatnonzero(s + g >= 1).tolist()
            raise ValidationError(f"slip + guess >= 1 for items {bad}")


@dataclass(frozen=True)
class EmFitResult:
    params: DinaParams
    posteriors: NDArray[np.float64]  # 2^K x n_models
    loglik_trace: tuple[float, ...]
    iterations_run: int
    converged: bool
    clamped_items: tuple[int, ...]


def enumerate_profiles(n_concepts: int) -> NDArray[np.float64]:
    """All 2^K binary profiles, lexicographic by tuple: (0,..,0) first."""
    if n_concepts > MAX_CONCEPTS:
        raise ValidationError(
            f"{n_concepts} concepts exceeds the enumeration bound {MAX_CONCEPTS}; "
            "use the co-factorization solver for large concept sets"
        )
    return np.array(
        list(itertools.product((0, 1), repeat=n_concepts)), dtype=np.float64
    )


def _gate_table(profiles: NDArray[np.float64], qmat: NDArray[np.float64]) -> NDArray[np.float64]:
    """gate[p, i] = 1 iff profile p masters every concept item i requires."""
    return (profiles[:, None, :] >= qmat[None, :, :]).all(axis=2).astype(np.float64)


def _loglik(
    responses: NDArray[np.float64],
    gate: NDArray[np.float64],
    params: DinaParams,
) -> NDArray[np.float64]:
    """Log-likelihood of each profile for each model column; responses M x N."""
    p = (1.0 - params.slip)[None, :] * gate + params.guess[None, :] * (1.0 - gate)
    p = np.clip(p, 1e-300, 1.0 - 1e-16)
    return np.log(p) @ responses + np.log1p(-p) @ (1.0 - responses)


def _posterior_from_loglik(loglik: NDArray[np.float64]) -> NDArray[np.float64]:
    shift = loglik.max(axis=0, keepdims=True)
    w = np.exp(loglik - shift)
    return w / w.sum(axis=0, keepdims=True)


def _map_index(post_col: NDArray[np.float64], profile_sums: NDArray[np.float64]) -> tuple[int, bool]:
    """Index of the MAP profile; ties -> fewest mastered, then lexicographic."""
    best = post_col.max()
    cand = np.flatnonzero(post_col >= best - 1e-12)
    idx = min(cand, key=lambda p: (profile_sums[p], p))
    return int(idx), len(cand) > 1


def _m_step_objective(
    slip: NDArray[np.float64],
    guess: NDArray[np.float64],
    slip_mass: NDArray[np.float64],
    guess_mass: NDArray[np.float64],
    n_mastered: NDArray[np.float64],
    n_unmastered: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Each item's expected complete-data log-likelihood at (slip, guess),
    from its expected wrong-when-mastered and right-when-unmastered mass."""
    return (
        (n_mastered - slip_mass) * np.log1p(-slip) + slip_mass * np.log(slip)
        + guess_mass * np.log(guess) + (n_unmastered - guess_mass) * np.log1p(-guess)
    )


def infer_profiles(
    responses: NDArray[np.float64],
    qmat: NDArray[np.float64],
    params: DinaParams,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.bool_]]:
    """Batch MAP inference over model columns of an items-by-models matrix.

    Returns (profiles n_models x K, posteriors 2^K x n_models, tie flags).
    """
    responses = np.asarray(responses, dtype=np.float64)
    if not np.all((responses == 0) | (responses == 1)):
        raise ValidationError("responses must be binary")
    profiles = enumerate_profiles(qmat.shape[1])
    gate = _gate_table(profiles, qmat)
    post = _posterior_from_loglik(_loglik(responses, gate, params))
    sums = profiles.sum(axis=1)
    n_models = responses.shape[1]
    out = np.zeros((n_models, qmat.shape[1]))
    ties = np.zeros(n_models, dtype=bool)
    for j in range(n_models):
        idx, tie = _map_index(post[:, j], sums)
        out[j] = profiles[idx]
        ties[j] = tie
    return out, post, ties


def em_fit(
    responses: NDArray[np.float64],
    qmat: NDArray[np.float64],
    max_iters: int = 200,
) -> EmFitResult:
    """Estimate slip/guess by expectation-maximization (uniform profile prior).

    The M-step maximizes each item's separable concave objective over the
    box exactly.  Where the cap ``guess <= PARAM_CEIL - slip`` binds, the
    capped point is no exact maximum, so the item keeps its previous
    slip/guess when those score higher on its objective (a generalized EM
    step); capped items are in ``clamped_items``.  The marginal
    log-likelihood trace is thus checked to be non-decreasing after every
    step.  The deterministic init makes the whole fit reproducible without a
    seed.
    """
    responses = np.asarray(responses, dtype=np.float64)
    qmat = np.asarray(qmat, dtype=np.float64)
    if responses.shape[0] != qmat.shape[0]:
        raise ValidationError(
            f"responses rows {responses.shape[0]} != qmat rows {qmat.shape[0]}"
        )
    if not np.all((responses == 0) | (responses == 1)):
        raise ValidationError("responses must be binary")
    n_items = responses.shape[0]
    profiles = enumerate_profiles(qmat.shape[1])
    gate = _gate_table(profiles, qmat)
    log_prior = -np.log(len(profiles))

    slip = np.full(n_items, INIT_SLIP)
    guess = np.full(n_items, INIT_GUESS)
    params = DinaParams(slip, guess)
    trace: list[float] = []
    converged = False
    iterations = 0
    clamped: set[int] = set()
    for it in range(max_iters):
        loglik = _loglik(responses, gate, params)
        mll = float(np.logaddexp.reduce(loglik + log_prior, axis=0).sum())
        if trace and mll < trace[-1] - 1e-9 * max(1.0, abs(trace[-1])):
            raise NumericalError(
                f"marginal log-likelihood decreased at EM iteration {it}"
            )
        if trace and abs(mll - trace[-1]) < EM_TOL * abs(trace[-1]):
            trace.append(mll)
            converged = True
            break
        trace.append(mll)
        post = _posterior_from_loglik(loglik)
        # Expected mastered/unmastered mass per (item, model) cell.
        mastered = gate.T @ post           # n_items x n_models
        unmastered = 1.0 - mastered
        n_mastered = mastered.sum(axis=1)
        n_unmastered = unmastered.sum(axis=1)
        slip_mass = (mastered * (1.0 - responses)).sum(axis=1)
        guess_mass = (unmastered * responses).sum(axis=1)
        raw_slip = slip_mass / np.maximum(n_mastered, 1e-12)
        raw_guess = guess_mass / np.maximum(n_unmastered, 1e-12)
        clamped |= set(np.flatnonzero(
            (raw_slip < PARAM_FLOOR) | (raw_slip > PARAM_CEIL)
            | (raw_guess < PARAM_FLOOR) | (raw_guess > PARAM_CEIL)
        ).tolist())
        slip = np.clip(raw_slip, PARAM_FLOOR, PARAM_CEIL)
        guess = np.clip(raw_guess, PARAM_FLOOR, PARAM_CEIL)
        over = slip + guess >= 1.0
        if over.any():
            idx = np.flatnonzero(over)
            clamped |= set(idx.tolist())
            guess[idx] = np.minimum(guess[idx], PARAM_CEIL - slip[idx])
            mass = (slip_mass[idx], guess_mass[idx], n_mastered[idx], n_unmastered[idx])
            keep = idx[_m_step_objective(slip[idx], guess[idx], *mass)
                       < _m_step_objective(params.slip[idx], params.guess[idx], *mass)]
            slip[keep] = params.slip[keep]
            guess[keep] = params.guess[keep]
        params = DinaParams(slip, guess)
        iterations = it + 1
    if clamped:
        log.warning("slip/guess clamped for degenerate item(s) %s", sorted(clamped))
    post = _posterior_from_loglik(_loglik(responses, gate, params))
    return EmFitResult(
        params=params,
        posteriors=post,
        loglik_trace=tuple(trace),
        iterations_run=iterations,
        converged=converged,
        clamped_items=tuple(sorted(clamped)),
    )


def simulate_dina(
    n_concepts: int,
    n_items: int,
    n_models: int,
    slip: float,
    guess: float,
    seed: int,
    qmat: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Plant a conjunctive world: returns (responses M x N, alpha N x K, qmat).

    When no Q-matrix is given, the first K items require exactly one concept
    each (so every concept is identified even in noiseless data) and the rest
    require random non-empty subsets.
    """
    rng = np.random.default_rng(seed)
    if qmat is None:
        if n_items < n_concepts:
            raise ValidationError("need at least one item per concept")
        qmat = np.zeros((n_items, n_concepts))
        qmat[:n_concepts] = np.eye(n_concepts)
        for i in range(n_concepts, n_items):
            row = rng.integers(0, 2, n_concepts)
            while row.sum() == 0:
                row = rng.integers(0, 2, n_concepts)
            qmat[i] = row
    alpha = rng.integers(0, 2, (n_models, n_concepts)).astype(np.float64)
    gate = _gate_table(alpha, qmat)        # n_models x n_items
    p_correct = (1.0 - slip) * gate + guess * (1.0 - gate)
    responses = (rng.random((n_models, n_items)) < p_correct).T.astype(np.float64)
    return responses, alpha, qmat
