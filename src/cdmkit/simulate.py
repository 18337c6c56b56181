"""Synthetic planted-truth worlds for validating the co-factorization solver.

One kind of world is drawn.  Item, model and concept factors come from fixed
Gamma priors (shape–rate: items ``GAMMA_ITEM``, models ``GAMMA_MODEL``,
concepts ``GAMMA_CONCEPT``).  An item is tagged with every concept whose
``sigmoid(item · concept)`` reaches ``TAG_THRESHOLD``, and an item that would
tag none gets a fresh item factor.  A score is the mean of ``REPEATS``
Bernoulli draws at ``sigmoid(item · model)``.  Because the planted factors
are known, recovery of the implied mastery ordering can be scored exactly.

The priors are not flat: item and concept loadings are sparse and spiky, and
model proficiencies are concentrated around 0.8.  Flat Gamma(1,1) worlds
push the sigmoid towards 1, where every response looks alike.  Even so, the
factors are non-negative, so every probability is at least 0.5, and the
worlds are easy.  At the release-gate size (210 items × 30 models × 70
concepts, 5 skills, seeds 7/11/13/17/19) an item carries 35.5–40.8 of the
70 tags on average, the median response probability is 0.980–0.984, and
22–27% of the response probabilities lie in [0.1, 0.9].
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .bank import write_bank_json
from .errors import DegenerateDataError, ValidationError
from .manifest import NumberRows, check_cells, write_json
from .metrics import average_ranks
from .responses import save_matrix_csv
from .solver import MAX_MATRIX_ELEMENTS, FactorSet, MasteryMatrix, _default_ids

log = logging.getLogger(__name__)

GAMMA_ITEM = (0.4, 1.0 / 3.0)
GAMMA_MODEL = (8.0, 10.0)
GAMMA_CONCEPT = (0.2, 0.16)
TAG_THRESHOLD = 0.92
REPEATS = 10
_MAX_RESAMPLES = 1000


def sigmoid(z: NDArray[np.float64]) -> NDArray[np.float64]:
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class SimConfig:
    """Sizes and seed of one planted world, by default the release-gate world.

    No matrix of the world may hold more than ``MAX_MATRIX_ELEMENTS`` entries,
    so every product of two of the four sizes is bounded; a larger world is
    rejected before anything is allocated.
    """

    n_items: int = 210
    n_models: int = 30
    n_concepts: int = 70
    n_skills: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = ("n_items", "n_models", "n_concepts", "n_skills")
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        for a, b in itertools.combinations(sizes, 2):
            if getattr(self, a) * getattr(self, b) > MAX_MATRIX_ELEMENTS:
                raise ValidationError(
                    f"{a} x {b} exceeds {MAX_MATRIX_ELEMENTS:,} elements, "
                    "the most one simulated matrix may hold"
                )


@dataclass(frozen=True)
class SimOutput:
    """Planted world: factors, observed matrices, and the true probabilities."""

    true_factors: FactorSet
    scores: NDArray[np.float64]
    qmat: NDArray[np.float64]
    p_response: NDArray[np.float64]
    p_mastery: NDArray[np.float64]

    def __post_init__(self) -> None:
        # Sigmoids of large non-negative products round to exactly 1.0 in
        # float64, so the closed interval is the honest bound here.
        for name, p in (("p_response", self.p_response), ("p_mastery", self.p_mastery)):
            check_cells(name, p, (p >= 0) & (p <= 1), "values must lie in [0, 1]")
        check_cells("qmat", self.qmat, (self.qmat == 0) | (self.qmat == 1),
                    "values must be binary (0 or 1)")
        if self.qmat.size and self.qmat.sum(axis=1).min() < 1:
            raise ValidationError("qmat has an all-zero row")


def simulate(config: SimConfig) -> SimOutput:
    """Draw one world.  Deterministic given the config (single seeded stream).

    Draw order is part of the contract: item factors, model factors, concept
    factors, then the redrawn item factors of untagged items, row by row, then
    scores.
    """
    m, n, k, t = config.n_items, config.n_models, config.n_concepts, config.n_skills
    rng = np.random.default_rng(config.seed)
    shape_i, rate_i = GAMMA_ITEM
    shape_m, rate_m = GAMMA_MODEL
    shape_c, rate_c = GAMMA_CONCEPT
    item_f = rng.gamma(shape_i, 1.0 / rate_i, (m, t))
    model_f = rng.gamma(shape_m, 1.0 / rate_m, (t, n))
    concept_f = rng.gamma(shape_c, 1.0 / rate_c, (t, k))

    qmat = np.zeros((m, k), dtype=np.float64)
    for i in range(m):
        tries = 0
        while True:
            row = (sigmoid(item_f[i] @ concept_f) >= TAG_THRESHOLD).astype(np.float64)
            if row.sum() > 0:
                qmat[i] = row
                break
            tries += 1
            if tries >= _MAX_RESAMPLES:
                raise DegenerateDataError(
                    "could not find an item factor meeting the tag threshold; "
                    "try another seed, or more skills or concepts"
                )
            item_f[i] = rng.gamma(shape_i, 1.0 / rate_i, t)

    p_response = sigmoid(item_f @ model_f)
    scores = rng.binomial(REPEATS, p_response) / REPEATS
    p_mastery = sigmoid(model_f.T @ concept_f)

    return SimOutput(
        true_factors=FactorSet(item_f, model_f, concept_f),
        scores=scores,
        qmat=qmat,
        p_response=p_response,
        p_mastery=p_mastery,
    )


# ---------------------------------------------------------------------------
# Recovery scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryScore:
    per_model: NDArray[np.float64]  # NaN where undefined (constant row)
    overall: float
    n_excluded: int


def recovery_score(fitted: MasteryMatrix, truth: SimOutput) -> RecoveryScore:
    """Mean per-model Spearman correlation of fitted vs planted mastery rows.

    A model whose fitted or planted row is constant has no defined rank
    correlation; it is reported as NaN and excluded from the mean (with a
    logged warning).
    """
    if fitted.prob.shape != truth.p_mastery.shape:
        raise ValidationError(
            f"fitted {fitted.prob.shape} vs truth {truth.p_mastery.shape}"
        )
    n_models = fitted.prob.shape[0]
    rho = np.full(n_models, np.nan)
    for j in range(n_models):
        a, b = fitted.prob[j], truth.p_mastery[j]
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            continue
        rho[j] = np.corrcoef(average_ranks(a), average_ranks(b))[0, 1]
    n_excluded = int(np.isnan(rho).sum())
    if n_excluded:
        log.warning("%d model row(s) had undefined rank correlation", n_excluded)
    if n_excluded == n_models:
        raise DegenerateDataError("no model row has a defined rank correlation")
    return RecoveryScore(
        per_model=rho,
        overall=float(np.nanmean(rho)),
        n_excluded=n_excluded,
    )


# ---------------------------------------------------------------------------
# Serialization of a simulated world
# ---------------------------------------------------------------------------

def save_sim_output(sim: SimOutput, out_dir: str | Path) -> dict[str, Path]:
    """Write the world in pipeline-ready formats plus a truth bundle.

    Emits a stub item bank (synthetic ids/prompts), scores + weights CSVs,
    the tag matrix CSV, and truth.json with factors and probabilities.  The
    bank's items are made one at a time as they are written, and each truth
    matrix is formatted a row at a time as it is written, so neither is held
    as a whole list of Python objects.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m, n = sim.scores.shape
    k = sim.qmat.shape[1]
    item_ids = _default_ids("item", m)
    model_ids = _default_ids("model", n)
    concept_ids = _default_ids("concept", k)

    # The ids are zero-padded, so tags taken in concept order come sorted.
    paths: dict[str, Path] = {}
    paths["bank"] = out_dir / "bank.json"
    write_bank_json(
        paths["bank"],
        ((cid, cid) for cid in concept_ids),
        (
            (item_id, f"synthetic question {i}", "A",
             list(itertools.compress(concept_ids, sim.qmat[i].tolist())))
            for i, item_id in enumerate(item_ids)
        ),
    )

    paths["scores"] = out_dir / "scores.csv"
    save_matrix_csv(sim.scores, item_ids, model_ids, paths["scores"], corner="item_id")
    paths["weights"] = out_dir / "weights.csv"
    save_matrix_csv(
        np.ones_like(sim.scores), item_ids, model_ids, paths["weights"], corner="item_id"
    )
    paths["qmatrix"] = out_dir / "qmatrix.csv"
    save_matrix_csv(sim.qmat, item_ids, concept_ids, paths["qmatrix"], corner="item_id")

    truth = {
        "item_skill": sim.true_factors.item_skill,
        "skill_model": sim.true_factors.skill_model,
        "skill_concept": sim.true_factors.skill_concept,
        "p_response": sim.p_response,
        "p_mastery": sim.p_mastery,
    }
    paths["truth"] = out_dir / "truth.json"
    # Every value is finite, so repr is the text json writes for it.
    write_json(paths["truth"], {name: NumberRows(list(map(repr, row.tolist())) for row in m)
                                for name, m in truth.items()})
    return paths
