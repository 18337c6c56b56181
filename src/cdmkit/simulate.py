"""Synthetic planted-truth worlds for validating the co-factorization solver.

Latent factors are drawn from Gamma priors (shape–rate parameterization),
tag rows come from thresholding or sampling the item–concept alignment, and
scores are Bernoulli draws (or averages of repeated draws) of the item–model
alignment pushed through a sigmoid.  Because the planted factors are known,
recovery of the implied mastery ordering can be scored exactly.

The default priors are deliberately not flat: item and concept loadings are
sparse/spiky and model proficiencies are concentrated below saturation.  Flat
Gamma(1,1) worlds push the sigmoid towards 1 where every response looks alike
and the planted mastery is unrecoverable from data; the defaults keep the
response probabilities spread across the informative range and give each item
a distinctive small set of required skills, which is what makes recovery a
meaningful test.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateDataError, ValidationError
from .metrics import average_ranks
from .solver import FactorSet, MasteryMatrix, _default_ids

log = logging.getLogger(__name__)

DEFAULT_GAMMA_ITEM = (0.4, 1.0 / 3.0)
DEFAULT_GAMMA_MODEL = (8.0, 10.0)
DEFAULT_GAMMA_CONCEPT = (0.2, 0.16)
Q_MODES = ("threshold", "bernoulli")
RESPONSE_MODES = ("mean", "bernoulli")
_MAX_RESAMPLES = 1000
# Every pair of the four sizes spans a matrix the simulator allocates: the
# three factors, the scores, the tags and the planted mastery.  1e8 float64
# entries are 800 MB.
MAX_MATRIX_ELEMENTS = 10**8


def sigmoid(z: NDArray[np.float64]) -> NDArray[np.float64]:
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class SimConfig:
    """Sizes, priors and sampling modes of one planted world.

    No matrix of the world may hold more than ``MAX_MATRIX_ELEMENTS`` entries,
    so every product of two of the four sizes is bounded; a larger world is
    rejected before anything is allocated.
    """

    n_items: int
    n_models: int
    n_concepts: int
    n_skills: int
    seed: int = 0
    gamma_item: tuple[float, float] = DEFAULT_GAMMA_ITEM
    gamma_model: tuple[float, float] = DEFAULT_GAMMA_MODEL
    gamma_concept: tuple[float, float] = DEFAULT_GAMMA_CONCEPT
    q_mode: str = "threshold"
    q_threshold: float = 0.92
    response_mode: str = "mean"
    repeats: int = 10

    def __post_init__(self) -> None:
        sizes = ("n_items", "n_models", "n_concepts", "n_skills")
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        for a, b in itertools.combinations(sizes, 2):
            if getattr(self, a) * getattr(self, b) > MAX_MATRIX_ELEMENTS:
                raise ValidationError(
                    f"{a} x {b} exceeds {MAX_MATRIX_ELEMENTS:,} elements, "
                    "the most one simulated matrix may hold"
                )
        for name in ("gamma_item", "gamma_model", "gamma_concept"):
            if not all(0 < x < math.inf for x in getattr(self, name)):
                raise ValidationError(f"{name} must be finite and > 0 (shape and rate)")
        if self.q_mode not in Q_MODES:
            raise ValidationError(f"unknown q_mode {self.q_mode!r}")
        if not 0.0 < self.q_threshold < 1.0:
            raise ValidationError("q_threshold must lie in (0, 1)")
        if self.response_mode not in RESPONSE_MODES:
            raise ValidationError(f"unknown response_mode {self.response_mode!r}")
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SimOutput:
    """Planted world: factors, observed matrices, and the true probabilities."""

    true_factors: FactorSet
    scores: NDArray[np.float64]
    qmat: NDArray[np.float64]
    p_response: NDArray[np.float64]
    p_mastery: NDArray[np.float64]
    config: SimConfig

    def __post_init__(self) -> None:
        # Sigmoids of large non-negative products round to exactly 1.0 in
        # float64, so the closed interval is the honest bound here.
        for name, p in (("p_response", self.p_response), ("p_mastery", self.p_mastery)):
            if p.size and (p.min() < 0 or p.max() > 1):
                raise ValidationError(f"{name} must lie in [0, 1]")
        if not np.all((self.qmat == 0) | (self.qmat == 1)):
            raise ValidationError("qmat must be binary")
        if self.qmat.size and self.qmat.sum(axis=1).min() < 1:
            raise ValidationError("qmat has an all-zero row")


def simulate(config: SimConfig) -> SimOutput:
    """Draw one world.  Deterministic given the config (single seeded stream).

    Draw order is part of the contract: item factors, model factors, concept
    factors, then tag rows (with per-row item-factor resampling in threshold
    mode, or per-row redraws in bernoulli mode), then scores.
    """
    m, n, k, t = config.n_items, config.n_models, config.n_concepts, config.n_skills
    rng = np.random.default_rng(config.seed)
    shape_i, rate_i = config.gamma_item
    shape_m, rate_m = config.gamma_model
    shape_c, rate_c = config.gamma_concept
    item_f = rng.gamma(shape_i, 1.0 / rate_i, (m, t))
    model_f = rng.gamma(shape_m, 1.0 / rate_m, (t, n))
    concept_f = rng.gamma(shape_c, 1.0 / rate_c, (t, k))

    if config.q_mode == "bernoulli":
        p_tag = sigmoid(item_f @ concept_f)
        qmat = rng.binomial(1, p_tag).astype(np.float64)
        for i in range(m):
            tries = 0
            while qmat[i].sum() == 0:
                if tries >= _MAX_RESAMPLES:
                    raise DegenerateDataError(
                        "could not draw a non-empty tag row; use stronger concept factors"
                    )
                qmat[i] = rng.binomial(1, p_tag[i])
                tries += 1
    else:
        # Deterministic thresholding; an item whose row comes out empty gets a
        # fresh item factor so every item tags at least one concept.
        qmat = np.zeros((m, k), dtype=np.float64)
        for i in range(m):
            tries = 0
            while True:
                row = (sigmoid(item_f[i] @ concept_f) >= config.q_threshold).astype(np.float64)
                if row.sum() > 0:
                    qmat[i] = row
                    break
                tries += 1
                if tries >= _MAX_RESAMPLES:
                    raise DegenerateDataError(
                        "could not find an item factor meeting the tag threshold; "
                        "lower q_threshold or use stronger concept factors"
                    )
                item_f[i] = rng.gamma(shape_i, 1.0 / rate_i, t)

    p_response = sigmoid(item_f @ model_f)
    if config.response_mode == "mean":
        scores = rng.binomial(config.repeats, p_response) / config.repeats
    else:
        scores = rng.binomial(1, p_response).astype(np.float64)
    p_mastery = sigmoid(model_f.T @ concept_f)

    return SimOutput(
        true_factors=FactorSet(item_f, model_f, concept_f),
        scores=scores,
        qmat=qmat,
        p_response=p_response,
        p_mastery=p_mastery,
        config=config,
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
    the tag matrix CSV, and truth.json with factors and probabilities.
    """
    from .bank import Concept, ConceptCatalog, Item, ItemBank, save_item_bank
    from .manifest import write_json
    from .responses import save_matrix_csv

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m, n = sim.scores.shape
    k = sim.qmat.shape[1]
    item_ids = _default_ids("item", m)
    model_ids = _default_ids("model", n)
    concept_ids = _default_ids("concept", k)

    catalog = ConceptCatalog(tuple(Concept(cid, cid) for cid in concept_ids))
    items = tuple(
        Item(
            item_id=item_ids[i],
            prompt=f"synthetic question {i}",
            answer_key="A",
            concept_tags=frozenset(
                concept_ids[kk] for kk in np.flatnonzero(sim.qmat[i])
            ),
        )
        for i in range(m)
    )
    paths: dict[str, Path] = {}
    paths["bank"] = out_dir / "bank.json"
    save_item_bank(ItemBank(items, catalog), paths["bank"])

    paths["scores"] = out_dir / "scores.csv"
    save_matrix_csv(sim.scores, item_ids, model_ids, paths["scores"], corner="item_id")
    paths["weights"] = out_dir / "weights.csv"
    save_matrix_csv(
        np.ones_like(sim.scores), item_ids, model_ids, paths["weights"], corner="item_id"
    )
    paths["qmatrix"] = out_dir / "qmatrix.csv"
    save_matrix_csv(sim.qmat, item_ids, concept_ids, paths["qmatrix"], corner="item_id")

    truth = {
        "config": sim.config.to_dict(),
        "item_skill": sim.true_factors.item_skill.tolist(),
        "skill_model": sim.true_factors.skill_model.tolist(),
        "skill_concept": sim.true_factors.skill_concept.tolist(),
        "p_response": sim.p_response.tolist(),
        "p_mastery": sim.p_mastery.tolist(),
    }
    paths["truth"] = out_dir / "truth.json"
    write_json(paths["truth"], truth)
    return paths
