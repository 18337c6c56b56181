"""Evaluation metrics: reconstruction quality, mastery counts, agreement, clustering.

The AUC is the rank-based Mann-Whitney form; gate 5 requires it to agree to
1e-12 with a brute-force pairwise oracle kept in ``tests/oracles.py``.
Results hold no inputs: the distance, threshold or cluster count asked for
is the caller's (the CLI records it in ``manifest.json``), and the binarizing
threshold is the constant ``BINARIZE_THRESHOLD``.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateDataError, DimensionError, ValidationError
from .solver import MasteryMatrix

log = logging.getLogger(__name__)

BINARIZE_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# Reconstruction metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionReport:
    accuracy: float
    auc: float | None
    rmse: float
    n_cells: int


def average_ranks(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """1-based ranks of a 1-D array, ties sharing the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def auc_mann_whitney(scores: NDArray[np.float64], labels: NDArray[np.int_]) -> float:
    """Rank-based AUC with the standard half-credit for tied scores."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDataError("AUC undefined: only one label class present")
    ranks = average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def reconstruction_metrics(
    predicted: NDArray[np.float64],
    observed: NDArray[np.float64],
    weights: NDArray[np.float64] | None = None,
) -> ReconstructionReport:
    """Compare predicted scores against observed scores on observed cells.

    Labels binarize the observed scores at ``BINARIZE_THRESHOLD`` (exactly at
    the threshold counts as positive); accuracy binarizes the predictions the same
    way, AUC uses the raw predicted scores, RMSE uses raw values on both
    sides.  Cells with zero weight are excluded everywhere.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if predicted.shape != observed.shape:
        raise DimensionError(f"predicted {predicted.shape} vs observed {observed.shape}")
    if weights is None:
        mask = np.ones(predicted.shape, dtype=bool)
    else:
        weights = np.asarray(weights)
        if weights.shape != observed.shape:
            raise DimensionError(f"weights {weights.shape} vs observed {observed.shape}")
        mask = weights > 0
    pred = predicted[mask]
    obs = observed[mask]
    if pred.size == 0:
        raise DegenerateDataError("no observed cells to score")
    labels = obs >= BINARIZE_THRESHOLD
    pred_labels = pred >= BINARIZE_THRESHOLD
    accuracy = float((pred_labels == labels).mean())
    rmse = float(np.sqrt(((pred - obs) ** 2).mean()))
    if labels.min() == labels.max():
        log.warning("AUC undefined: all labels identical; reporting absent")
        auc = None
    else:
        auc = auc_mann_whitney(pred, labels)
    return ReconstructionReport(
        accuracy=accuracy,
        auc=auc,
        rmse=rmse,
        n_cells=int(pred.size),
    )


# ---------------------------------------------------------------------------
# Concept counts (threshold ranking)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConceptCountRow:
    model_id: str
    mastered_count: int
    total: int
    mean_score: float


def concept_counts(mastery: MasteryMatrix, threshold: float) -> tuple[ConceptCountRow, ...]:
    """Per-model count of concepts with mastery strictly above the threshold.

    Rows are sorted best-first: by count descending, then mean mastery
    descending, then model id.
    """
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold!r}")
    rows = []
    for j, model_id in enumerate(mastery.model_ids):
        row = mastery.prob[j]
        rows.append(
            ConceptCountRow(
                model_id=model_id,
                mastered_count=int((row > threshold).sum()),
                total=mastery.n_concepts,
                mean_score=float(row.mean()),
            )
        )
    rows.sort(key=lambda r: (-r.mastered_count, -r.mean_score, r.model_id))
    return tuple(rows)


def render_concept_table(rows: Sequence[ConceptCountRow]) -> str:
    """Aligned plain-text ranking: mastered-count fraction, model, mean mastery."""
    header = ("con", "model", "acc")
    cells = [
        (f"{r.mastered_count}/{r.total}", r.model_id, f"{r.mean_score:.4f}")
        for r in rows
    ]
    widths = [
        max(len(header[c]), *(len(row[c]) for row in cells)) if cells else len(header[c])
        for c in range(3)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Inter-annotator agreement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgreementReport:
    krippendorff_alpha: float
    n_units: int
    n_coders: int


def _nominal_distance(a: Hashable, b: Hashable) -> float:
    return 0.0 if a == b else 1.0


def _jaccard_distance(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    return 1.0 - len(a & b) / len(a | b)


# The one name -> distance table; ``agreement --distance`` offers its names.
DISTANCES = {
    "nominal": _nominal_distance,
    "jaccard": _jaccard_distance,
}


def _pair_disagreement(counts: Counter, delta: Callable[[Any, Any], float]) -> float:
    """Sum over unordered pairs of distinct values a, b of 2·n_a·n_b·δ(a, b)."""
    return sum(
        2.0 * n_a * n_b * delta(a, b)
        for (a, n_a), (b, n_b) in combinations(counts.items(), 2)
    )


def krippendorff_alpha(
    annotations: Sequence[Sequence[Hashable]],
    distance: str = "nominal",
) -> AgreementReport:
    """Chance-corrected agreement over a units-by-coders table.

    Missing codings are ``None``; a unit contributes only if at least two
    coders labelled it.  ``distance`` is "nominal" for atomic labels or
    "jaccard" for frozensets of labels (distance = 1 − overlap/union).

    alpha = 1 − D_o/D_e in the coincidence form: with n pairable values,
    D_o = Σ_u P(u)/(m_u − 1) / n over units u of m_u values, and
    D_e = P(all units pooled) / (n(n − 1)), where P sums 2·n_a·n_b·δ(a, b)
    over unordered pairs of distinct values.
    """
    delta = DISTANCES.get(distance)
    if delta is None:
        raise ValidationError(f"unknown distance {distance!r}")
    n_coders = max((len(row) for row in annotations), default=0)
    units = [Counter(v for v in row if v is not None) for row in annotations]
    pairable = [unit for unit in units if unit.total() >= 2]
    if n_coders < 2 or not pairable:
        raise ValidationError("need >= 2 coders and >= 1 unit with >= 2 codings")

    pooled: Counter = Counter()
    for unit in pairable:
        pooled.update(unit)
    n_values = pooled.total()
    observed = sum(
        _pair_disagreement(unit, delta) / (unit.total() - 1) for unit in pairable
    ) / n_values
    expected = _pair_disagreement(pooled, delta) / (n_values * (n_values - 1))
    if expected == 0.0:
        raise DegenerateDataError(
            "zero expected disagreement: all codings identical, alpha undefined"
        )
    return AgreementReport(
        krippendorff_alpha=1.0 - observed / expected,
        n_units=len(pairable),
        n_coders=n_coders,
    )


# ---------------------------------------------------------------------------
# Mastery-profile clustering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterResult:
    assignments: dict[str, int]          # model_id -> cluster label (left out: -1)
    merges: tuple[tuple[int, int, float], ...]


def cluster_models(mastery: MasteryMatrix, n_clusters: int) -> ClusterResult:
    """Agglomerative average-linkage clustering of mastery rows (cosine distance).

    scipy's ``linkage`` builds the tree; the result holds exactly
    ``n_clusters`` clusters, the ones left after the tree's first
    ``n - n_clusters`` merges, labelled 0.. in order of each cluster's first
    row.  Deterministic; merges of equal height come in scipy's order.
    All-zero rows have no direction and are left out: labelled -1 and named in
    a logged warning.  Fewer than 2 rows left raises ``DegenerateDataError``.
    The merge list is the full dendrogram in scipy-style ids (the n
    clustered rows 0..n-1, then one new id per merge).
    """
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import pdist

    if n_clusters < 1:
        raise ValidationError("n_clusters must be >= 1")
    rows = mastery.prob
    nonzero = rows.any(axis=1)
    keep = np.flatnonzero(nonzero).tolist()
    if len(keep) < len(nonzero):
        left_out = tuple(compress(mastery.model_ids, ~nonzero))
        log.warning("excluding all-zero mastery rows: %s", left_out)
    if len(keep) < 2:
        raise DegenerateDataError("need at least 2 non-zero mastery rows to cluster")
    if n_clusters > len(keep):
        raise ValidationError(
            f"n_clusters={n_clusters} exceeds the {len(keep)} clusterable rows"
        )

    # Cosine distance ignores scale.  Dividing each row by its largest entry
    # keeps the norm of a row of tiny (e.g. subnormal) entries from
    # underflowing to 0, which would make its distances non-finite.
    kept = rows[keep]
    # Condensed distances: linkage warns on square symmetric observations.
    tree = linkage(pdist(kept / kept.max(axis=1, keepdims=True), "cosine"), method="average")
    # Replay the merges up to the cut.  scipy's cut_tree re-sorts merges of
    # equal height, so its clusters can disagree with the merge list, and
    # fcluster(criterion="maxclust") can return fewer clusters than asked.
    cut = np.arange(len(keep))
    for step, pair in enumerate(tree[: len(keep) - n_clusters, :2]):
        cut[np.isin(cut, pair)] = len(keep) + step
    # Stable labels: clusters numbered by their smallest original row index.
    label_of: dict[int, int] = {}
    assignments = {mid: -1 for mid in mastery.model_ids}
    for i, c in zip(keep, cut.tolist()):
        assignments[mastery.model_ids[i]] = label_of.setdefault(c, len(label_of))
    return ClusterResult(
        assignments=assignments,
        merges=tuple((int(a), int(b), float(d)) for a, b, d, _ in tree),
    )
