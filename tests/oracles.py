"""Independent formulas the gates check cdmkit against, and fixture writers.

No cdmkit command runs these.  ``objective_gradients`` (gate 4) and
``auc_pairwise`` (gate 5) compute by a second route what the package computes
by its fast one; ``xml_char`` reads XML 1.0's ``Char`` production code point
by code point, where ``checked_ids`` uses one character class;
``save_item_bank`` and ``save_response_log`` write the input files the
loaders read, so tests can build them from objects.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from cdmkit import DegenerateDataError, FactorSet, ItemBank, McfConfig, ResponseLog
from cdmkit.bank import write_bank_json
from cdmkit.solver import _check_problem


def objective_gradients(
    factors: FactorSet,
    scores: NDArray[np.float64],
    weights: NDArray[np.float64],
    qmat: NDArray[np.float64],
    config: McfConfig,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Analytic gradients of the objective w.r.t. each factor.

    These justify the multiplicative rules (each rule is gradient descent with
    a positive per-entry step size).  They keep the direct residual form, so
    the finite-difference check compares the loss kernel of ``objective``
    against an independent formula.
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


def auc_pairwise(scores: NDArray[np.float64], labels: NDArray[np.int_]) -> float:
    """Brute-force oracle: average over every (positive, negative) pair."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    pos_scores = scores[labels == 1]
    neg_scores = scores[labels != 1]
    if pos_scores.size == 0 or neg_scores.size == 0:
        raise DegenerateDataError("AUC undefined: only one label class present")
    total = 0.0
    for p in pos_scores:
        for q in neg_scores:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos_scores.size * neg_scores.size)


def xml_char(char: str) -> bool:
    """Whether XML 1.0 can carry ``char`` (W3C XML 1.0 §2.2, ``Char``): tab,
    LF, CR, U+0020-U+D7FF, U+E000-U+FFFD and U+10000-U+10FFFF."""
    point = ord(char)
    return (point in (0x9, 0xA, 0xD) or 0x20 <= point <= 0xD7FF
            or 0xE000 <= point <= 0xFFFD or 0x10000 <= point <= 0x10FFFF)


def save_item_bank(bank: ItemBank, path: str | Path) -> None:
    """Write the bank as the JSON file ``load_item_bank`` reads."""
    write_bank_json(
        path,
        ((c.concept_id, c.label) for c in bank.catalog.concepts),
        (
            (item.item_id, item.prompt, item.answer_key, sorted(item.concept_tags))
            for item in bank.items
        ),
    )


def save_response_log(log_: ResponseLog, path: str | Path) -> None:
    """Write one JSON attempt record per line, as ``load_response_logs`` reads them."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in log_.entries:
            fh.write(
                json.dumps(
                    {
                        "model": log_.model_id,
                        "item": e.item_id,
                        "attempt": e.attempt_index,
                        "output": e.raw_output,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
                + "\n"
            )
