import csv
import io
import json
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdmkit import (
    FactorSet,
    FormatError,
    MasteryMatrix,
    McfConfig,
    NumericalError,
    SimConfig,
    ValidationError,
    fit,
    load_factors,
    load_mastery,
    mastery,
    multistart_fit,
    objective,
    predict_scores,
    recovery_score,
    save_factors,
    save_mastery,
    simulate,
)
from cdmkit.solver import EPSILON, _init_factors, _stack
from oracles import objective_gradients, xml_char


def _random_problem(rng, m=6, n=4, k=3, t=2):
    scores = rng.random((m, n))
    weights = rng.random((m, n))
    qmat = (rng.random((m, k)) < 0.5).astype(float)
    e = rng.random((m, t)) + 0.1
    u = rng.random((t, n)) + 0.1
    v = rng.random((t, k)) + 0.1
    return scores, weights, qmat, FactorSet(e, u, v)


def _objective_by_loops(factors, scores, weights, qmat, config):
    """Independent scalar-loop oracle for the fitted loss."""
    e, u, v = factors.item_skill, factors.skill_model, factors.skill_concept
    m, t = e.shape
    n = u.shape[1]
    k = v.shape[1]
    total = 0.0
    for i in range(m):
        for j in range(n):
            pred = 0.0
            for s in range(t):
                pred += e[i, s] * u[s, j]
            total += (weights[i, j] * (scores[i, j] - pred)) ** 2
    for i in range(m):
        for c in range(k):
            pred = 0.0
            for s in range(t):
                pred += e[i, s] * v[s, c]
            total += config.q_weight * (qmat[i, c] - pred) ** 2
    for i in range(m):
        for s in range(t):
            total += config.ridge_item * e[i, s] ** 2
    for s in range(t):
        for j in range(n):
            total += config.ridge_model * u[s, j] ** 2
    for s in range(t):
        for c in range(k):
            total += config.ridge_concept * v[s, c] ** 2
    return total


def _objective_direct(factors, scores, weights, qmat, config):
    """The loss from explicit residual matrices, without Gram identities."""
    e, u, v = factors.item_skill, factors.skill_model, factors.skill_concept
    r1 = weights * (scores - e @ u)
    r2 = qmat - e @ v
    return float(
        (r1 * r1).sum()
        + config.q_weight * (r2 * r2).sum()
        + config.ridge_item * (e * e).sum()
        + config.ridge_model * (u * u).sum()
        + config.ridge_concept * (v * v).sum()
    )


def _fit_reference(scores, weights, qmat, config):
    """Plain multiplicative updates with a direct-residual loss on every step.

    The textbook form of the rules ``fit`` implements: every product is formed
    where it is used and nothing is shared between the updates and the loss.
    Returns (trace, iterations, (E, U, V)).
    """
    beta = config.q_weight
    le, lu, lv = config.ridge_item, config.ridge_model, config.ridge_concept
    eps = EPSILON
    e, u, v = _init_factors(*scores.shape, qmat.shape[1], config)
    w2 = weights * weights

    def loss():
        return _objective_direct(FactorSet(e, u, v), scores, weights, qmat, config)

    trace = [loss()]
    iterations = 0
    for it in range(config.max_iters):
        e = e * (((w2 * scores) @ u.T + beta * (qmat @ v.T)) /
                 ((w2 * (e @ u)) @ u.T + beta * ((e @ v) @ v.T) + le * e + eps))
        u = u * ((e.T @ (w2 * scores)) /
                 (e.T @ (w2 * (e @ u)) + lu * u + eps))
        v = v * ((beta * (e.T @ qmat)) /
                 (beta * (e.T @ (e @ v)) + lv * v + eps))
        val = loss()
        iterations = it + 1
        trace.append(val)
        if trace[-2] - val < config.tol * abs(trace[-2]):
            break
    return trace, iterations, (e, u, v)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_all_zero_is_zero():
    f = FactorSet(np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 2)))
    cfg = McfConfig(n_skills=1)
    val = objective(f, np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 2)), cfg)
    assert val == 0.0


def test_objective_zero_factors_equals_data_norm():
    rng = np.random.default_rng(0)
    scores = rng.random((3, 4))
    weights = rng.random((3, 4))
    qmat = (rng.random((3, 2)) < 0.5).astype(float)
    f = FactorSet(np.zeros((3, 2)), np.zeros((2, 4)), np.zeros((2, 2)))
    cfg = McfConfig(
        n_skills=2, q_weight=1.0, ridge_item=0.0, ridge_model=0.0, ridge_concept=0.0
    )
    expected = ((weights * scores) ** 2).sum() + (qmat**2).sum()
    assert objective(f, scores, weights, qmat, cfg) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_objective_matches_scalar_loops(seed):
    rng = np.random.default_rng(seed)
    scores, weights, qmat, factors = _random_problem(rng)
    cfg = McfConfig(
        n_skills=2, q_weight=1.7, ridge_item=0.02, ridge_model=0.05, ridge_concept=0.01
    )
    fast = objective(factors, scores, weights, qmat, cfg)
    slow = _objective_by_loops(factors, scores, weights, qmat, cfg)
    assert fast == pytest.approx(slow, abs=1e-10)


def test_objective_dimension_mismatch():
    f = FactorSet(np.ones((2, 1)), np.ones((1, 3)), np.ones((1, 2)))
    with pytest.raises(Exception, match="rows"):
        objective(f, np.ones((2, 3)), np.ones((2, 3)), np.ones((5, 2)), McfConfig(n_skills=1))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    cfg = McfConfig(
        n_skills=2, q_weight=1.5, ridge_item=0.02, ridge_model=0.03, ridge_concept=0.04
    )
    step = 1e-5
    for _ in range(3):
        scores, weights, qmat, factors = _random_problem(rng)
        grads = objective_gradients(factors, scores, weights, qmat, cfg)
        mats = [factors.item_skill, factors.skill_model, factors.skill_concept]
        for which, (arr, grad) in enumerate(zip(mats, grads)):
            flat = arr.ravel()
            for idx in rng.choice(flat.size, size=4, replace=False):
                bumped = [m.copy() for m in mats]
                bumped[which].ravel()[idx] += step
                hi = objective(FactorSet(*bumped), scores, weights, qmat, cfg)
                bumped = [m.copy() for m in mats]
                bumped[which].ravel()[idx] -= step
                lo = objective(FactorSet(*bumped), scores, weights, qmat, cfg)
                fd = (hi - lo) / (2 * step)
                assert fd == pytest.approx(grad.ravel()[idx], rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_rank_one_planted_residual():
    rng = np.random.default_rng(2)
    e = rng.random((8, 1)) + 0.2
    u = rng.random((1, 5)) + 0.2
    scores = e @ u
    scores /= scores.max() * 1.05  # keep inside [0, 1]
    weights = np.ones_like(scores)
    qmat = np.ones((8, 1))
    cfg = McfConfig(
        n_skills=1, q_weight=0.0, ridge_item=0.0, ridge_model=0.0, ridge_concept=0.0,
        max_iters=5000, tol=1e-14, seed=3,
    )
    res = fit(scores, weights, qmat, cfg)
    recon = res.factors.item_skill @ res.factors.skill_model
    assert ((weights * (scores - recon)) ** 2).sum() <= 1e-6
    # predictions then match the data almost exactly
    np.testing.assert_allclose(predict_scores(res.factors).values, scores, atol=1e-3)


def test_fit_scale_consistency():
    # With no regularization, doubling the data doubles the fitted product.
    rng = np.random.default_rng(4)
    e = rng.random((8, 1)) + 0.2
    u = rng.random((1, 5)) + 0.2
    scores = e @ u
    scores /= scores.max() * 2.1  # max < 0.5 so the doubled copy stays valid
    weights = np.ones_like(scores)
    qmat = np.ones((8, 1))
    cfg = McfConfig(
        n_skills=1, q_weight=0.0, ridge_item=0.0, ridge_model=0.0, ridge_concept=0.0,
        max_iters=5000, tol=1e-14, seed=5,
    )
    res1 = fit(scores, weights, qmat, cfg)
    res2 = fit(2.0 * scores, weights, qmat, cfg)
    for res, data in ((res1, scores), (res2, 2.0 * scores)):
        recon = res.factors.item_skill @ res.factors.skill_model
        assert ((data - recon) ** 2).sum() <= 1e-6
    recon1 = res1.factors.item_skill @ res1.factors.skill_model
    recon2 = res2.factors.item_skill @ res2.factors.skill_model
    np.testing.assert_allclose(recon2, 2.0 * recon1, atol=5e-3)


def test_fit_trace_monotone_and_factors_nonnegative():
    rng = np.random.default_rng(7)
    scores = rng.random((12, 6))
    weights = rng.random((12, 6))
    qmat = (rng.random((12, 5)) < 0.4).astype(float)
    cfg = McfConfig(n_skills=3, max_iters=300, seed=1)
    res = fit(scores, weights, qmat, cfg)
    trace = np.array(res.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9)
    assert res.factors.item_skill.min() >= 0
    assert res.factors.skill_model.min() >= 0
    assert res.factors.skill_concept.min() >= 0


def test_fit_is_bitwise_deterministic():
    rng = np.random.default_rng(8)
    scores = rng.random((10, 4))
    weights = np.ones_like(scores)
    qmat = (rng.random((10, 3)) < 0.5).astype(float)
    cfg = McfConfig(n_skills=2, max_iters=50, seed=9)
    a = fit(scores, weights, qmat, cfg)
    b = fit(scores, weights, qmat, cfg)
    np.testing.assert_array_equal(a.factors.item_skill, b.factors.item_skill)
    np.testing.assert_array_equal(a.factors.skill_model, b.factors.skill_model)
    np.testing.assert_array_equal(a.factors.skill_concept, b.factors.skill_concept)
    assert a.objective_trace == b.objective_trace


def test_fit_zero_iters_returns_initial_factors():
    rng = np.random.default_rng(0)
    scores = rng.random((5, 3))
    cfg = McfConfig(n_skills=2, max_iters=0, seed=2)
    res = fit(scores, np.ones_like(scores), np.ones((5, 4)), cfg)
    assert len(res.objective_trace) == 1
    assert res.iterations_run == 0
    assert not res.converged
    # The start is unit-exponential draws from the seed: E, then U, then V.
    draws = np.random.default_rng(2)
    for shape, got in (((5, 2), res.factors.item_skill), ((2, 3), res.factors.skill_model),
                       ((2, 4), res.factors.skill_concept)):
        np.testing.assert_array_equal(got, draws.gamma(1.0, 1.0, shape))


@pytest.mark.parametrize("all_ones_weights", [False, True])
@pytest.mark.parametrize("q_weight", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("ridge", [0.0, 0.1])
def test_fit_matches_reference_updates(all_ones_weights, q_weight, ridge):
    # The shared products and Gram forms in fit change only rounding: the same
    # steps and stop as the textbook updates, to within 1e-10.
    seed = int(q_weight * 10 + ridge * 100 + all_ones_weights)
    rng = np.random.default_rng(seed)
    scores = rng.random((40, 12))
    weights = np.ones_like(scores) if all_ones_weights else rng.random((40, 12))
    qmat = (rng.random((40, 15)) < 0.4).astype(float)
    cfg = McfConfig(
        n_skills=4, q_weight=q_weight, ridge_item=ridge, ridge_model=ridge,
        ridge_concept=ridge, max_iters=400, tol=1e-5, seed=seed,
    )
    res = fit(scores, weights, qmat, cfg)
    trace, iterations, factors = _fit_reference(scores, weights, qmat, cfg)
    assert res.iterations_run == iterations
    np.testing.assert_allclose(res.objective_trace, trace, rtol=1e-10, atol=0)
    got = (res.factors.item_skill, res.factors.skill_model, res.factors.skill_concept)
    for a, b in zip(got, factors):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


def test_default_stop_rule_settles_on_held_out_world():
    # A gate-sized world on a seed the release gates do not use: the default
    # tol stops every start early, and the mastery ranking is already sound.
    sim = simulate(SimConfig(n_items=210, n_models=30, n_concepts=70, n_skills=5, seed=21))
    weights = np.ones_like(sim.scores)
    rhos = []
    for seed in range(8):
        res = fit(sim.scores, weights, sim.qmat, McfConfig(n_skills=5, seed=seed))
        assert res.converged and res.iterations_run < 500
        mm = mastery(res.factors)
        rhos.append(recovery_score(mm, sim).overall)
    assert np.mean(rhos) >= 0.9


def _fit_dense_problem(all_ones_weights):
    """Fit 400 items × 40 models × 150 concepts with half the tags set, and
    return the fitted objective and the one from explicit residuals."""
    rng = np.random.default_rng(12)
    scores = rng.random((400, 40))
    weights = rng.random((400, 40))
    if all_ones_weights:
        weights = np.ones_like(scores)
    qmat = (rng.random((400, 150)) < 0.5).astype(float)
    cfg = McfConfig(n_skills=8, max_iters=60, seed=4)
    res = fit(scores, weights, qmat, cfg)
    return res.objective, _objective_direct(res.factors, scores, weights, qmat, cfg)


def test_fit_objective_matches_direct_residuals_on_dense_problem():
    # The Gram form of the tag term cancels ||Q||² against the cross term; on a
    # dense, large Q that rounding is still far below the stop rule's tolerance.
    fitted, direct = _fit_dense_problem(all_ones_weights=False)
    assert fitted == pytest.approx(direct, rel=1e-12)


def test_unweighted_fit_objective_matches_direct_residuals_on_dense_problem():
    # With every weight 1 the score term takes the Gram form too: ⟨EU, EU⟩ as
    # ⟨EᵀE, UUᵀ⟩ costs rounding only.
    fitted, direct = _fit_dense_problem(all_ones_weights=True)
    assert fitted == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("all_ones_weights", [False, True])
@pytest.mark.parametrize("q_weight", [1.0, 0.3, 0.0, 5.0])
def test_objective_equals_the_last_trace_value(all_ones_weights, q_weight):
    # objective() takes the same path as fit, weighted or Gram form, so it
    # reproduces the trace's last value to the last bit.
    rng = np.random.default_rng(21)
    scores = rng.random((30, 9))
    weights = np.ones_like(scores) if all_ones_weights else rng.random((30, 9))
    qmat = (rng.random((30, 7)) < 0.4).astype(float)
    cfg = McfConfig(n_skills=3, q_weight=q_weight, max_iters=200, seed=5)
    res = fit(scores, weights, qmat, cfg)
    assert objective(res.factors, scores, weights, qmat, cfg) == res.objective


@pytest.mark.parametrize("q_weight", [1.0, 0.3])
def test_gram_form_agrees_with_the_weighted_path(q_weight):
    # One weight nudged to the largest double below 1 forces the weighted
    # path on otherwise all-ones weights; the two paths differ by rounding only.
    # A q_weight other than 1 checks that both scale the concept columns alike.
    rng = np.random.default_rng(22)
    scores = rng.random((60, 15))
    qmat = (rng.random((60, 20)) < 0.3).astype(float)
    ones = np.ones_like(scores)
    nudged = ones.copy()
    nudged[7, 3] = 1 - 2.0**-53
    cfg = McfConfig(n_skills=4, q_weight=q_weight, max_iters=500, seed=6)
    assert _stack(scores, ones, qmat, cfg)[0] is None
    assert _stack(scores, nudged, qmat, cfg)[0] is not None
    gram_form, weighted = fit(scores, ones, qmat, cfg), fit(scores, nudged, qmat, cfg)
    assert gram_form.iterations_run == weighted.iterations_run
    np.testing.assert_allclose(
        gram_form.objective_trace, weighted.objective_trace, rtol=1e-10, atol=0
    )
    for name in ("item_skill", "skill_model", "skill_concept"):
        np.testing.assert_allclose(
            getattr(gram_form.factors, name), getattr(weighted.factors, name), rtol=0, atol=1e-10
        )


def _fit_from_a_start_with(monkeypatch, factor, value):
    """Fit a small problem whose start holds ``value`` in one entry of factor 0, 1 or 2."""
    init = _init_factors

    def patched(*args):
        start = init(*args)
        start[factor][0, 0] = value
        return start

    monkeypatch.setattr("cdmkit.solver._init_factors", patched)
    rng = np.random.default_rng(3)
    scores = rng.random((8, 5))
    qmat = (rng.random((8, 4)) < 0.5).astype(float)
    return fit(scores, np.ones_like(scores), qmat, McfConfig(n_skills=2, seed=1))


@pytest.mark.parametrize("factor", [0, 1, 2], ids=["item", "model", "concept"])
def test_fit_stops_on_a_non_finite_factor(monkeypatch, factor):
    # An inf in any factor reaches E[0, 0] at the first update, as inf/inf or
    # inf·0, so the check names E's first cell rather than the factor that held it.
    message = "item factor at iteration 0: row 0, column 0 holds nan; factors must be finite"
    with np.errstate(invalid="ignore"), pytest.raises(
        NumericalError, match=f"^{re.escape(message)}$"
    ):
        _fit_from_a_start_with(monkeypatch, factor, np.inf)


@pytest.mark.parametrize("factor, name", [(0, "item"), (1, "model"), (2, "concept")])
def test_fit_stops_on_a_negative_factor_and_names_it(monkeypatch, factor, name):
    # A negative entry stays negative under a multiplicative step, and only
    # in the factor that held it: -1e-3 times the step's positive ratio.  The
    # ratio's last digits are left to the BLAS; the value is checked by number.
    with pytest.raises(NumericalError) as caught:
        _fit_from_a_start_with(monkeypatch, factor, -1e-3)
    where, value, rule = re.fullmatch(r"(.*) holds (\S+); (.*)", str(caught.value)).groups()
    assert (where, rule) == (f"{name} factor at iteration 0: row 0, column 0", "factors must be >= 0")
    assert repr(float(value)) == value and -1e-2 < float(value) < 0


def test_fit_rejects_all_zero_weights():
    with pytest.raises(ValidationError, match="nothing observed"):
        fit(np.zeros((3, 2)), np.zeros((3, 2)), np.ones((3, 1)), McfConfig(n_skills=1))


@pytest.mark.parametrize("items, models, skills, matrix", [
    (10_001, 1, 10_000, "10,001 x 10,000"),  # item_skill
    (1, 10_000, 10_000, "10,000 x 10,001"),  # [skill_model | skill_concept]
    (1, 1, 10_001, "10,001 x 10,001"),  # the skills x skills Gram matrix
])
def test_fit_refuses_a_matrix_past_the_cap_before_allocating_it(items, models, skills, matrix):
    # Each case passes the cap in one matrix only; 1e8 float64 entries are 800 MB.
    with pytest.raises(ValidationError) as caught:
        fit(np.ones((items, models)), np.ones((items, models)), np.ones((items, 1)),
            McfConfig(n_skills=skills))
    assert str(caught.value) == (
        f"n_skills {skills:,} makes a {matrix} matrix, more than the 100,000,000 "
        "elements one matrix may hold"
    )


def test_fit_rejects_out_of_range_inputs():
    cfg = McfConfig(n_skills=1)
    with pytest.raises(ValidationError, match="scores"):
        fit(np.array([[1.2]]), np.ones((1, 1)), np.ones((1, 1)), cfg)
    with pytest.raises(ValidationError, match="binary"):
        fit(np.ones((1, 1)), np.ones((1, 1)), np.array([[0.3]]), cfg)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="scores"):
            fit(np.array([[0.5, bad]]), np.ones((1, 2)), np.ones((1, 1)), cfg)
        with pytest.raises(ValidationError, match="weights"):
            fit(np.full((1, 2), 0.5), np.array([[1.0, bad]]), np.ones((1, 1)), cfg)


# ---------------------------------------------------------------------------
# multistart
# ---------------------------------------------------------------------------

def test_multistart_one_start_equals_fit():
    rng = np.random.default_rng(6)
    scores = rng.random((8, 4))
    weights = np.ones_like(scores)
    qmat = (rng.random((8, 3)) < 0.5).astype(float)
    cfg = McfConfig(n_skills=2, max_iters=60, seed=21)
    single = fit(scores, weights, qmat, cfg)
    multi = multistart_fit(scores, weights, qmat, cfg, starts=1)
    assert multi.seed == single.seed
    assert multi.objective_trace == single.objective_trace


def test_multistart_picks_the_best_seed():
    rng = np.random.default_rng(13)
    scores = rng.random((10, 5))
    weights = np.ones_like(scores)
    qmat = (rng.random((10, 4)) < 0.5).astype(float)
    cfg = McfConfig(n_skills=2, max_iters=40, seed=100)
    singles = [
        fit(scores, weights, qmat, McfConfig(n_skills=2, max_iters=40, seed=100 + s))
        for s in range(4)
    ]
    best = multistart_fit(scores, weights, qmat, cfg, starts=4)
    assert best.objective == min(s.objective for s in singles)
    assert best.objective <= min(s.objective for s in singles)


def test_multistart_zero_starts_rejected():
    with pytest.raises(ValidationError, match="starts"):
        multistart_fit(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 1)),
                       McfConfig(n_skills=1), starts=0)


# ---------------------------------------------------------------------------
# predictions and mastery
# ---------------------------------------------------------------------------

def test_predict_scores_dot_product():
    f = FactorSet(np.array([[1.0, 0.0]]), np.array([[0.7], [0.3]]), np.ones((2, 1)))
    pred = predict_scores(f)
    assert pred.values[0, 0] == pytest.approx(0.7)
    assert pred.n_clipped == 0


def test_predict_scores_clips_and_counts():
    f = FactorSet(np.array([[1.3]]), np.array([[1.0]]), np.ones((1, 1)))
    pred = predict_scores(f)
    assert pred.values[0, 0] == 1.0
    assert pred.n_clipped == 1


def test_mastery_raw_is_exact_product():
    rng = np.random.default_rng(3)
    f = FactorSet(rng.random((4, 2)), rng.random((2, 3)), rng.random((2, 5)))
    m = mastery(f)
    np.testing.assert_allclose(
        m.raw, f.skill_model.T @ f.skill_concept, atol=1e-12
    )


def test_mastery_minmax_global():
    u = np.array([[1.0, 2.0]])
    v = np.array([[1.0, 3.0]])
    m = mastery(FactorSet(np.ones((1, 1)), u, v))
    # raw = [[1,3],[2,6]]; global range [1,6]
    np.testing.assert_allclose(m.prob, np.array([[0.0, 0.4], [0.2, 1.0]]))


def test_mastery_constant_minmax_warns_and_zeroes(caplog):
    f = FactorSet(np.ones((1, 1)), np.ones((1, 2)), np.ones((1, 2)))
    m = mastery(f)
    assert caplog.messages == ["constant mastery matrix; minmax maps all entries to 0"]
    np.testing.assert_array_equal(m.prob, np.zeros((2, 2)))


def test_mastery_row_argmax_survives_normalization():
    rng = np.random.default_rng(23)
    f = FactorSet(rng.random((3, 2)), rng.random((2, 6)), rng.random((2, 4)))
    m = mastery(f)
    for j in range(m.n_models):
        top_raw = int(np.argmax(m.raw[j]))
        assert m.prob[j, top_raw] == pytest.approx(m.prob[j].max())


# ---------------------------------------------------------------------------
# config/factor validation and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_skills": 0},
        {"q_weight": -0.1},
        {"ridge_model": -1.0},
        {"tol": 0.0},
        {"ridge_concept": -1.0},
        {"max_iters": -1},
        {"q_weight": float("nan")},
        {"q_weight": float("inf")},
        {"ridge_item": float("nan")},
        {"tol": float("nan")},
        {"tol": float("inf")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValidationError):
        McfConfig(**kwargs)


def test_config_dict_round_trip():
    cfg = McfConfig(n_skills=5, q_weight=2.0, seed=44, tol=1e-6)
    assert McfConfig(**asdict(cfg)) == cfg


def test_factor_set_validation():
    with pytest.raises(ValidationError, match=re.escape(
        "item_skill: row 0, column 0 holds -0.1; factors must be >= 0"
    )):
        FactorSet(np.array([[-0.1]]), np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(NumericalError, match=re.escape(
        "item_skill: row 0, column 0 holds nan; factors must be finite"
    )):
        FactorSet(np.array([[np.nan]]), np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(Exception, match="skill axes"):
        FactorSet(np.ones((2, 2)), np.ones((3, 1)), np.ones((2, 1)))


def test_factor_csv_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    f = FactorSet(rng.random((4, 2)), rng.random((2, 3)), rng.random((2, 5)))
    save_factors(f, tmp_path)
    back = load_factors(tmp_path)
    np.testing.assert_array_equal(back.item_skill, f.item_skill)
    np.testing.assert_array_equal(back.skill_model, f.skill_model)
    np.testing.assert_array_equal(back.skill_concept, f.skill_concept)


def test_mastery_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(32)
    f = FactorSet(rng.random((4, 2)), rng.random((2, 3)), rng.random((2, 5)))
    m = mastery(f)
    save_mastery(m, tmp_path)
    back = load_mastery(tmp_path / "mastery.json")
    assert back.model_ids == m.model_ids
    np.testing.assert_array_equal(back.raw, m.raw)
    np.testing.assert_array_equal(back.prob, m.prob)


# Ids: non-empty text that XML 1.0 can carry (the rule checked_ids applies).
_ids = st.text(st.characters(exclude_categories=("Cs",)).filter(xml_char), min_size=1, max_size=6)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _mastery_matrices(draw):
    # A bundle's ids are distinct within each list.
    model_ids = draw(st.lists(_ids, min_size=0, max_size=5, unique=True))
    concept_ids = draw(st.lists(_ids, max_size=5, unique=True))
    shape = (len(model_ids), len(concept_ids))
    raw = draw(st.lists(_finite, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    prob = draw(st.lists(st.floats(0.0, 1.0), min_size=len(raw), max_size=len(raw)))
    return MasteryMatrix(
        np.array(raw, dtype=np.float64).reshape(shape),
        np.array(prob, dtype=np.float64).reshape(shape),
        tuple(model_ids), tuple(concept_ids),
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mastery_matrices())
def test_mastery_bundle_round_trip_property(tmp_path, m):
    save_mastery(m, tmp_path)
    back = load_mastery(tmp_path / "mastery.json")
    assert (back.model_ids, back.concept_ids) == (m.model_ids, m.concept_ids)
    for name in ("raw", "prob"):
        got, want = getattr(back, name), getattr(m, name)
        assert got.dtype == np.float64 and got.shape == want.shape
        # Bit patterns, so -0.0 and 0.0 differ.
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _mastery_files_per_cell(m):
    """The bytes of the three files save_mastery must write: csv rows of repr
    per cell, and json.dumps of the bundle's lists."""
    files = {}
    for name, matrix in (("mastery_raw.csv", m.raw), ("mastery_prob.csv", m.prob)):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["model_id", *m.concept_ids])
        for model_id, row in zip(m.model_ids, matrix.tolist()):
            writer.writerow([model_id, *map(repr, row)])
        files[name] = buf.getvalue()
    files["mastery.json"] = json.dumps({
        "format_version": 1, "model_ids": list(m.model_ids), "concept_ids": list(m.concept_ids),
        "raw": m.raw.tolist(), "prob": m.prob.tolist(),
    }, indent=2, sort_keys=True) + "\n"
    return {name: text.encode("utf-8") for name, text in files.items()}


def _tall_mastery():
    # 700 x 100 cells: more than one 65,536-cell block, with values that
    # repeat within and across blocks, -0.0 among them.
    rng = np.random.default_rng(33)
    prob = rng.choice([0.0, -0.0, 0.5, 0.1, 5e-324, 1.0], (700, 100))
    raw = np.where(rng.random((700, 100)) < 0.5, prob, rng.random((700, 100)) * 1e16)
    return MasteryMatrix(raw, prob, tuple(f'm"{j},' for j in range(700)),
                         tuple(f"c{k}" for k in range(100)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
# Ids that csv must quote: a comma, a quote, line breaks.
@example(MasteryMatrix(np.array([[1.5, -0.0], [1e22, 0.1]]), np.array([[1.0, 0.0], [0.25, -0.0]]),
                       ("a,b", 'q"x'), ("x\r\ny", "\n")))
@example(_tall_mastery())
@example(MasteryMatrix(np.zeros((2, 0)), np.zeros((2, 0)), ("m,0", "m1"), ()))
@example(MasteryMatrix(np.zeros((0, 2)), np.zeros((0, 2)), (), ("c,0", "c1")))
@given(_mastery_matrices())
def test_mastery_files_match_per_cell_oracle(tmp_path, m):
    paths = save_mastery(m, tmp_path)
    assert [p.name for p in paths] == ["mastery_raw.csv", "mastery_prob.csv", "mastery.json"]
    assert {p.name: p.read_bytes() for p in paths} == _mastery_files_per_cell(m)


def test_save_mastery_holds_one_block_of_text(tmp_path):
    # 300 models x 1000 concepts: one block of cell text at a time peaks near
    # 14 MB; holding a whole matrix's text peaks near 61 MB.
    raw = np.random.default_rng(34).random((300, 1000)) * 3
    m = MasteryMatrix(raw, raw / 3, tuple(f"m{j}" for j in range(300)),
                      tuple(f"c{k}" for k in range(1000)))
    tracemalloc.start()
    try:
        save_mastery(m, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"peak {peak} bytes"


def test_mastery_bundle_with_old_normalization_tag_loads(tmp_path):
    # Bundles written before mastery had one mapping carry a "normalization"
    # tag, and a "clip" one a prob capped at 1 rather than min-max scaled.
    bundle = tmp_path / "mastery.json"
    bundle.write_text(json.dumps({
        "format_version": 1, "normalization": "clip",
        "model_ids": ["m0", "m1"], "concept_ids": ["c0", "c1"],
        "raw": [[0.5, 1.4], [0.9, 2.0]], "prob": [[0.5, 1.0], [0.9, 1.0]],
    }))
    back = load_mastery(bundle)
    assert back.model_ids == ("m0", "m1") and back.concept_ids == ("c0", "c1")
    np.testing.assert_array_equal(back.raw, [[0.5, 1.4], [0.9, 2.0]])
    np.testing.assert_array_equal(back.prob, [[0.5, 1.0], [0.9, 1.0]])


@pytest.mark.parametrize("version", [99, 2, 0, True, 1.0, "1", None])
def test_mastery_bundle_with_other_format_version_rejected(tmp_path, version):
    m = mastery(FactorSet(np.ones((3, 2)), np.ones((2, 2)), np.ones((2, 3))))
    save_mastery(m, tmp_path)
    bundle = tmp_path / "mastery.json"
    payload = json.loads(bundle.read_text())
    payload["format_version"] = version
    bundle.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=re.escape(f"{bundle}: unsupported format_version")):
        load_mastery(bundle)
