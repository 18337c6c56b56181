import numpy as np
import pytest

from cdmkit import (
    DinaParams,
    ValidationError,
    em_fit,
    enumerate_profiles,
    infer_profiles,
    simulate_dina,
)
from cdmkit.dina import _gate_table, _loglik


def test_response_prob_forced_cases():
    # One item requiring the first two concepts; a correct answer's likelihood
    # is 1 - slip for a profile that masters both and guess for one that does not.
    q = np.array([[1.0, 1.0, 0.0]])
    profiles = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    gate = _gate_table(profiles, q)
    np.testing.assert_array_equal(gate, [[1.0], [0.0]])
    correct = np.ones((1, 1))
    p = np.exp(_loglik(correct, gate, DinaParams(np.array([0.1]), np.array([0.2]))))
    np.testing.assert_allclose(p[:, 0], [0.9, 0.2])
    # p is kept just below 1, so that the log of 1 - p stays finite.
    p = np.exp(_loglik(correct, gate, DinaParams(np.zeros(1), np.zeros(1))))
    assert p[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_profile_enumeration_is_lexicographic():
    profiles = enumerate_profiles(2)
    np.testing.assert_array_equal(
        profiles, np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    )


def test_too_many_concepts_redirects_to_factorization():
    with pytest.raises(ValidationError, match="factorization"):
        enumerate_profiles(17)


def test_noiseless_map_recovers_planted_exactly():
    X, alpha, Q = simulate_dina(4, 20, 12, slip=0.0, guess=0.0, seed=2)
    params = DinaParams(np.zeros(20), np.zeros(20))
    prof, post, ties = infer_profiles(X, Q, params)
    np.testing.assert_array_equal(prof, alpha)
    np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-12)


def test_noisy_map_recovery_rate():
    # 3 single-tag items per skill plus one conjunctive item; known parameters.
    Q = np.zeros((10, 3))
    for i in range(9):
        Q[i, i % 3] = 1.0
    Q[9] = 1.0
    params = DinaParams(np.full(10, 0.1), np.full(10, 0.1))
    rates = []
    for r in range(100):
        rng = np.random.default_rng(500 + r)
        alpha = rng.integers(0, 2, (8, 3)).astype(float)
        gate = _gate_table(alpha, Q)
        p = 0.9 * gate + 0.1 * (1.0 - gate)
        X = (rng.random((8, 10)) < p).T.astype(float)
        prof, _, _ = infer_profiles(X, Q, params)
        rates.append((prof == alpha).all(axis=1).mean())
    assert np.mean(rates) >= 0.9


def test_all_correct_two_skill_tie():
    # Both items require only the first skill; an all-correct learner leaves
    # the second skill unidentified.  Hand enumeration with s=g=0: profiles
    # (1,0) and (1,1) both have likelihood 1, the others 0, so the posterior
    # splits evenly and the reported MAP is the smaller profile with a tie flag.
    qmat = np.array([[1.0, 0.0], [1.0, 0.0]])
    responses = np.array([[1.0], [1.0]])
    params = DinaParams(np.zeros(2), np.zeros(2))
    prof, post, ties = infer_profiles(responses, qmat, params)
    np.testing.assert_array_equal(prof, [[1.0, 0.0]])
    assert ties.tolist() == [True]
    np.testing.assert_allclose(sorted(post[:, 0]), [0.0, 0.0, 0.5, 0.5], atol=1e-12)
    assert post[:, 0].sum() == pytest.approx(1.0, abs=1e-12)


def test_batch_inference_matches_single():
    X, alpha, Q = simulate_dina(3, 12, 5, slip=0.15, guess=0.1, seed=8)
    params = DinaParams(np.full(12, 0.15), np.full(12, 0.1))
    prof, post, ties = infer_profiles(X, Q, params)
    for j in range(5):
        one_prof, one_post, one_tie = infer_profiles(X[:, [j]], Q, params)
        np.testing.assert_array_equal(prof[j], one_prof[0])
        np.testing.assert_allclose(post[:, j], one_post[:, 0], atol=1e-12)
        assert ties[j] == one_tie[0]


def test_non_binary_responses_rejected():
    Q = np.eye(2)
    with pytest.raises(ValidationError, match="binary"):
        infer_profiles(np.array([[0.5], [1.0]]), Q, DinaParams(np.zeros(2), np.zeros(2)))


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------

def test_em_recovers_parameters_roughly():
    # Single replication, so the bound is looser than the averaged acceptance
    # run: one seed can land an item parameter ~0.1 off its truth.
    X, alpha, Q = simulate_dina(3, 30, 200, slip=0.1, guess=0.1, seed=77)
    with np.errstate(all="ignore"):
        res = em_fit(X, Q)
    assert np.abs(res.params.slip - 0.1).max() <= 0.15
    assert np.abs(res.params.guess - 0.1).max() <= 0.15
    assert res.converged


def test_em_loglik_non_decreasing():
    X, _, Q = simulate_dina(3, 25, 60, slip=0.2, guess=0.15, seed=5)
    res = em_fit(X, Q)
    trace = np.array(res.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


def _correlated_world(seed):
    """8 single-tag items, 16 with 1-3 tags; 30 models whose mastery shares a
    latent ability; slip = guess = 0.25."""
    rng = np.random.default_rng(seed)
    q = np.zeros((24, 8))
    q[:8] = np.eye(8)
    for i in range(8, 24):
        q[i, rng.choice(8, rng.integers(1, 4), replace=False)] = 1.0
    theta = rng.normal(size=(30, 1))
    alpha = (theta + rng.normal(size=(30, 8)) > 0).astype(np.float64)
    gate = _gate_table(alpha, q).T  # items x models
    return rng.binomial(1, 0.75 * gate + 0.25 * (1.0 - gate)).astype(np.float64), q


def test_em_capped_step_completes():
    # The cap guess <= PARAM_CEIL - slip binds here, which is no exact M-step;
    # keeping the better of the capped and previous parameters keeps EM monotone.
    X, Q = _correlated_world(2)
    res = em_fit(X, Q)
    assert res.clamped_items
    assert np.all(res.params.slip + res.params.guess < 1.0)


def test_em_zero_iters_keeps_initial_params():
    X, _, Q = simulate_dina(2, 6, 4, slip=0.1, guess=0.1, seed=1)
    res = em_fit(X, Q, max_iters=0)
    np.testing.assert_array_equal(res.params.slip, np.full(6, 0.2))
    np.testing.assert_array_equal(res.params.guess, np.full(6, 0.2))
    assert res.iterations_run == 0
    assert not res.converged


def test_em_clamps_degenerate_item_with_warning(caplog):
    X, _, Q = simulate_dina(2, 8, 30, slip=0.1, guess=0.1, seed=3)
    X[0] = 1.0  # every model answers item 0 correctly
    res = em_fit(X, Q)
    assert caplog.messages == [f"slip/guess clamped for degenerate item(s) {list(res.clamped_items)}"]
    assert 0 in res.clamped_items
    assert np.all(res.params.slip + res.params.guess < 1.0)


def test_em_shape_mismatch():
    with pytest.raises(ValidationError, match="rows"):
        em_fit(np.ones((4, 3)), np.eye(2))


def test_em_posteriors_normalized():
    X, _, Q = simulate_dina(3, 15, 20, slip=0.1, guess=0.1, seed=9)
    res = em_fit(X, Q)
    np.testing.assert_allclose(res.posteriors.sum(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValidationError, match=r"slip \+ guess"):
        DinaParams(np.array([0.6]), np.array([0.5]))
    with pytest.raises(ValidationError):
        DinaParams(np.array([1.0]), np.array([0.0]))


def test_simulate_dina_structure():
    X, alpha, Q = simulate_dina(3, 10, 6, slip=0.1, guess=0.1, seed=4)
    np.testing.assert_array_equal(Q[:3], np.eye(3))
    assert Q.sum(axis=1).min() >= 1
    assert set(np.unique(X)) <= {0.0, 1.0}
    X2, alpha2, Q2 = simulate_dina(3, 10, 6, slip=0.1, guess=0.1, seed=4)
    np.testing.assert_array_equal(X, X2)
    with pytest.raises(ValidationError, match="at least one item"):
        simulate_dina(5, 3, 4, slip=0.1, guess=0.1, seed=0)
