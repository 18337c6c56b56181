import numpy as np
import pytest

from cdmkit import (
    DinaParams,
    MasteryProfile,
    NumericalError,
    ValidationError,
    binarize_scores,
    dina_response_prob,
    em_fit,
    enumerate_profiles,
    infer_profile,
    infer_profiles,
    simulate_dina,
)
from cdmkit.dina import _gate_table


def test_response_prob_forced_cases():
    q_row = np.array([1.0, 1.0, 0.0])
    full = MasteryProfile((1, 1, 0))
    missing = MasteryProfile((1, 0, 1))
    assert dina_response_prob(full, q_row, slip=0.1, guess=0.2) == pytest.approx(0.9)
    assert dina_response_prob(missing, q_row, slip=0.1, guess=0.2) == pytest.approx(0.2)
    assert dina_response_prob(full, q_row, slip=0.0, guess=0.0) == 1.0


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
    responses = np.array([1.0, 1.0])
    params = DinaParams(np.zeros(2), np.zeros(2))
    inf = infer_profile(responses, qmat, params)
    assert inf.profile.alpha == (1, 0)
    assert inf.tie
    np.testing.assert_allclose(sorted(inf.posterior), [0.0, 0.0, 0.5, 0.5], atol=1e-12)
    assert inf.posterior.sum() == pytest.approx(1.0, abs=1e-12)


def test_batch_inference_matches_single():
    X, alpha, Q = simulate_dina(3, 12, 5, slip=0.15, guess=0.1, seed=8)
    params = DinaParams(np.full(12, 0.15), np.full(12, 0.1))
    prof, post, ties = infer_profiles(X, Q, params)
    for j in range(5):
        single = infer_profile(X[:, j], Q, params)
        assert tuple(int(a) for a in prof[j]) == single.profile.alpha
        np.testing.assert_allclose(post[:, j], single.posterior, atol=1e-12)
        assert ties[j] == single.tie


def test_non_binary_responses_rejected():
    Q = np.eye(2)
    with pytest.raises(ValidationError, match="binary"):
        infer_profile(np.array([0.5, 1.0]), Q, DinaParams(np.zeros(2), np.zeros(2)))


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

def test_binarize_rounds_half_up():
    scores = np.array([[0.49, 0.5, 0.51, 0.0, 1.0]])
    np.testing.assert_array_equal(
        binarize_scores(scores), np.array([[0.0, 1.0, 1.0, 0.0, 1.0]])
    )


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
