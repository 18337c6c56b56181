import numpy as np
import pytest

from cdmkit import (
    Concept,
    ConceptCatalog,
    DegenerateDataError,
    Item,
    ItemBank,
    MasteryMatrix,
    SimConfig,
    ValidationError,
    load_item_bank,
    load_response_matrix,
    qmatrix,
    recovery_score,
    save_item_bank,
    save_sim_output,
    simulate,
)
from cdmkit.responses import load_matrix_csv
from cdmkit.simulate import GAMMA_ITEM, MAX_MATRIX_ELEMENTS, REPEATS, sigmoid


def _small(seed=0, **overrides):
    kw = dict(n_items=30, n_models=6, n_concepts=8, n_skills=3, seed=seed)
    kw.update(overrides)
    return SimConfig(**kw)


def test_sigmoid_at_zero():
    assert sigmoid(np.array(0.0)) == 0.5


def test_simulate_is_bit_deterministic():
    a = simulate(_small(seed=12))
    b = simulate(_small(seed=12))
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.qmat, b.qmat)
    np.testing.assert_array_equal(a.true_factors.item_skill, b.true_factors.item_skill)
    np.testing.assert_array_equal(a.p_mastery, b.p_mastery)


def test_different_seeds_differ():
    a = simulate(_small(seed=1))
    b = simulate(_small(seed=2))
    assert not np.array_equal(a.scores, b.scores)


def test_q_rows_are_binary_and_nonempty():
    sim = simulate(_small(seed=5))
    assert set(np.unique(sim.qmat)) <= {0.0, 1.0}
    assert sim.qmat.sum(axis=1).min() >= 1


def test_mean_mode_scores_on_grid():
    sim = simulate(_small(seed=3))
    grid = {round(i / REPEATS, 10) for i in range(REPEATS + 1)}
    assert {round(float(v), 10) for v in sim.scores.ravel()} <= grid


def test_empirical_mean_tracks_response_probability():
    # Monte-Carlo at the acceptance fixture size: mean of the averaged draws
    # stays within 3 standard errors of the mean planted probability.
    config = SimConfig(n_items=210, n_models=30, n_concepts=70, n_skills=5, seed=7)
    sim = simulate(config)
    p = sim.p_response
    n_cells = p.size
    se_of_mean = float(np.sqrt((p * (1 - p)).sum() / REPEATS) / n_cells)
    assert abs(sim.scores.mean() - p.mean()) <= 3 * se_of_mean


def test_item_prior_mean():
    # Gamma(shape, rate) has mean shape/rate and variance shape/rate**2; check
    # the sampled item factor block at 1e5 draws.  With 20 skills every item
    # tags a concept at its first draw, so no row is redrawn.
    config = SimConfig(n_items=5000, n_models=2, n_concepts=3, n_skills=20, seed=6)
    sim = simulate(config)
    draws = sim.true_factors.item_skill.ravel()
    assert draws.size == 100_000
    shape, rate = GAMMA_ITEM
    assert abs(draws.mean() - shape / rate) <= 3.0 * np.sqrt(shape) / rate / np.sqrt(draws.size)


def test_threshold_resample_exhaustion_errors():
    # One small concept loading keeps every tag probability below the
    # threshold, so row resampling must give up with a diagnostic.
    config = SimConfig(n_items=3, n_models=2, n_concepts=1, n_skills=1, seed=3)
    with pytest.raises(DegenerateDataError, match="threshold"):
        simulate(config)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_items": 0},
        {"n_skills": 0},
        {"n_models": 0},
        {"n_concepts": 0},
        {"n_items": -1},
        {"n_models": 10**30},
        {"n_concepts": 10**30},
        {"n_skills": 10**30},
        {"n_items": 10**30},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValidationError):
        _small(**kwargs)


def test_config_size_cap_is_inclusive():
    # Only the config is built; nothing of that size is allocated.
    SimConfig(n_items=MAX_MATRIX_ELEMENTS, n_models=1, n_concepts=1, n_skills=1)
    with pytest.raises(ValidationError, match="n_items x n_models"):
        SimConfig(n_items=MAX_MATRIX_ELEMENTS, n_models=2, n_concepts=1, n_skills=1)


# ---------------------------------------------------------------------------
# recovery scoring
# ---------------------------------------------------------------------------

def _as_mastery(prob, truth):
    return MasteryMatrix(
        raw=prob.copy(),
        prob=prob,
        model_ids=tuple(f"m{j}" for j in range(prob.shape[0])),
        concept_ids=tuple(f"c{k}" for k in range(prob.shape[1])),
    )


def test_recovery_of_truth_is_one():
    sim = simulate(_small(seed=9))
    rec = recovery_score(_as_mastery(sim.p_mastery.copy(), sim), sim)
    assert rec.overall == pytest.approx(1.0)
    assert rec.n_excluded == 0
    np.testing.assert_allclose(rec.per_model, 1.0)


def test_recovery_of_reversal_is_minus_one():
    sim = simulate(_small(seed=9))
    flipped = sim.p_mastery.max() + sim.p_mastery.min() - sim.p_mastery
    flipped = np.clip(flipped, 0.0, 1.0)
    rec = recovery_score(_as_mastery(flipped, sim), sim)
    np.testing.assert_allclose(rec.per_model, -1.0)


def test_recovery_excludes_constant_rows_with_warning(caplog):
    sim = simulate(_small(seed=9))
    fitted = sim.p_mastery.copy()
    fitted[2] = 0.5
    rec = recovery_score(_as_mastery(fitted, sim), sim)
    assert caplog.messages == ["1 model row(s) had undefined rank correlation"]
    assert rec.n_excluded == 1
    assert np.isnan(rec.per_model[2])
    assert rec.overall == pytest.approx(1.0)


def test_recovery_all_constant_is_degenerate(caplog):
    sim = simulate(_small(seed=9))
    fitted = np.full_like(sim.p_mastery, 0.25)
    with pytest.raises(DegenerateDataError):
        recovery_score(_as_mastery(fitted, sim), sim)
    assert caplog.messages == [f"{len(fitted)} model row(s) had undefined rank correlation"]


def test_recovery_shape_mismatch():
    sim = simulate(_small(seed=9))
    short = sim.p_mastery[:, :-1].copy()
    with pytest.raises(ValidationError):
        recovery_score(_as_mastery(short, sim), sim)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_sim_output_round_trips(tmp_path):
    sim = simulate(_small(seed=4))
    save_sim_output(sim, tmp_path)
    for name in ("bank.json", "scores.csv", "weights.csv", "qmatrix.csv", "truth.json"):
        assert (tmp_path / name).exists(), name
    bank = load_item_bank(tmp_path / "bank.json")
    assert len(bank) == sim.scores.shape[0]
    tags, _, _ = load_matrix_csv(tmp_path / "qmatrix.csv")
    np.testing.assert_array_equal(qmatrix(bank), tags)
    np.testing.assert_array_equal(qmatrix(bank), sim.qmat)
    rm = load_response_matrix(tmp_path / "scores.csv", tmp_path / "weights.csv")
    np.testing.assert_array_equal(rm.scores, sim.scores)
    np.testing.assert_array_equal(rm.weights, np.ones_like(sim.scores))


@pytest.mark.parametrize("n_concepts", [9, 10, 11, 101])
def test_sim_bank_is_item_bank_bytes(tmp_path, n_concepts):
    # The concept counts cross the widths the ids are zero-padded to.
    sim = simulate(_small(seed=4, n_concepts=n_concepts))
    save_sim_output(sim, tmp_path / "sim")
    tags, item_ids, concept_ids = load_matrix_csv(tmp_path / "sim" / "qmatrix.csv")
    bank = ItemBank(
        items=tuple(
            Item(item_id, f"synthetic question {i}", "A",
                 frozenset(c for c, tag in zip(concept_ids, row) if tag))
            for i, (item_id, row) in enumerate(zip(item_ids, tags))
        ),
        catalog=ConceptCatalog(tuple(Concept(c, c) for c in concept_ids)),
    )
    save_item_bank(bank, tmp_path / "bank.json")
    assert (tmp_path / "sim" / "bank.json").read_bytes() == (tmp_path / "bank.json").read_bytes()
    np.testing.assert_array_equal(qmatrix(load_item_bank(tmp_path / "sim" / "bank.json")), sim.qmat)
