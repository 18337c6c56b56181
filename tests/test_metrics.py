import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdmkit import (
    DegenerateDataError,
    MasteryMatrix,
    ValidationError,
    auc_mann_whitney,
    auc_pairwise,
    cluster_models,
    concept_counts,
    krippendorff_alpha,
    reconstruction_metrics,
    render_concept_table,
)
from cdmkit.metrics import average_ranks


def _mm(prob, model_ids=None):
    prob = np.asarray(prob, dtype=np.float64)
    n, k = prob.shape
    return MasteryMatrix(
        raw=prob.copy(),
        prob=prob,
        model_ids=tuple(model_ids or (f"m{j}" for j in range(n))),
        concept_ids=tuple(f"c{i}" for i in range(k)),
    )


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------

def test_auc_hand_counted_three_cells():
    scores = np.array([0.9, 0.8, 0.3])
    assert auc_mann_whitney(scores, np.array([1, 1, 0])) == 1.0
    assert auc_mann_whitney(scores, np.array([1, 0, 1])) == 0.5
    assert auc_pairwise(scores, np.array([1, 1, 0])) == 1.0
    assert auc_pairwise(scores, np.array([1, 0, 1])) == 0.5


def test_auc_tie_credit():
    scores = np.array([0.5, 0.5])
    labels = np.array([1, 0])
    assert auc_mann_whitney(scores, labels) == 0.5
    assert auc_pairwise(scores, labels) == 0.5


@pytest.mark.parametrize("seed", range(20))
def test_auc_fast_equals_pairwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    # Coarse grid forces plenty of ties.
    scores = rng.integers(0, 5, n) / 4.0
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    fast = auc_mann_whitney(scores, labels)
    slow = auc_pairwise(scores, labels)
    assert fast == pytest.approx(slow, abs=1e-12)


# Any finite floats, and draws from four values so that most entries tie.
_rank_inputs = st.one_of(
    st.lists(st.floats(allow_nan=False), max_size=50),
    st.lists(st.sampled_from([-1.0, 0.0, 0.25, 1.0]), max_size=50),
)


@settings(max_examples=300, deadline=None)
@given(_rank_inputs)
def test_average_ranks_equal_rankdata(values):
    from scipy.stats import rankdata

    values = np.array(values, dtype=np.float64)
    np.testing.assert_array_equal(average_ranks(values), rankdata(values))


def test_auc_single_class_is_degenerate():
    with pytest.raises(DegenerateDataError):
        auc_mann_whitney(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(DegenerateDataError):
        auc_pairwise(np.array([0.1, 0.2]), np.array([0, 0]))


# ---------------------------------------------------------------------------
# reconstruction metrics
# ---------------------------------------------------------------------------

def test_perfect_reconstruction():
    rng = np.random.default_rng(1)
    observed = rng.integers(0, 2, (6, 5)).astype(float)
    rep = reconstruction_metrics(observed.copy(), observed)
    assert rep.accuracy == 1.0
    assert rep.auc == 1.0
    assert rep.rmse == 0.0
    assert rep.n_cells == 30


def test_accuracy_plus_error_is_one():
    rng = np.random.default_rng(2)
    observed = rng.integers(0, 2, (8, 4)).astype(float)
    predicted = rng.integers(0, 2, (8, 4)).astype(float)
    rep = reconstruction_metrics(predicted, observed)
    error_rate = float((predicted != observed).mean())
    assert rep.accuracy + error_rate == pytest.approx(1.0)


def test_rmse_invariant_under_permutation():
    rng = np.random.default_rng(3)
    observed = rng.random((7, 5))
    predicted = rng.random((7, 5))
    rows = rng.permutation(7)
    cols = rng.permutation(5)
    a = reconstruction_metrics(predicted, observed)
    b = reconstruction_metrics(
        predicted[np.ix_(rows, cols)], observed[np.ix_(rows, cols)]
    )
    assert a.rmse == pytest.approx(b.rmse, abs=1e-12)
    assert a.accuracy == pytest.approx(b.accuracy)


def test_boolean_labels_give_the_int_label_figures():
    # Scores on a grid of tenths, so that predictions tie and sit at the threshold.
    rng = np.random.default_rng(4)
    observed = rng.integers(0, 11, (9, 7)) / 10
    predicted = rng.integers(0, 11, (9, 7)) / 10
    labels = (observed >= 0.5).astype(int)
    rep = reconstruction_metrics(predicted, observed)
    assert rep.accuracy == float(((predicted >= 0.5).astype(int) == labels).mean())
    assert rep.auc == auc_mann_whitney(predicted, labels)
    assert rep.rmse == float(np.sqrt(((predicted - observed) ** 2).mean()))


def test_zero_weight_cells_are_ignored():
    observed = np.array([[1.0, 0.0], [0.0, 0.0]])
    predicted = np.array([[1.0, 0.0], [0.77, 0.0]])
    weights = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = reconstruction_metrics(predicted, observed, weights)
    assert rep.n_cells == 3
    assert rep.rmse == 0.0
    assert rep.accuracy == 1.0


def test_uniform_labels_report_absent_auc(caplog):
    observed = np.ones((2, 2))
    rep = reconstruction_metrics(np.full((2, 2), 0.8), observed)
    assert caplog.messages == ["AUC undefined: all labels identical; reporting absent"]
    assert rep.auc is None
    assert rep.accuracy == 1.0  # 0.8 binarizes to 1


def test_no_observed_cells_is_degenerate():
    with pytest.raises(DegenerateDataError):
        reconstruction_metrics(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))


def test_shape_mismatch_rejected():
    with pytest.raises(Exception, match="vs observed"):
        reconstruction_metrics(np.ones((2, 2)), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# concept counts
# ---------------------------------------------------------------------------

def test_saturated_counts():
    rep = concept_counts(_mm(np.ones((2, 70))), threshold=0.9)
    assert all(r.mastered_count == 70 and r.total == 70 for r in rep.rows)


def test_boundary_is_strict():
    rep = concept_counts(_mm(np.full((3, 5), 0.9)), threshold=0.9)
    assert all(r.mastered_count == 0 for r in rep.rows)


def test_sorted_descending_with_ties():
    prob = np.array(
        [
            [0.95, 0.2, 0.2],   # 1 mastered, low mean
            [0.95, 0.95, 0.2],  # 2 mastered
            [0.95, 0.5, 0.5],   # 1 mastered, higher mean
        ]
    )
    rep = concept_counts(_mm(prob, model_ids=("alpha", "beta", "gamma")), threshold=0.9)
    assert [r.model_id for r in rep.rows] == ["beta", "gamma", "alpha"]


def test_counts_monotone_in_threshold():
    rng = np.random.default_rng(4)
    mm = _mm(rng.random((6, 12)))
    prev = {r.model_id: r.mastered_count for r in concept_counts(mm, 0.3).rows}
    for thr in (0.5, 0.7, 0.9):
        cur = {r.model_id: r.mastered_count for r in concept_counts(mm, thr).rows}
        assert all(cur[m] <= prev[m] for m in cur)
        prev = cur


def test_render_table_shape():
    prob = np.zeros((2, 70))
    prob[0, :40] = 0.95
    text = render_concept_table(
        concept_counts(_mm(prob, model_ids=("best", "worst")), threshold=0.9)
    )
    lines = text.splitlines()
    assert lines[0].split() == ["con", "model", "acc"]
    assert "40/70" in lines[1] and "best" in lines[1]
    assert "0/70" in lines[2] and "worst" in lines[2]


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def test_alpha_perfect_agreement_is_exactly_one():
    table = [["x", "x", "x"] if i % 2 else ["y", "y", "y"] for i in range(10)]
    rep = krippendorff_alpha(table)
    assert rep.krippendorff_alpha == 1.0
    assert rep.n_units == 10
    assert rep.n_coders == 3


def test_alpha_relabeling_invariance():
    rng = np.random.default_rng(7)
    table = [[str(rng.integers(0, 3)), str(rng.integers(0, 3))] for _ in range(200)]
    base = krippendorff_alpha(table).krippendorff_alpha
    mapping = {"0": "red", "1": "green", "2": "blue"}
    relabeled = [[mapping[v] for v in row] for row in table]
    assert krippendorff_alpha(relabeled).krippendorff_alpha == base


def test_alpha_near_zero_at_chance():
    rng = np.random.default_rng(8)
    table = [[int(rng.integers(0, 2)), int(rng.integers(0, 2))] for _ in range(2000)]
    assert abs(krippendorff_alpha(table).krippendorff_alpha) <= 0.08


def test_alpha_missing_codings_and_unit_filtering():
    table = [
        ["a", "a", None],
        ["b", None, None],  # single coding: not pairable
        ["a", "b", "a"],
    ]
    rep = krippendorff_alpha(table)
    assert rep.n_units == 2
    assert rep.krippendorff_alpha < 1.0


def test_alpha_jaccard_sets():
    table = [
        [frozenset("ab"), frozenset("ab")],
        [frozenset("c"), frozenset("c")],
    ]
    assert krippendorff_alpha(table, distance="jaccard").krippendorff_alpha == 1.0
    partial = [
        [frozenset("ab"), frozenset("a")],
        [frozenset("c"), frozenset("c")],
        [frozenset("ab"), frozenset("ab")],
    ]
    rep = krippendorff_alpha(partial, distance="jaccard")
    assert 0.0 < rep.krippendorff_alpha < 1.0


def test_alpha_krippendorff_2011_worked_example():
    # "Computing Krippendorff's Alpha-Reliability" (2011), nominal data:
    # 4 observers x 12 units, missing codings included; published alpha = .743.
    observers = [
        "1 2 3 3 2 1 4 1 2 . . .",
        "1 2 3 3 2 2 4 1 2 5 . 3",
        ". 3 3 3 2 3 4 2 2 5 1 .",
        "1 2 3 3 2 4 4 1 2 5 1 .",
    ]
    codings = [[None if v == "." else v for v in line.split()] for line in observers]
    table = [list(unit) for unit in zip(*codings)]
    rep = krippendorff_alpha(table)
    assert rep.krippendorff_alpha == 0.743421052631579
    assert (rep.n_units, rep.n_coders) == (11, 4)


def test_alpha_jaccard_by_hand():
    # Pooled values {a,b} x3, {a} x1, {c} x2 (n = 6); delta({a,b},{a}) = 1/2,
    # delta against {c} = 1.  D_o = (2 * 1/2) / 6 = 1/6; D_e = (2*3*1*1/2 +
    # 2*3*2 + 2*1*2) / 30 = 19/30; alpha = 1 - (1/6)/(19/30) = 14/19.
    table = [
        [frozenset("ab"), frozenset("a")],
        [frozenset("c"), frozenset("c")],
        [frozenset("ab"), frozenset("ab")],
    ]
    rep = krippendorff_alpha(table, distance="jaccard")
    assert rep.krippendorff_alpha == pytest.approx(14 / 19)


def test_alpha_degenerate_single_category():
    with pytest.raises(DegenerateDataError, match="expected disagreement"):
        krippendorff_alpha([["x", "x"], ["x", "x"]])


def test_alpha_input_validation():
    with pytest.raises(ValidationError):
        krippendorff_alpha([["a"], ["b"]])  # never two codings on a unit
    with pytest.raises(ValidationError, match="distance"):
        krippendorff_alpha([["a", "b"]], distance="hamming")


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_identical_rows_merge_first_at_zero():
    prob = np.array([[0.2, 0.8], [0.9, 0.1], [0.2, 0.8]])
    res = cluster_models(_mm(prob), n_clusters=2)
    a, b, d = res.merges[0]
    assert (a, b) == (0, 2)
    assert d == pytest.approx(0.0, abs=1e-12)
    assert res.assignments["m0"] == res.assignments["m2"] != res.assignments["m1"]


def test_orthogonal_rows_distance_one():
    prob = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = cluster_models(_mm(prob), n_clusters=1)
    assert res.merges[0][2] == pytest.approx(1.0)


def test_tie_breaks_to_lowest_index_pair():
    prob = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    res = cluster_models(_mm(prob), n_clusters=1)
    assert res.merges[0][:2] == (0, 1)


def test_planted_archetypes_recovered():
    rng = np.random.default_rng(11)
    base_a = np.array([0.9, 0.8, 0.1, 0.1, 0.05])
    base_b = np.array([0.05, 0.1, 0.85, 0.9, 0.8])
    rows = []
    truth = []
    for j in range(20):
        base = base_a if j % 2 == 0 else base_b
        truth.append(j % 2)
        rows.append(np.clip(base + rng.normal(0, 0.05, 5), 0, 1))
    res = cluster_models(_mm(np.array(rows)), n_clusters=2)
    got = np.array([res.assignments[f"m{j}"] for j in range(20)])
    truth = np.array(truth)
    purity = max((got == truth).mean(), (got == 1 - truth).mean())
    assert purity >= 0.9


def test_all_zero_rows_excluded_with_warning(caplog):
    prob = np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.9]])
    res = cluster_models(_mm(prob), n_clusters=2)
    assert caplog.messages == ["excluding all-zero mastery rows: ('m0',)"]
    assert res.excluded == ("m0",)
    assert res.assignments["m0"] == -1
    assert {res.assignments["m1"], res.assignments["m2"]} == {0, 1}


def test_cluster_validation(caplog):
    with pytest.raises(ValidationError, match="exceeds"):
        cluster_models(_mm(np.array([[0.5, 0.1], [0.1, 0.5]])), n_clusters=3)
    with pytest.raises(ValidationError, match="n_clusters"):
        cluster_models(_mm(np.array([[0.5, 0.1], [0.1, 0.5]])), n_clusters=0)
    with pytest.raises(DegenerateDataError, match="at least 2"):
        cluster_models(_mm(np.array([[0.0, 0.0], [0.1, 0.5]])), n_clusters=1)
    assert caplog.messages == ["excluding all-zero mastery rows: ('m0',)"]


def test_cluster_labels_follow_row_order():
    prob = np.array([[0.9, 0.05], [0.05, 0.9], [0.88, 0.06], [0.04, 0.92]])
    res = cluster_models(_mm(prob), n_clusters=2)
    # Cluster containing row 0 gets label 0.
    assert res.assignments["m0"] == 0
    assert res.assignments["m2"] == 0
    assert res.assignments["m1"] == 1
    assert res.assignments["m3"] == 1


def test_square_symmetric_mastery_clusters_without_warning():
    # A square, symmetric, zero-diagonal matrix is still a matrix of observations.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cluster_models(_mm(np.array([[0.0, 1.0], [1.0, 0.0]])), n_clusters=1)
    assert res.merges == ((0, 1, 1.0),)
    assert res.assignments == {"m0": 0, "m1": 0}


# Continuous values, values from a three-point grid (many equal distances),
# and rows copied from a few base rows (zero distances); all-zero rows occur
# in each and are excluded.
_continuous = st.floats(0.0, 1.0)
_tie_heavy = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def _clustering_cases(draw):
    n_cols = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["continuous", "tie-heavy", "duplicated"]))
    value = _tie_heavy if kind == "tie-heavy" else _continuous
    row = st.lists(value, min_size=n_cols, max_size=n_cols)
    if kind == "duplicated":
        row = st.sampled_from(draw(st.lists(row, min_size=1, max_size=3)))
    prob = np.array(draw(st.lists(row, min_size=2, max_size=12)))
    n_kept = int(np.any(prob != 0, axis=1).sum())
    return prob, draw(st.integers(1, max(n_kept, 1)))


@settings(max_examples=300, deadline=None)
# Equal heights: cut_tree's clusters disagree with the merge list here, and
# fcluster(criterion="maxclust") returns 2 clusters.
@example((np.array([[0.0, 1.0]] * 2 + [[1.0, 0.0]] * 3), 4))
# Tiny entries: an unscaled norm underflows to 0.
@example((np.array([[1.0], [3e-290]]), 1))
@given(_clustering_cases())
def test_cluster_models_is_average_linkage(case):
    prob, n_clusters = case
    keep = np.flatnonzero(np.any(prob != 0, axis=1))
    assume(keep.size >= 2)
    res = cluster_models(_mm(prob), n_clusters=n_clusters)
    labels = np.array([res.assignments[f"m{j}"] for j in range(len(prob))])
    assert sorted(set(labels[keep])) == list(range(n_clusters))
    assert labels[keep[0]] == 0
    assert np.all(np.delete(labels, keep) == -1)

    # Replay the merges against cosine distances computed here: each height
    # is the mean distance between the two merged clusters' members.
    # Rows are scaled to a largest entry of 1 first, so tiny rows keep a norm.
    rows = prob[keep] / prob[keep].max(axis=1, keepdims=True)
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    dist = 1.0 - unit @ unit.T
    members = {i: [i] for i in range(keep.size)}
    heights = []
    for step, (a, b, d) in enumerate(res.merges):
        if step == keep.size - n_clusters:
            # The cut: the clusters still unmerged are the labelled clusters.
            got = sorted(sorted(np.flatnonzero(labels[keep] == c)) for c in range(n_clusters))
            assert got == sorted(sorted(m) for m in members.values())
        assert d == pytest.approx(dist[np.ix_(members[a], members[b])].mean(), abs=1e-12)
        members[keep.size + step] = members.pop(a) + members.pop(b)
        heights.append(d)
    assert len(res.merges) == keep.size - 1
    assert np.all(np.diff(heights) >= 0)
