"""Release-gate checks for the whole toolkit.

Ten end-to-end gates, one per test, each printing a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them).  The bounds
are the ship criteria; they are asserted, not just reported.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cdmkit import (
    DinaParams,
    FactorSet,
    MasteryMatrix,
    McfConfig,
    SimConfig,
    auc_mann_whitney,
    auc_pairwise,
    concept_counts,
    em_fit,
    fit,
    infer_profiles,
    krippendorff_alpha,
    mastery,
    multistart_fit,
    objective,
    objective_gradients,
    predict_scores,
    reconstruction_metrics,
    recovery_score,
    simulate,
    simulate_dina,
)
from cdmkit.cli import main

SEEDS = (7, 11, 13, 17, 19)


def _gate(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# Gates 1 + 2: planted-world round trip (shared five-seed sweep)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted_runs():
    runs = []
    for seed in SEEDS:
        sim = simulate(
            SimConfig(n_items=210, n_models=30, n_concepts=70, n_skills=5, seed=seed)
        )
        weights = np.ones_like(sim.scores)
        started = time.perf_counter()
        result = multistart_fit(
            sim.scores, weights, sim.qmat, McfConfig(n_skills=5, seed=seed), starts=8
        )
        elapsed = time.perf_counter() - started
        report = reconstruction_metrics(
            predict_scores(result.factors).values, sim.scores, weights
        )
        mm = mastery(result.factors)
        rho = recovery_score(mm, sim).overall
        runs.append({"seed": seed, "elapsed": elapsed, "report": report, "rho": rho})
    return runs


def test_gate_01_reconstruction_quality(planted_runs):
    run = planted_runs[0]
    assert run["seed"] == 7
    report, elapsed = run["report"], run["elapsed"]
    ok = report.auc >= 0.95 and report.rmse <= 0.30 and elapsed < 60.0
    _gate(
        "gate 01 reconstruction quality",
        ok,
        f"auc={report.auc:.4f} (>=0.95), rmse={report.rmse:.4f} (<=0.30), "
        f"fit={elapsed:.1f}s (<60s)",
    )


def test_gate_02_mastery_rank_recovery(planted_runs):
    rhos = [run["rho"] for run in planted_runs]
    n_good = sum(r >= 0.9 for r in rhos)
    _gate(
        "gate 02 mastery rank recovery",
        n_good >= 4,
        f"{n_good}/{len(SEEDS)} seeds with mean Spearman >= 0.9 (need 4); "
        f"rhos={[round(r, 4) for r in rhos]}",
    )


# ---------------------------------------------------------------------------
# Gate 3: the objective never increases along any update trace
# ---------------------------------------------------------------------------

def test_gate_03_objective_monotone():
    rng = np.random.default_rng(99)
    worst = -np.inf
    violations = 0
    for i in range(50):
        m = int(rng.integers(4, 51))
        n = int(rng.integers(2, 21))
        k = int(rng.integers(2, 16))
        t = int(rng.integers(1, 7))
        scores = rng.random((m, n))
        weights = rng.random((m, n))
        qmat = (rng.random((m, k)) < 0.4).astype(float)
        config = McfConfig(
            n_skills=t,
            q_weight=(0.0, 1.0, 5.0)[i % 3],
            ridge_item=(0.0, 0.01, 0.1)[(i // 3) % 3],
            ridge_model=(0.0, 0.01, 0.1)[(i // 3) % 3],
            ridge_concept=(0.0, 0.01, 0.1)[(i // 3) % 3],
            max_iters=500,
            # Stops a trace only on a step that no longer lowers the objective,
            # at rounding level; 4 of the 50 stop so, after 12 to ~110 steps.
            tol=1e-300,
            seed=i,
        )
        trace = np.asarray(fit(scores, weights, qmat, config).objective_trace)
        steps = np.diff(trace)
        worst = max(worst, float(steps.max()) if steps.size else -np.inf)
        violations += int((steps > 1e-9).sum())
    _gate(
        "gate 03 objective monotone",
        violations == 0,
        f"0 required, {violations} increases > 1e-9 over 50 traces of up to 500 steps "
        f"(worst step {worst:.2e})",
    )


# ---------------------------------------------------------------------------
# Gate 4: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_gate_04_gradient_check():
    rng = np.random.default_rng(5)
    m, n, k, t = 6, 4, 3, 2
    config = McfConfig(
        n_skills=t, q_weight=1.5, ridge_item=0.02, ridge_model=0.03, ridge_concept=0.04
    )
    scores = rng.random((m, n))
    weights = rng.random((m, n))
    qmat = (rng.random((m, k)) < 0.5).astype(float)
    step = 1e-5

    def numeric_grad(arrays, which):
        grad = np.zeros_like(arrays[which])
        it = np.nditer(grad, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[which][idx] += step
            minus[which][idx] -= step
            f_plus = objective(FactorSet(*plus), scores, weights, qmat, config)
            f_minus = objective(FactorSet(*minus), scores, weights, qmat, config)
            grad[idx] = (f_plus - f_minus) / (2 * step)
        return grad

    worst = 0.0
    for _ in range(10):
        arrays = [
            rng.uniform(0.2, 2.0, (m, t)),
            rng.uniform(0.2, 2.0, (t, n)),
            rng.uniform(0.2, 2.0, (t, k)),
        ]
        analytic = objective_gradients(FactorSet(*arrays), scores, weights, qmat, config)
        for which in range(3):
            numeric = numeric_grad(arrays, which)
            rel = np.linalg.norm(numeric - analytic[which]) / max(
                np.linalg.norm(analytic[which]), 1e-12
            )
            worst = max(worst, float(rel))
    _gate(
        "gate 04 gradient check",
        worst <= 1e-4,
        f"worst relative error {worst:.2e} (<=1e-4) over 10 points x 3 factors",
    )


# ---------------------------------------------------------------------------
# Gate 5: rank-based AUC equals the O(n^2) pairwise oracle
# ---------------------------------------------------------------------------

def test_gate_05_auc_oracle_equivalence():
    scores = np.array([0.9, 0.8, 0.3])
    hand_ok = (
        auc_mann_whitney(scores, np.array([1, 1, 0])) == 1.0
        and auc_mann_whitney(scores, np.array([1, 0, 1])) == 0.5
        and auc_mann_whitney(np.array([0.4, 0.4]), np.array([1, 0])) == 0.5
    )
    rng = np.random.default_rng(12345)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 200))
        if i % 2:
            values = rng.integers(0, 6, n) / 5.0  # coarse grid: heavy ties
        else:
            values = rng.random(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        diff = abs(auc_mann_whitney(values, labels) - auc_pairwise(values, labels))
        worst = max(worst, float(diff))
    _gate(
        "gate 05 auc oracle equivalence",
        hand_ok and worst <= 1e-12,
        f"hand-counted cells exact, max |fast - pairwise| = {worst:.2e} "
        f"(<=1e-12) over 100 fixtures",
    )


# ---------------------------------------------------------------------------
# Gate 6: conjunctive-gate EM parameter and profile recovery
# ---------------------------------------------------------------------------

def test_gate_06_conjunctive_em_recovery():
    n_reps = 100
    slip_err = np.zeros((n_reps, 30))
    guess_err = np.zeros((n_reps, 30))
    map_acc = np.zeros(n_reps)
    for r in range(n_reps):
        responses, alpha, qmat = simulate_dina(3, 30, 200, 0.1, 0.1, seed=1000 + r)
        em = em_fit(responses, qmat)
        slip_err[r] = np.abs(em.params.slip - 0.1)
        guess_err[r] = np.abs(em.params.guess - 0.1)
        profiles, _, _ = infer_profiles(responses, qmat, em.params)
        map_acc[r] = (profiles == alpha).all(axis=1).mean()
    worst_slip = float(slip_err.mean(axis=0).max())
    worst_guess = float(guess_err.mean(axis=0).max())
    acc = float(map_acc.mean())

    clean, alpha_c, qmat_c = simulate_dina(3, 30, 200, 0.0, 0.0, seed=42)
    tiny = DinaParams(np.full(30, 1e-9), np.full(30, 1e-9))
    clean_profiles, _, _ = infer_profiles(clean, qmat_c, tiny)
    clean_acc = float((clean_profiles == alpha_c).all(axis=1).mean())

    ok = worst_slip <= 0.1 and worst_guess <= 0.1 and acc >= 0.90 and clean_acc == 1.0
    _gate(
        "gate 06 conjunctive em recovery",
        ok,
        f"slip err {worst_slip:.3f}, guess err {worst_guess:.3f} (<=0.1), "
        f"profile match {acc:.4f} (>=0.90) over {n_reps} reps; "
        f"noiseless {clean_acc:.0%}",
    )


# ---------------------------------------------------------------------------
# Gate 7: factorization mastery agrees with conjunctive MAP mastery
# ---------------------------------------------------------------------------

def test_gate_07_cross_model_agreement():
    rng = np.random.default_rng(123)
    n_concepts, n_models, n_items = 4, 16, 40
    qmat = np.zeros((n_items, n_concepts))
    qmat[np.arange(n_items), np.arange(n_items) % n_concepts] = 1.0
    alpha = rng.integers(0, 2, (n_models, n_concepts)).astype(float)
    responses = alpha[:, np.arange(n_items) % n_concepts].T

    tiny = DinaParams(np.full(n_items, 1e-9), np.full(n_items, 1e-9))
    map_profiles, _, _ = infer_profiles(responses, qmat, tiny)

    result = multistart_fit(
        responses,
        np.ones_like(responses),
        qmat,
        McfConfig(n_skills=n_concepts, seed=0),
        starts=8,
    )
    mm = mastery(result.factors)
    mcf_binary = (mm.prob > 0.5).astype(float)

    agreement = float((mcf_binary == map_profiles).mean())
    _gate(
        "gate 07 cross-model agreement",
        agreement >= 0.95,
        f"{agreement:.4f} of mastery cells agree (>=0.95) on noiseless "
        f"single-tag data",
    )


# ---------------------------------------------------------------------------
# Gate 8: concept-count ranking semantics
# ---------------------------------------------------------------------------

def test_gate_08_concept_count_semantics():
    k = 70
    prob = np.zeros((3, k))
    prob[0, :40] = 0.95          # 40 concepts above threshold
    prob[1, :25] = 0.99          # 25 above
    prob[2, :] = 0.9             # exactly at the threshold: counts as zero
    mm = MasteryMatrix(
        raw=prob.copy(),
        prob=prob,
        model_ids=("mid", "low", "edge"),
        concept_ids=tuple(f"c{i}" for i in range(k)),
    )
    report = concept_counts(mm, threshold=0.9)
    got = [(r.model_id, r.mastered_count) for r in report.rows]
    expected = [("mid", 40), ("low", 25), ("edge", 0)]
    boundary = concept_counts(
        MasteryMatrix(
            raw=np.full((2, 5), 0.9),
            prob=np.full((2, 5), 0.9),
            model_ids=("a", "b"),
            concept_ids=tuple(f"c{i}" for i in range(5)),
        ),
        threshold=0.9,
    )
    boundary_ok = all(r.mastered_count == 0 for r in boundary.rows)
    just_above = concept_counts(mm, threshold=0.94)
    moved = [(r.model_id, r.mastered_count) for r in just_above.rows]
    _gate(
        "gate 08 concept-count semantics",
        got == expected and boundary_ok and moved[0] == ("mid", 40),
        f"strict >0.9 counts {got} descending, all-0.9 rows count 0",
    )


# ---------------------------------------------------------------------------
# Gate 9: agreement coefficient behavior
# ---------------------------------------------------------------------------

def test_gate_09_agreement_coefficient():
    perfect = [[i % 4, i % 4, i % 4] for i in range(500)]
    perfect_alpha = krippendorff_alpha(perfect).krippendorff_alpha

    rng = np.random.default_rng(31)
    chance = [[int(rng.integers(0, 2)), int(rng.integers(0, 2))] for _ in range(10_000)]
    chance_alpha = krippendorff_alpha(chance).krippendorff_alpha

    mapping = {0: "left", 1: "right"}
    relabeled = [[mapping[v] for v in row] for row in chance]
    delta = abs(krippendorff_alpha(relabeled).krippendorff_alpha - chance_alpha)

    ok = perfect_alpha == 1.0 and abs(chance_alpha) <= 0.05 and delta == 0.0
    _gate(
        "gate 09 agreement coefficient",
        ok,
        f"perfect alpha={perfect_alpha} (==1.0), chance alpha={chance_alpha:+.5f} "
        f"(|.|<=0.05), relabel delta={delta} (==0.0)",
    )


# ---------------------------------------------------------------------------
# Gate 10: byte-identical CLI reruns
# ---------------------------------------------------------------------------

def _seed_shared_inputs(root: Path) -> None:
    bank = {
        "format_version": 1,
        "concepts": [{"id": "c1", "label": "alpha"}, {"id": "c2", "label": "beta"}],
        "items": [
            {"id": "q1", "prompt": "p", "answer_key": "A", "concepts": ["c1"]},
            {"id": "q2", "prompt": "p", "answer_key": "C", "concepts": ["c1", "c2"]},
        ],
    }
    (root / "bank.json").write_text(json.dumps(bank, sort_keys=True))
    lines = []
    for model in ("m1", "m2"):
        for item, answer in (("q1", "A"), ("q2", "B")):
            for rep in range(2):
                lines.append(
                    {"model": model, "item": item, "attempt": rep, "output": answer}
                )
    (root / "logs_0.jsonl").write_text(
        "".join(json.dumps(x, sort_keys=True) + "\n" for x in lines)
    )
    ann = ["unit,c1,c2", "u0,x,x", "u1,y,y", "u2,x,y", "u3,y,x", "u4,x,x"]
    (root / "ann.csv").write_text("".join(r + "\n" for r in ann))


def _run_pipeline(root: Path, monkeypatch) -> None:
    monkeypatch.chdir(root)
    _seed_shared_inputs(root)
    commands = [
        ["simulate", "--items", "40", "--models", "8", "--concepts", "10",
         "--skills", "3", "--seed", "11", "--out", "sim"],
        ["fit", "--scores", "sim/scores.csv", "--weights", "sim/weights.csv",
         "--qmatrix", "sim/qmatrix.csv", "--skills", "3", "--starts", "2",
         "--max-iters", "150", "--seed", "4", "--out", "fit"],
        ["diagnose", "--mastery", "fit/mastery.json", "--out", "diag"],
        ["grade", "--bank", "bank.json", "--logs", "logs_*.jsonl",
         "--repeats", "2", "--out", "grade"],
        ["agreement", "--annotations", "ann.csv", "--out", "agr"],
        ["sweep", "--scores", "sim/scores.csv", "--qmatrix", "sim/qmatrix.csv",
         "--skills-grid", "2,3", "--q-weight-grid", "1.0",
         "--max-iters", "40", "--out", "sweep"],
    ]
    for argv in commands:
        code = main(argv)
        assert code == 0, f"{argv[0]} exited {code}"


def test_gate_10_rerun_reproducibility(tmp_path, monkeypatch):
    roots = []
    for name in ("first", "second"):
        root = tmp_path / name
        root.mkdir()
        _run_pipeline(root, monkeypatch)
        roots.append(root)
    first, second = roots
    rel_paths = sorted(
        p.relative_to(first) for p in first.rglob("*") if p.is_file()
    )
    assert rel_paths == sorted(
        p.relative_to(second) for p in second.rglob("*") if p.is_file()
    )
    n_files = 0
    n_manifests = 0
    for rel in rel_paths:
        a, b = first / rel, second / rel
        if rel.name == "manifest.json":
            man_a = json.loads(a.read_text())
            man_b = json.loads(b.read_text())
            man_a.pop("created_at")
            man_b.pop("created_at")
            assert man_a == man_b, rel
            n_manifests += 1
        else:
            digest_a = hashlib.sha256(a.read_bytes()).hexdigest()
            digest_b = hashlib.sha256(b.read_bytes()).hexdigest()
            assert digest_a == digest_b, rel
            n_files += 1
    _gate(
        "gate 10 rerun reproducibility",
        n_files >= 25 and n_manifests == 6,
        f"6 commands rerun: {n_files} files hash-identical, "
        f"{n_manifests} manifests differ only in timestamp",
    )
