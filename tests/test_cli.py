import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdmkit
from cdmkit.cli import main
from cdmkit.responses import load_matrix_csv, load_response_matrix, save_matrix_csv

SIM_ARGS = [
    "simulate", "--items", "12", "--models", "5", "--concepts", "6",
    "--skills", "2", "--seed", "7", "--out", "world",
]

SIM_FILES = {
    "bank.json", "scores.csv", "weights.csv", "qmatrix.csv", "truth.json",
    "manifest.json",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def _write_fit_inputs(root, n_items=10, n_models=6, n_concepts=4, seed=3):
    rng = np.random.default_rng(seed)
    scores = (rng.random((n_items, n_models)) > 0.5).astype(float)
    weights = np.ones_like(scores)
    qmat = np.zeros((n_items, n_concepts))
    for i in range(n_items):
        qmat[i, i % n_concepts] = 1.0
    item_ids = tuple(f"q{i}" for i in range(n_items))
    model_ids = tuple(f"m{j}" for j in range(n_models))
    concept_ids = tuple(f"c{k}" for k in range(n_concepts))
    save_matrix_csv(scores, item_ids, model_ids, root / "scores.csv", corner="item_id")
    save_matrix_csv(weights, item_ids, model_ids, root / "weights.csv", corner="item_id")
    save_matrix_csv(qmat, item_ids, concept_ids, root / "qmatrix.csv", corner="item_id")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_bundle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(SIM_ARGS) == 0
    out = tmp_path / "world"
    assert {p.name for p in out.iterdir()} == SIM_FILES
    man = _manifest(out)
    assert man["command"] == "simulate"
    assert man["seed"] == 7
    assert man["config"]["items"] == 12
    assert man["input_digests"] == {}


def test_simulate_rerun_identical_across_directories(tmp_path, monkeypatch):
    for sub in ("run_a", "run_b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(SIM_ARGS) == 0
    a = tmp_path / "run_a" / "world"
    b = tmp_path / "run_b" / "world"
    for name in sorted(SIM_FILES - {"manifest.json"}):
        assert _digest(a / name) == _digest(b / name), name
    man_a, man_b = _manifest(a), _manifest(b)
    man_a.pop("created_at")
    man_b.pop("created_at")
    assert man_a == man_b


def test_simulate_zero_items_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--items", "0", "--out", "x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps({"items": 9, "seed": 3, "models": 4}))
    assert main([
        "simulate", "--config", "conf.json", "--items", "7",
        "--concepts", "5", "--skills", "2", "--out", "w",
    ]) == 0
    cfg = _manifest(tmp_path / "w")["config"]
    assert cfg["items"] == 7      # flag beats config file
    assert cfg["seed"] == 3       # config file beats default
    assert cfg["models"] == 4
    assert cfg["concepts"] == 5


def test_config_file_unknown_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps({"itemz": 9}))
    assert main(["simulate", "--config", "conf.json"]) == 2
    assert "itemz" in capsys.readouterr().err


def test_config_file_invalid_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text("{not json")
    assert main(["simulate", "--config", "conf.json"]) == 2
    assert "conf.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------

def test_unknown_flag_exits_2(capsys):
    assert main(["simulate", "--bogus"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("cdmkit ")


def test_module_entry_point():
    # The child interpreter finds cdmkit where this one did, installed or not.
    src = str(Path(cdmkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cdmkit", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("cdmkit ")


# ---------------------------------------------------------------------------
# grade
# ---------------------------------------------------------------------------

@pytest.fixture
def grade_world(tmp_path):
    bank = {
        "format_version": 1,
        "concepts": [{"id": "c1", "label": "loops"}, {"id": "c2", "label": "maps"}],
        "items": [
            {"id": "q1", "prompt": "p1", "answer_key": "A", "concepts": ["c1"]},
            {"id": "q2", "prompt": "p2", "answer_key": "B", "concepts": ["c2"]},
        ],
    }
    (tmp_path / "bank.json").write_text(json.dumps(bank))
    lines_a = []
    for r in range(2):
        lines_a.append({"model": "gpt", "item": "q1", "attempt": r, "output": "A"})
        lines_a.append({"model": "gpt", "item": "q2", "attempt": r, "output": "B"})
    lines_b = [
        {"model": "llama", "item": "q1", "attempt": 0, "output": "B"},
        {"model": "llama", "item": "q2", "attempt": 0, "output": "B"},
    ]
    (tmp_path / "log_a.jsonl").write_text(
        "".join(json.dumps(x) + "\n" for x in lines_a)
    )
    (tmp_path / "log_b.jsonl").write_text(
        "".join(json.dumps(x) + "\n" for x in lines_b)
    )
    return tmp_path


def test_grade_happy_path(grade_world, monkeypatch):
    monkeypatch.chdir(grade_world)
    assert main([
        "grade", "--bank", "bank.json", "--logs", "log_*.jsonl",
        "--repeats", "2", "--out", "g",
    ]) == 0
    out = grade_world / "g"
    assert {p.name for p in out.iterdir()} == {
        "scores.csv", "weights.csv", "warnings.log", "manifest.json",
    }
    rm = load_response_matrix(out / "scores.csv", out / "weights.csv")
    assert rm.item_ids == ("q1", "q2")
    assert rm.model_ids == ("gpt", "llama")
    # gpt: both items right on both attempts; llama: one of two items, one attempt.
    assert np.array_equal(rm.scores, np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.array_equal(rm.weights, np.array([[1.0, 0.5], [1.0, 0.5]]))
    man = _manifest(out)
    assert len(man["input_digests"]) == 3  # bank + two logs


def test_grade_empty_glob_is_usage_error(grade_world, monkeypatch, capsys):
    monkeypatch.chdir(grade_world)
    assert main(["grade", "--bank", "bank.json", "--logs", "nope_*.jsonl"]) == 2
    assert "nope_*.jsonl" in capsys.readouterr().err


def test_grade_missing_bank_file(grade_world, monkeypatch, capsys):
    monkeypatch.chdir(grade_world)
    assert main(["grade", "--bank", "absent.json", "--logs", "log_*.jsonl"]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_grade_requires_both_paths(capsys):
    assert main(["grade", "--bank", "b.json"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

FIT_FILES = {
    "factor_item_skill.csv", "factor_skill_model.csv", "factor_skill_concept.csv",
    "mastery_raw.csv", "mastery_prob.csv", "mastery.json",
    "reconstruction.json", "trace.csv", "fit.json", "manifest.json",
}


def _run_fit(workdir, monkeypatch, extra=()):
    monkeypatch.chdir(workdir)
    return main([
        "fit", "--scores", "scores.csv", "--weights", "weights.csv",
        "--qmatrix", "qmatrix.csv", "--skills", "3", "--starts", "2",
        "--max-iters", "150", "--out", "f", *extra,
    ])


def test_fit_happy_path(tmp_path, monkeypatch, capsys):
    _write_fit_inputs(tmp_path)
    assert _run_fit(tmp_path, monkeypatch) == 0
    out = tmp_path / "f"
    assert {p.name for p in out.iterdir()} == FIT_FILES
    stdout = capsys.readouterr().out
    assert "objective=" in stdout and "rmse=" in stdout

    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,objective"
    objective = [float(line.split(",")[1]) for line in trace_lines[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))

    fit_meta = json.loads((out / "fit.json").read_text())
    assert fit_meta["objective_trace"][-1] == objective[-1]
    assert fit_meta["config"]["n_skills"] == 3

    recon = json.loads((out / "reconstruction.json").read_text())
    assert set(recon) >= {"accuracy", "auc", "rmse", "n_cells"}
    assert recon["n_cells"] == 60


def test_fit_rerun_byte_identical(tmp_path, monkeypatch):
    for sub in ("one", "two"):
        workdir = tmp_path / sub
        workdir.mkdir()
        _write_fit_inputs(workdir)
        assert _run_fit(workdir, monkeypatch) == 0
    for name in sorted(FIT_FILES - {"manifest.json"}):
        assert _digest(tmp_path / "one" / "f" / name) == _digest(
            tmp_path / "two" / "f" / name
        ), name


def test_fit_zero_iterations_emits_initial_objective_only(tmp_path, monkeypatch):
    _write_fit_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([
        "fit", "--scores", "scores.csv", "--qmatrix", "qmatrix.csv",
        "--skills", "2", "--starts", "1", "--max-iters", "0", "--out", "f0",
    ]) == 0
    lines = (tmp_path / "f0" / "trace.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_fit_row_count_mismatch_names_both_files(tmp_path, monkeypatch, capsys):
    _write_fit_inputs(tmp_path)
    qmat, items, concepts = load_matrix_csv(tmp_path / "qmatrix.csv")
    save_matrix_csv(
        qmat[:-1], items[:-1], concepts, tmp_path / "qmatrix.csv", corner="item_id"
    )
    assert _run_fit(tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err
    assert "qmatrix.csv" in err and "scores.csv" in err


def test_fit_item_id_mismatch(tmp_path, monkeypatch, capsys):
    _write_fit_inputs(tmp_path)
    qmat, items, concepts = load_matrix_csv(tmp_path / "qmatrix.csv")
    renamed = ("zzz",) + items[1:]
    save_matrix_csv(qmat, renamed, concepts, tmp_path / "qmatrix.csv", corner="item_id")
    assert _run_fit(tmp_path, monkeypatch) == 2
    assert "item ids" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["scores", "weights"])
def test_fit_non_finite_input_is_usage_error(tmp_path, monkeypatch, capsys, name):
    _write_fit_inputs(tmp_path)
    values, items, models = load_matrix_csv(tmp_path / f"{name}.csv")
    values[2, 1] = np.nan
    save_matrix_csv(values, items, models, tmp_path / f"{name}.csv", corner="item_id")
    assert _run_fit(tmp_path, monkeypatch) == 2
    assert f"{name} must be finite" in capsys.readouterr().err


def test_fit_missing_scores_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "--scores", "no.csv", "--qmatrix", "also_no.csv"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

@pytest.fixture
def fitted_world(tmp_path, monkeypatch):
    _write_fit_inputs(tmp_path)
    assert _run_fit(tmp_path, monkeypatch) == 0
    return tmp_path


def test_diagnose_happy_path(fitted_world, monkeypatch):
    monkeypatch.chdir(fitted_world)
    assert main(["diagnose", "--mastery", "f/mastery.json", "--out", "d"]) == 0
    out = fitted_world / "d"
    assert {p.name for p in out.iterdir()} == {
        "concept_counts.csv", "concept_counts.txt", "heatmap.csv", "heatmap.svg",
        "clusters.json", "manifest.json",
    }
    counts = (out / "concept_counts.csv").read_text().splitlines()
    assert counts[0] == "model_id,mastered_count,total,mean_score"
    assert len(counts) == 1 + 6
    table = (out / "concept_counts.txt").read_text()
    assert table.splitlines()[0].split() == ["con", "model", "acc"]
    clusters = json.loads((out / "clusters.json").read_text())
    assert set(clusters["assignments"]) == {f"m{j}" for j in range(6)}
    svg = (out / "heatmap.svg").read_text()
    assert svg.count("<rect") == 6 * 4


def test_diagnose_impossible_threshold_zeroes_counts(fitted_world, monkeypatch):
    monkeypatch.chdir(fitted_world)
    assert main([
        "diagnose", "--mastery", "f/mastery.json", "--threshold", "1.0", "--out", "d1",
    ]) == 0
    rows = (fitted_world / "d1" / "concept_counts.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "0" for row in rows)


def test_diagnose_too_many_clusters(fitted_world, monkeypatch, capsys):
    monkeypatch.chdir(fitted_world)
    assert main([
        "diagnose", "--mastery", "f/mastery.json", "--clusters", "40", "--out", "dx",
    ]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_diagnose_single_model_skips_clustering(tmp_path, monkeypatch, capsys):
    _write_fit_inputs(tmp_path, n_models=1)
    monkeypatch.chdir(tmp_path)
    assert main([
        "fit", "--scores", "scores.csv", "--qmatrix", "qmatrix.csv",
        "--skills", "2", "--starts", "1", "--max-iters", "50", "--out", "f1",
    ]) == 0
    assert main(["diagnose", "--mastery", "f1/mastery.json", "--out", "d1"]) == 0
    assert "skipped" in capsys.readouterr().out
    clusters = json.loads((tmp_path / "d1" / "clusters.json").read_text())
    assert "skipped" in clusters


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def test_agreement_perfect_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = ["unit,coder1,coder2"]
    rows += [f"u{i},yes,yes" if i % 2 else f"u{i},no,no" for i in range(8)]
    (tmp_path / "ann.csv").write_text("".join(r + "\n" for r in rows))
    assert main(["agreement", "--annotations", "ann.csv", "--out", "agr"]) == 0
    rep = json.loads((tmp_path / "agr" / "agreement.json").read_text())
    assert rep["krippendorff_alpha"] == 1.0
    assert rep["n_units"] == 8
    assert rep["n_coders"] == 2


def test_agreement_jaccard_and_missing_cells(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = [
        "unit,coder1,coder2,coder3",
        "u0,a;b,a;b,",
        "u1,c,c,c",
        "u2,a,,",          # single coding: dropped from the pairable set
        "u3,a;b;c,a;b,a;b;c",
    ]
    (tmp_path / "ann.csv").write_text("".join(r + "\n" for r in rows))
    assert main([
        "agreement", "--annotations", "ann.csv", "--distance", "jaccard", "--out", "agr",
    ]) == 0
    rep = json.loads((tmp_path / "agr" / "agreement.json").read_text())
    assert rep["n_units"] == 3
    assert rep["n_coders"] == 3
    assert 0.0 < rep["krippendorff_alpha"] <= 1.0


def test_agreement_degenerate_is_runtime_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ann.csv").write_text("unit,c1,c2\nu0,x,x\nu1,x,x\n")
    assert main(["agreement", "--annotations", "ann.csv", "--out", "agr"]) == 1
    assert "error:" in capsys.readouterr().err


def test_agreement_header_only_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ann.csv").write_text("unit,c1,c2\n")
    assert main(["agreement", "--annotations", "ann.csv"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_grid(tmp_path, monkeypatch):
    _write_fit_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([
        "sweep", "--scores", "scores.csv", "--weights", "weights.csv",
        "--qmatrix", "qmatrix.csv", "--skills-grid", "2,3",
        "--q-weight-grid", "0.5,1.0", "--max-iters", "60", "--out", "sw",
    ]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("n_skills,q_weight,objective")
    assert len(lines) == 1 + 4
    combos = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert combos == {("2", "0.5"), ("2", "1.0"), ("3", "0.5"), ("3", "1.0")}


def test_sweep_empty_grid_is_usage_error(tmp_path, monkeypatch, capsys):
    _write_fit_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([
        "sweep", "--scores", "scores.csv", "--qmatrix", "qmatrix.csv",
        "--skills-grid", ",", "--out", "sw",
    ]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, grid, token",
    [("--skills-grid", "1,x", "'x'"), ("--q-weight-grid", "1.0,heavy", "'heavy'")],
)
def test_sweep_bad_grid_token_is_usage_error(tmp_path, monkeypatch, capsys, flag, grid, token):
    _write_fit_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([
        "sweep", "--scores", "scores.csv", "--qmatrix", "qmatrix.csv",
        flag, grid, "--out", "sw",
    ]) == 2
    err = capsys.readouterr().err
    assert flag in err and token in err
