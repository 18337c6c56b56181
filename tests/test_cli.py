import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdmkit
from cdmkit.bank import load_item_bank
from cdmkit.cli import _effective, _load_annotations, _load_fit_inputs, build_parser, main
from cdmkit.errors import FormatError, ValidationError
from cdmkit.metrics import concept_counts
from cdmkit.responses import load_matrix_csv, load_response_matrix, save_matrix_csv
from cdmkit.simulate import SimConfig
from cdmkit.solver import MasteryMatrix, McfConfig, load_mastery, save_mastery

SIM_ARGS = [
    "simulate", "--items", "12", "--models", "5", "--concepts", "6",
    "--skills", "2", "--seed", "7", "--out", "world",
]

SIM_FILES = {
    "bank.json", "scores.csv", "weights.csv", "qmatrix.csv", "truth.json",
    "warnings.log", "manifest.json",
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


# Every option of every subcommand, by config key: its flags, argparse type,
# nargs, choices, and the default the manifest echoes when nothing sets it.
PINNED_OPTIONS = {
    "simulate": {
        "items": (["--items", "--m"], int, None, None, 210),
        "models": (["--models", "--n"], int, None, None, 30),
        "concepts": (["--concepts", "--k"], int, None, None, 70),
        "skills": (["--skills", "--t"], int, None, None, 5),
        "seed": (["--seed"], int, None, None, 0),
        "q_mode": (["--q-mode"], None, None, ["threshold", "bernoulli"], "threshold"),
        "q_threshold": (["--q-threshold"], float, None, None, 0.92),
        "response_mode": (["--response-mode"], None, None, ["mean", "bernoulli"], "mean"),
        "repeats": (["--repeats"], int, None, None, 10),
        "gamma_item": (["--gamma-item"], float, 2, None, [0.4, 1 / 3]),
        "gamma_model": (["--gamma-model"], float, 2, None, [8.0, 10.0]),
        "gamma_concept": (["--gamma-concept"], float, 2, None, [0.2, 0.16]),
        "out": (["--out"], None, None, None, "sim_out"),
    },
    "grade": {
        "bank": (["--bank"], None, None, None, None),
        "logs": (["--logs"], None, None, None, None),
        "rule": (["--rule"], None, None, None, "choice-letter"),
        "repeats": (["--repeats"], int, None, None, 10),
        "out": (["--out"], None, None, None, "grade_out"),
    },
    "fit": {
        "scores": (["--scores"], None, None, None, None),
        "weights": (["--weights"], None, None, None, None),
        "qmatrix": (["--qmatrix"], None, None, None, None),
        "skills": (["--skills", "--t"], int, None, None, 16),
        "q_weight": (["--q-weight"], float, None, None, 1.0),
        "ridge_item": (["--ridge-item"], float, None, None, 0.01),
        "ridge_model": (["--ridge-model"], float, None, None, 0.01),
        "ridge_concept": (["--ridge-concept"], float, None, None, 0.01),
        "max_iters": (["--max-iters"], int, None, None, 2000),
        "tol": (["--tol"], float, None, None, 1e-6),
        "epsilon": (["--epsilon"], float, None, None, 1e-12),
        "seed": (["--seed"], int, None, None, 0),
        "starts": (["--starts"], int, None, None, 8),
        "init": (["--init"], None, None, ["gamma_prior", "uniform"], "gamma_prior"),
        "normalization": (
            ["--normalization"], None, None,
            ["clip", "minmax_global", "minmax_per_concept"], "clip",
        ),
        "binarize_threshold": (["--binarize-threshold"], float, None, None, 0.5),
        "out": (["--out"], None, None, None, "fit_out"),
    },
    "diagnose": {
        "mastery": (["--mastery"], None, None, None, None),
        "threshold": (["--threshold"], float, None, None, 0.9),
        "clusters": (["--clusters"], int, None, None, 2),
        "out": (["--out"], None, None, None, "diagnose_out"),
    },
    "agreement": {
        "annotations": (["--annotations"], None, None, None, None),
        "distance": (["--distance"], None, None, ["nominal", "jaccard"], "nominal"),
        "out": (["--out"], None, None, None, "agreement_out"),
    },
    "sweep": {
        "scores": (["--scores"], None, None, None, None),
        "weights": (["--weights"], None, None, None, None),
        "qmatrix": (["--qmatrix"], None, None, None, None),
        "skills_grid": (["--skills-grid"], None, None, None, "4,8,16,32"),
        "q_weight_grid": (["--q-weight-grid"], None, None, None, "1.0"),
        "max_iters": (["--max-iters"], int, None, None, 2000),
        "tol": (["--tol"], float, None, None, 1e-6),
        "seed": (["--seed"], int, None, None, 0),
        "starts": (["--starts"], int, None, None, 1),
        "out": (["--out"], None, None, None, "sweep_out"),
    },
}


def test_options_are_pinned():
    subparsers = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers) == set(PINNED_OPTIONS)
    for command, pinned in PINNED_OPTIONS.items():
        parser = subparsers[command]
        # The defaults as a run with no flags and no config file echoes them.
        defaults = json.loads(json.dumps(_effective(parser.parse_args([]))))
        assert set(defaults) == set(pinned), command
        found = {
            a.dest: (a.option_strings, a.type, a.nargs, a.choices and list(a.choices), defaults[a.dest])
            for a in parser._actions if a.dest not in ("help", "config")
        }
        assert found == pinned, command


def test_manifest_config_reruns_as_config_file(tmp_path, monkeypatch):
    _write_fit_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([
        "fit", "--scores", "scores.csv", "--qmatrix", "qmatrix.csv", "--skills", "2",
        "--starts", "2", "--max-iters", "30", "--out", "a",
    ]) == 0
    config = _manifest(tmp_path / "a")["config"]
    assert config["weights"] is None
    (tmp_path / "conf.json").write_text(json.dumps(config))
    assert main(["fit", "--config", "conf.json", "--out", "b"]) == 0
    for path in sorted((tmp_path / "a").iterdir()):
        if path.name != "manifest.json":
            assert _digest(path) == _digest(tmp_path / "b" / path.name), path.name
    assert _manifest(tmp_path / "b")["config"] == {**config, "out": "b"}


# (case id, argv, config file, key, message); each must stop before any input
# is read or any output is written.
BAD_CONFIGS = [
    ("int from string", ["fit"], {"skills": "abc"}, "skills", 'must be an integer, got "abc"'),
    ("int from float", ["fit"], {"skills": 3.7}, "skills", "must be an integer, got 3.7"),
    ("int from bool", ["sweep"], {"max_iters": True}, "max_iters", "must be an integer, got true"),
    ("int from string (simulate)", ["simulate"], {"repeats": "x"}, "repeats", "must be an integer"),
    ("number from null", ["fit"], {"epsilon": None}, "epsilon", "must be a number, got null"),
    ("number from string", ["fit"], {"q_weight": "1"}, "q_weight", 'must be a number, got "1"'),
    ("number from bool", ["diagnose"], {"threshold": False}, "threshold", "must be a number"),
    ("number too large for a float", ["fit"], {"tol": 10**400}, "tol", "must be a number"),
    ("pair from scalar", ["simulate"], {"gamma_item": 5}, "gamma_item",
     "must be a list of two numbers, got 5"),
    ("pair of three", ["simulate"], {"gamma_concept": [1, 2, 3]}, "gamma_concept",
     "must be a list of two numbers"),
    ("pair with a string", ["simulate"], {"gamma_model": [1, "2"]}, "gamma_model",
     "must be a list of two numbers"),
    ("string from list", ["sweep"], {"skills_grid": [4, 8]}, "skills_grid",
     "must be a string, got [4, 8]"),
    ("path from number", ["fit"], {"weights": 3}, "weights", "must be a string, got 3"),
    ("q_mode", ["simulate"], {"q_mode": "bogus"}, "q_mode",
     "must be one of ['threshold', 'bernoulli']"),
    ("response_mode", ["simulate"], {"response_mode": "bogus"}, "response_mode",
     "must be one of ['mean', 'bernoulli']"),
    ("init", ["fit"], {"init": "zeros"}, "init", "must be one of ['gamma_prior', 'uniform']"),
    ("normalization", ["fit"], {"normalization": "bogus"}, "normalization",
     "must be one of ['clip', 'minmax_global', 'minmax_per_concept'], got \"bogus\""),
    ("distance", ["agreement"], {"distance": "cosine"}, "distance",
     "must be one of ['nominal', 'jaccard']"),
    ("NaN number", ["fit"], {"binarize_threshold": math.nan}, "binarize_threshold",
     "must be finite, got NaN"),
    ("infinite number", ["fit"], {"epsilon": math.inf}, "epsilon", "must be finite, got Infinity"),
    ("infinite number (sweep)", ["sweep"], {"tol": -math.inf}, "tol",
     "must be finite, got -Infinity"),
    ("pair with an infinity", ["simulate"], {"gamma_model": [1, math.inf]}, "gamma_model",
     "must be finite, got [1, Infinity]"),
]
INPUT_FLAGS = {
    "fit": ["--scores", "scores.csv", "--qmatrix", "qmatrix.csv", "--skills", "2",
            "--starts", "1", "--max-iters", "5"],
    "sweep": ["--scores", "scores.csv", "--qmatrix", "qmatrix.csv", "--skills-grid", "2",
              "--max-iters", "5"],
    "simulate": ["--items", "6", "--models", "3", "--concepts", "4", "--skills", "2"],
    "diagnose": ["--mastery", "missing.json"],
    "agreement": ["--annotations", "ann.csv"],
}


@pytest.mark.parametrize(
    "argv, config, key, message",
    [pytest.param(*case[1:], id=case[0]) for case in BAD_CONFIGS],
)
def test_malformed_config_table(tmp_path, monkeypatch, capsys, argv, config, key, message):
    _write_fit_inputs(tmp_path)
    (tmp_path / "ann.csv").write_text("unit,c1,c2\nu0,a,a\nu1,a,b\n")
    (tmp_path / "bad.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    command = argv[0]
    assert main([*argv, *INPUT_FLAGS[command], "--config", "bad.json", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert f"bad.json: {key} {message}" in err
    assert not (tmp_path / "out").exists()


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


def test_grade_unknown_rule_is_usage_error(grade_world, monkeypatch, capsys):
    monkeypatch.chdir(grade_world)
    assert main(["grade", "--bank", "bank.json", "--logs", "log_*.jsonl", "--rule", "nope"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown grading rule 'nope'; known: ['choice-letter']\n"


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
    "reconstruction.json", "trace.csv", "fit.json", "warnings.log", "manifest.json",
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
    err = capsys.readouterr().err
    assert f"{name}.csv" in err and "must be finite" in err


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
        "clusters.json", "warnings.log", "manifest.json",
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
    assert "skipped" in (tmp_path / "d1" / "warnings.log").read_text()
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


def test_sweep_requires_scores_and_qmatrix(capsys):
    assert main(["sweep", "--scores", "s.csv"]) == 2
    assert "error: sweep requires --scores and --qmatrix" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# malformed input: file -> exception -> exit code -> message
# ---------------------------------------------------------------------------

FIT_ARGV = [
    "fit", "--scores", "scores.csv", "--weights", "weights.csv",
    "--qmatrix", "qmatrix.csv", "--skills", "2", "--starts", "1",
    "--max-iters", "5", "--out", "f",
]
DIAGNOSE_ARGV = ["diagnose", "--mastery", "mastery.json", "--out", "d"]


def _edit_lines(edit, *names):
    """Case setup: rewrite each named CSV through ``edit(lines) -> lines``."""
    def setup(root):
        for name in names:
            path = root / name
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    return setup


def _set_cell(row, col, text):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = text
        lines[row] = ",".join(cells)
        return lines
    return edit


def _edit_mastery(edit):
    def setup(root):
        path = root / "mastery.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
    return setup


def _write(name, text):
    def setup(root):
        (root / name).write_text(text, encoding="utf-8")
    return setup


def _load_scores(root):
    load_matrix_csv(root / "scores.csv")


def _concept_counts_from_config(root):
    config = json.loads((root / "diagnose.json").read_text(encoding="utf-8"))
    concept_counts(load_mastery(root / "mastery.json"), threshold=config["threshold"])


# (case id, setup, library call, exception, argv, exit code, named file, message)
MALFORMED = [
    ("nan", _edit_lines(_set_cell(3, 2, "nan"), "scores.csv"), _load_scores,
     FormatError, FIT_ARGV, 2, "scores.csv", "row 'q2', column 'm1' holds nan"),
    ("inf", _edit_lines(_set_cell(1, 1, "-inf"), "weights.csv"),
     lambda root: load_matrix_csv(root / "weights.csv"),
     FormatError, FIT_ARGV, 2, "weights.csv", "holds -inf; matrix values must be finite"),
    ("non-numeric", _edit_lines(_set_cell(2, 1, "yes"), "qmatrix.csv"),
     lambda root: load_matrix_csv(root / "qmatrix.csv"),
     FormatError, FIT_ARGV, 2, "qmatrix.csv", "data row 2 (id 'q1'): could not convert string 'yes'"),
    ("empty cell", _edit_lines(_set_cell(4, 6, ""), "scores.csv"), _load_scores,
     FormatError, FIT_ARGV, 2, "scores.csv", "data row 4 (id 'q3'): could not convert string ''"),
    ("short row", _edit_lines(lambda ls: ls[:3] + [ls[3].rsplit(",", 1)[0]] + ls[4:], "scores.csv"),
     _load_scores, FormatError, FIT_ARGV, 2, "scores.csv",
     "data row 3: the number of columns changed from 7 to 6"),
    ("one long row", _edit_lines(lambda ls: ls[:5] + [ls[5] + ",1.0"] + ls[6:], "scores.csv"),
     _load_scores, FormatError, FIT_ARGV, 2, "scores.csv",
     "data row 5: the number of columns changed from 7 to 8"),
    ("all rows long", _edit_lines(lambda ls: ls[:1] + [line + ",1.0" for line in ls[1:]], "scores.csv"),
     _load_scores, FormatError, FIT_ARGV, 2, "scores.csv",
     "rows hold 7 values but the header names 6 columns"),
    ("duplicate row id", _edit_lines(_set_cell(2, 0, "q0"), "scores.csv", "weights.csv", "qmatrix.csv"),
     _load_scores, FormatError, FIT_ARGV, 2, "scores.csv", "duplicate row id 'q0'"),
    ("duplicate column id", _edit_lines(_set_cell(0, 4, "m0"), "scores.csv", "weights.csv"),
     _load_scores, FormatError, FIT_ARGV, 2, "scores.csv", "duplicate column id 'm0'"),
    ("empty file", _write("scores.csv", ""), _load_scores,
     FormatError, FIT_ARGV, 2, "scores.csv", "empty matrix file"),
    ("header-only scores", _edit_lines(lambda ls: ls[:1], "scores.csv", "weights.csv"),
     lambda root: _load_fit_inputs({
         "scores": root / "scores.csv", "weights": root / "weights.csv",
         "qmatrix": root / "qmatrix.csv",
     }, "fit"),
     FormatError, FIT_ARGV, 2, "scores.csv", "scores.csv: no data rows"),
    ("mastery missing a field", _edit_mastery(lambda p: p.pop("model_ids")),
     lambda root: load_mastery(root / "mastery.json"),
     ValidationError, DIAGNOSE_ARGV, 2, "mastery.json", "missing field 'model_ids'"),
    ("mastery nan raw", _edit_mastery(lambda p: p["raw"][1].__setitem__(2, float("nan"))),
     lambda root: load_mastery(root / "mastery.json"),
     ValidationError, DIAGNOSE_ARGV, 2, "mastery.json", "mastery raw entries must be finite"),
    ("nan threshold", _write("diagnose.json", json.dumps({"threshold": float("nan")})),
     _concept_counts_from_config, ValidationError,
     DIAGNOSE_ARGV + ["--config", "diagnose.json"], 2, "", "threshold must be finite"),
    ("wide annotation row", _write("ann.csv", "unit,c1,c2\nu0,a,a\nu1,a,b,c\nu2,b,b\n"),
     lambda root: _load_annotations(str(root / "ann.csv"), "nominal"),
     FormatError, ["agreement", "--annotations", "ann.csv", "--out", "a"], 2,
     "ann.csv", "ann.csv:3: 4 cells but the header has 3"),
    ("one-cell concept row", _write("concepts.csv", "id,label\nc0,zero\nc1\n"),
     lambda root: load_item_bank(root / "items.csv"),
     FormatError, ["grade", "--bank", "items.csv", "--logs", "*.jsonl", "--out", "g"], 2,
     "concepts.csv", "concepts.csv:3: concept row ['c1'] needs id and label"),
    ("infinite epsilon flag", lambda root: None, lambda root: McfConfig(epsilon=math.inf),
     ValidationError, FIT_ARGV + ["--epsilon", "inf"], 2, "command line",
     "epsilon must be finite"),
    ("NaN gamma flag", lambda root: None,
     lambda root: SimConfig(6, 3, 4, 2, gamma_item=(math.nan, 1.0)),
     ValidationError, ["simulate", "--gamma-item", "nan", "1", "--out", "s"], 2, "command line",
     "gamma_item must be finite"),
]


@pytest.mark.parametrize(
    "setup, call, error, argv, code, named, message",
    [pytest.param(*case[1:], id=case[0]) for case in MALFORMED],
)
def test_malformed_input_table(
    tmp_path, monkeypatch, capsys, setup, call, error, argv, code, named, message
):
    _write_fit_inputs(tmp_path)
    prob = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    save_mastery(
        MasteryMatrix(prob, prob, "clip", ("m0", "m1", "m2"), ("c0", "c1", "c2", "c3")),
        tmp_path,
    )
    setup(tmp_path)
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and named in err


# ---------------------------------------------------------------------------
# warnings.log: every diagnostic the CLI can reach, through one channel
# ---------------------------------------------------------------------------

def _constant_scores(root):
    _write_fit_inputs(root)
    scores, items, models = load_matrix_csv(root / "scores.csv")
    save_matrix_csv(np.ones_like(scores), items, models, root / "scores.csv", corner="item_id")


def _mastery_rows(prob):
    def setup(root):
        prob_ = np.array(prob)
        model_ids = tuple(f"m{j}" for j in range(len(prob_)))
        concept_ids = tuple(f"c{k}" for k in range(prob_.shape[1]))
        save_mastery(MasteryMatrix(prob_, prob_, "clip", model_ids, concept_ids), root)
    return setup


def _graded_logs(root):
    bank = {
        "format_version": 1,
        "concepts": [{"id": "c1", "label": "loops"}],
        "items": [
            {"id": "q1", "prompt": "p1", "answer_key": "A", "concepts": ["c1"]},
            {"id": "q2", "prompt": "p2", "answer_key": "yes", "concepts": ["c1"]},
        ],
    }
    (root / "bank.json").write_text(json.dumps(bank))
    attempts = [
        {"model": "gpt", "item": "q1", "attempt": 0, "output": "I am not sure."},
        {"model": "gpt", "item": "q2", "attempt": 0, "output": "A"},
        {"model": "gpt", "item": "q1", "attempt": 1, "output": "(A)"},
    ]
    (root / "log.jsonl").write_text("".join(json.dumps(a) + "\n" for a in attempts))


FIT_QUIET = ["--qmatrix", "qmatrix.csv", "--skills", "2", "--starts", "1", "--max-iters", "20"]

# (case id, setup, argv without --out, the lines warnings.log must hold)
WARNING_CASES = [
    ("fit: all labels identical", _constant_scores,
     ["fit", "--scores", "scores.csv", *FIT_QUIET],
     ["AUC undefined: all labels identical; reporting absent"]),
    ("fit: constant mastery columns", lambda root: _write_fit_inputs(root, n_models=1),
     ["fit", "--scores", "scores.csv", *FIT_QUIET, "--normalization", "minmax_per_concept"],
     [f"constant mastery column {k}; minmax maps it to 0" for k in range(4)]),
    ("diagnose: all-zero mastery row", _mastery_rows([[0, 0], [0.2, 0.9], [0.8, 0.1]]),
     ["diagnose", "--mastery", "mastery.json"],
     ["excluding all-zero mastery rows: ('m0',)"]),
    ("diagnose: one model", _mastery_rows([[0.2, 0.9]]),
     ["diagnose", "--mastery", "mastery.json"],
     ["clustering skipped: need at least 2 models"]),
    ("grade: unparseable output and a key without letters", _graded_logs,
     ["grade", "--bank", "bank.json", "--logs", "log.jsonl", "--repeats", "2"],
     ["could not extract a choice from output 'I am not sure.'; scoring 0",
      "answer key 'YES' contains no choice letters; scoring 0"]),
    ("agreement: none", _write("ann.csv", "unit,c1,c2\nu0,a,a\nu1,a,b\n"),
     ["agreement", "--annotations", "ann.csv"], []),
]


@pytest.mark.parametrize(
    "setup, argv, lines", [pytest.param(*case[1:], id=case[0]) for case in WARNING_CASES]
)
def test_warnings_log_table(tmp_path, monkeypatch, capsys, setup, argv, lines):
    setup(tmp_path)
    monkeypatch.chdir(tmp_path)
    logs = []
    for out in ("run1", "run2"):  # a second run in the same process logs the same lines
        assert main([*argv, "--out", out]) == 0
        err = capsys.readouterr().err
        assert "UserWarning" not in err and ".py" not in err
        assert err == (f"{len(lines)} warnings -> {out}/warnings.log\n" if lines else "")
        logs.append((tmp_path / out / "warnings.log").read_bytes())
    assert logs[0].decode() == "".join(line + "\n" for line in lines)
    assert logs[1] == logs[0]


def test_failed_command_prints_records_and_writes_no_log(tmp_path, monkeypatch, capsys):
    _mastery_rows([[0, 0], [0.2, 0.9], [0.8, 0.1]])(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["diagnose", "--mastery", "mastery.json", "--clusters", "3", "--out", "d"]) == 2
    assert capsys.readouterr().err == (
        "excluding all-zero mastery rows: ('m0',)\n"
        "error: n_clusters=3 exceeds the 2 clusterable rows\n"
    )
    assert not (tmp_path / "d" / "warnings.log").exists()
    assert not (tmp_path / "d" / "manifest.json").exists()
