import argparse
import csv
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
from cdmkit.cli import (
    _effective, _load_annotations, _load_fit_inputs, build_parser, cmd_agreement, cmd_grade,
    main,
)
from cdmkit.errors import DegenerateDataError, DimensionError, FormatError, ValidationError
from cdmkit.manifest import read_json
from cdmkit.metrics import concept_counts
from cdmkit.responses import (
    aggregate, load_matrix_csv, load_response_logs, load_response_matrix, save_matrix_csv,
)
from cdmkit.simulate import SimConfig, recovery_score, simulate
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


# Every key but itemz was an option once; an old manifest's config holding it exits 2.
@pytest.mark.parametrize("command, config, key", [
    pytest.param("simulate", {"itemz": 9}, "itemz", id="simulate itemz"),
    pytest.param("simulate", {"q_mode": "threshold"}, "q_mode", id="simulate q_mode"),
    pytest.param("simulate", {"gamma_item": [0.4, 1 / 3]}, "gamma_item", id="simulate gamma_item"),
    pytest.param("fit", {"init": "gamma_prior"}, "init", id="fit init"),
    pytest.param("fit", {"epsilon": 1e-12}, "epsilon", id="fit epsilon"),
    pytest.param("fit", {"binarize_threshold": 0.5}, "binarize_threshold",
                 id="fit binarize_threshold"),
    pytest.param("fit", {"normalization": "clip"}, "normalization", id="fit normalization"),
    pytest.param("grade", {"rule": "choice-letter"}, "rule", id="grade rule"),
])
def test_config_file_unknown_key(tmp_path, monkeypatch, capsys, command, config, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps(config))
    assert main([command, "--config", "conf.json"]) == 2
    assert f"unknown config keys ['{key}']" in capsys.readouterr().err


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
        "out": (["--out"], None, None, None, "sim_out"),
    },
    "grade": {
        "bank": (["--bank"], None, None, None, None),
        "logs": (["--logs"], None, None, None, None),
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
        "tol": (["--tol"], float, None, None, 1e-4),
        "seed": (["--seed"], int, None, None, 0),
        "starts": (["--starts"], int, None, None, 8),
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
        "tol": (["--tol"], float, None, None, 1e-4),
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
    ("int from string (simulate)", ["simulate"], {"items": "x"}, "items", "must be an integer"),
    ("number from null", ["fit"], {"tol": None}, "tol", "must be a number, got null"),
    ("number from string", ["fit"], {"q_weight": "1"}, "q_weight", 'must be a number, got "1"'),
    ("number from bool", ["diagnose"], {"threshold": False}, "threshold", "must be a number"),
    ("number too large for a float", ["fit"], {"tol": 10**400}, "tol", "must be a number"),
    ("string from list", ["sweep"], {"skills_grid": [4, 8]}, "skills_grid",
     "must be a string, got [4, 8]"),
    ("path from number", ["fit"], {"weights": 3}, "weights", "must be a string, got 3"),
    ("choice from number", ["agreement"], {"distance": 1}, "distance",
     "must be one of ['nominal', 'jaccard'], got 1"),
    ("choice from null", ["agreement"], {"distance": None}, "distance",
     "must be one of ['nominal', 'jaccard'], got null"),
    ("distance", ["agreement"], {"distance": "cosine"}, "distance",
     "must be one of ['nominal', 'jaccard']"),
    ("NaN number", ["fit"], {"q_weight": math.nan}, "q_weight", "must be finite, got NaN"),
    ("infinite number", ["fit"], {"ridge_item": math.inf}, "ridge_item",
     "must be finite, got Infinity"),
    ("infinite number (sweep)", ["sweep"], {"tol": -math.inf}, "tol",
     "must be finite, got -Infinity"),
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


def test_out_that_is_a_file_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "taken").write_text("keep\n")
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--items", "6", "--models", "3", "--concepts", "4", "--skills", "2"]
    assert main([*argv, "--out", "taken"]) == 2
    assert "taken" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text() == "keep\n"


def _child_env():
    """The environment of a child interpreter that finds cdmkit where this one
    did, installed or not."""
    src = str(Path(cdmkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_star_import_binds_no_module():
    namespace = {}
    exec("from cdmkit import *", namespace)
    assert "annotations" not in namespace
    modules = [name for name, value in namespace.items() if isinstance(value, type(cdmkit))]
    assert modules == []
    assert {"aggregate", "load_item_bank", "ValidationError"} <= namespace.keys()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cdmkit", "--version"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("cdmkit ")


def test_fit_does_not_import_scipy_stats(tmp_path):
    # Importing scipy.stats takes about a second, which every `cdmkit fit` would pay.
    _write_fit_inputs(tmp_path)
    code = (
        "import sys\n"
        "from cdmkit.cli import main\n"
        "assert main(['fit', '--scores', 'scores.csv', '--qmatrix', 'qmatrix.csv', '--skills', '2',"
        " '--starts', '1', '--max-iters', '5', '--out', 'out']) == 0\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert '"auc": null' not in (tmp_path / "out" / "reconstruction.json").read_text()


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


UNTAGGED_C3 = ["1 concept(s) tagged by no item, so no score bears on their mastery: ['c3']"]


def _write_fit_inputs_untagging_c3(root):
    _write_fit_inputs(root)
    qmat, items, concepts = load_matrix_csv(root / "qmatrix.csv")
    qmat[:, 0] += qmat[:, 3]
    qmat[:, 3] = 0.0
    save_matrix_csv(qmat, items, concepts, root / "qmatrix.csv", corner="item_id")


def test_fit_warns_once_about_untagged_concepts(tmp_path, monkeypatch):
    _write_fit_inputs_untagging_c3(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([
        "fit", "--scores", "scores.csv", "--qmatrix", "qmatrix.csv", "--skills", "2",
        "--starts", "1", "--max-iters", "30", "--out", "f",
    ]) == 0
    assert (tmp_path / "f" / "warnings.log").read_text().splitlines() == UNTAGGED_C3


def test_sweep_warns_once_about_untagged_concepts(tmp_path, monkeypatch):
    # sweep reads the same Q-matrix as fit, so it names the same concept, once
    # for the whole grid rather than once per grid point.
    _write_fit_inputs_untagging_c3(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([
        "sweep", "--scores", "scores.csv", "--qmatrix", "qmatrix.csv", "--skills-grid", "1,2",
        "--starts", "1", "--max-iters", "30", "--out", "sw",
    ]) == 0
    assert (tmp_path / "sw" / "warnings.log").read_text().splitlines() == UNTAGGED_C3


def test_fit_default_mastery_passes_gate_2(tmp_path, monkeypatch):
    # Gate 2 scores the library's mastery; this scores the mastery.json that
    # `cdmkit fit` writes, on the same five worlds.
    monkeypatch.chdir(tmp_path)
    rhos = []
    for seed in (7, 11, 13, 17, 19):
        world = ["--items", "210", "--models", "30", "--concepts", "70", "--skills", "5"]
        assert main(["simulate", *world, "--seed", str(seed), "--out", f"sim{seed}"]) == 0
        assert main([
            "fit", "--scores", f"sim{seed}/scores.csv", "--weights", f"sim{seed}/weights.csv",
            "--qmatrix", f"sim{seed}/qmatrix.csv", "--skills", "5", "--seed", str(seed),
            "--out", f"fit{seed}",
        ]) == 0
        mm = load_mastery(tmp_path / f"fit{seed}" / "mastery.json")
        truth = simulate(SimConfig(n_items=210, n_models=30, n_concepts=70, n_skills=5, seed=seed))
        rhos.append(recovery_score(mm, truth).overall)
    assert sum(rho >= 0.9 for rho in rhos) >= 4, rhos


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


def test_fit_failure_after_solving_leaves_no_out(tmp_path, monkeypatch, capsys):
    # fit computes mastery, predictions and the reconstruction report before
    # it creates --out, so a failure in any of them leaves nothing behind.
    def fail(*args, **kwargs):
        raise DegenerateDataError("no observed cells")

    _write_fit_inputs(tmp_path)
    monkeypatch.setattr("cdmkit.cli.reconstruction_metrics", fail)
    assert _run_fit(tmp_path, monkeypatch) == 1
    assert "no observed cells" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


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
    # The clusters are checked before --out is created: no half run is left.
    assert not (fitted_world / "dx").exists()


def test_diagnose_concept_counts_csv_quotes_ids(tmp_path, monkeypatch):
    model_ids = ("org/model,v2", 'say "hi"', "plain", "a\rb")
    prob = np.array([[0.95, 0.2], [0.1, 0.3], [0.99, 0.91], [0.2, 0.95]])
    save_mastery(MasteryMatrix(prob, prob, model_ids, ("c0", "c1")), tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["diagnose", "--mastery", "mastery.json", "--out", "d"]) == 0
    with open(tmp_path / "d" / "concept_counts.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model_id", "mastered_count", "total", "mean_score"]
    assert {tuple(row[:3]) for row in rows[1:]} == {
        ("org/model,v2", "1", "2"), ('say "hi"', "0", "2"), ("plain", "2", "2"), ("a\rb", "1", "2"),
    }
    # csv's default \r\n line ends, as in heatmap.csv: with them csv quotes a \r in an id.
    assert (tmp_path / "d" / "concept_counts.csv").read_bytes().startswith(
        b"model_id,mastered_count,total,mean_score\r\n"
    )


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


def test_agreement_jaccard_strips_label_parts(tmp_path, monkeypatch):
    # "a; b" and "a;b" are one label set, as " a" and "a" are one nominal label.
    monkeypatch.chdir(tmp_path)
    for name, first in (("spaced", "a; b"), ("unspaced", "a;b")):
        (tmp_path / f"{name}.csv").write_text(f"unit,c1,c2\nu0,{first},b;a\nu1,c,c\nu2,a,c\n")
        assert main([
            "agreement", "--annotations", f"{name}.csv", "--distance", "jaccard", "--out", name,
        ]) == 0
    spaced = (tmp_path / "spaced" / "agreement.json").read_bytes()
    assert spaced == (tmp_path / "unspaced" / "agreement.json").read_bytes()
    assert json.loads(spaced)["krippendorff_alpha"] == 0.5


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
GRADE_ARGV = ["grade", "--bank", "bank.json", "--logs", "log.jsonl", "--out", "g"]
GRADE_CSV_ARGV = ["grade", "--bank", "items.csv", "--logs", "log.jsonl", "--out", "g"]
GRADE_TWO_ARGV = ["grade", "--bank", "bank.json", "--logs", "*.jsonl", "--out", "g"]
LOG_RECORD = '{"model": "gpt", "item": "q1", "attempt": 0, "output": "A"}'


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


def _write_bank(root):
    bank = {
        "format_version": 1,
        "concepts": [{"id": "c1", "label": "loops"}],
        "items": [
            {"id": "q1", "prompt": "p1", "answer_key": "A", "concepts": ["c1"]},
            {"id": "q2", "prompt": "p2", "answer_key": "yes", "concepts": ["c1"]},
        ],
    }
    (root / "bank.json").write_text(json.dumps(bank))


def _edit_bank(edit):
    """Case setup: a bank.json edited through ``edit(payload)`` and a valid log.jsonl."""
    def setup(root):
        _write_bank(root)
        path = root / "bank.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        (root / "log.jsonl").write_text(LOG_RECORD + "\n", encoding="utf-8")
    return setup


def _bank_and_log(*lines):
    """Case setup: a valid bank.json and log.jsonl holding ``lines``."""
    def setup(root):
        _write_bank(root)
        (root / "log.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return setup


def _two_logs(first, second):
    """Case setup: a valid bank.json, a.jsonl holding ``first`` and b.jsonl ``second``."""
    def setup(root):
        _write_bank(root)
        (root / "a.jsonl").write_text(first + "\n")
        (root / "b.jsonl").write_text(second + "\n")
    return setup


def _logs_without_attempts(root):
    """Case setup: a valid bank.json, an empty empty.jsonl and a blank.jsonl of blank lines."""
    _write_bank(root)
    (root / "empty.jsonl").write_text("")
    (root / "blank.jsonl").write_text("\n \t\n\n")


def _grade_logs(root):
    cmd_grade({"bank": str(root / "bank.json"), "logs": str(root / "*.jsonl"),
               "repeats": 10, "out": str(root / "g")})


def _aggregate_log(root):
    aggregate(load_response_logs(root / "log.jsonl"), load_item_bank(root / "bank.json"))


def _aggregate_two_logs(root):
    logs = [*load_response_logs(root / "a.jsonl"), *load_response_logs(root / "b.jsonl")]
    aggregate(logs, load_item_bank(root / "bank.json"))


def _not_utf8(name, call, argv, before=lambda root: None):
    """A malformed-input case: after ``before``, ``name`` holds bytes that are not UTF-8."""
    def setup(root):
        before(root)
        (root / name).write_bytes(b"\xff\xfe not UTF-8")
    return (f"non-UTF-8 {name}", setup, call, FormatError, argv, 2, name,
            f"{name}: not UTF-8 text (invalid start byte)")


def _agreement(root):
    cmd_agreement({"annotations": str(root / "ann.csv"), "distance": "nominal",
                   "out": str(root / "a")})


def _load_scores(root):
    load_matrix_csv(root / "scores.csv")


def _load_log(root):
    load_response_logs(root / "log.jsonl")


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
    # Mastery ids are lists of distinct strings and cells are JSON numbers.
    *((f"mastery {case}", _edit_mastery(edit), lambda root: load_mastery(root / "mastery.json"),
       ValidationError, DIAGNOSE_ARGV, 2, "mastery.json", f"mastery.json: {message}")
      for case, edit, message in (
          ("integer model_ids", lambda p: p.__setitem__("model_ids", [0, 1, 2]),
           "malformed field 'model_ids' (not a list of strings)"),
          ("integer concept_ids", lambda p: p.__setitem__("concept_ids", [0, 1, 2, 3]),
           "malformed field 'concept_ids' (not a list of strings)"),
          ("repeated model id", lambda p: p["model_ids"].__setitem__(2, "m0"),
           "malformed field 'model_ids' (repeats id 'm0')"),
          ("true cell", lambda p: p["raw"][0].__setitem__(1, True),
           "malformed field 'raw' (cells must be JSON numbers)"),
          ("numeric string cell", lambda p: p["prob"][2].__setitem__(0, "0.5"),
           "malformed field 'prob' (cells must be JSON numbers)"),
          ("cell of 400 digits", lambda p: p["raw"][1].__setitem__(0, 10**400),
           "malformed field 'raw' (int too large to convert to float)"),
      )),
    ("mastery format_version 99", _edit_mastery(lambda p: p.__setitem__("format_version", 99)),
     lambda root: load_mastery(root / "mastery.json"),
     FormatError, DIAGNOSE_ARGV, 2, "mastery.json", "unsupported format_version 99 (expected 1)"),
    ("mastery without format_version", _edit_mastery(lambda p: p.pop("format_version")),
     lambda root: load_mastery(root / "mastery.json"),
     FormatError, DIAGNOSE_ARGV, 2, "mastery.json", "unsupported format_version None (expected 1)"),
    # Bank JSON fields hold their JSON types: true is not the version 1, and a
    # string of tags is not split into one-character tags.
    *((f"bank {case}", _edit_bank(edit), lambda root: load_item_bank(root / "bank.json"),
       FormatError, GRADE_ARGV, 2, "bank.json", message)
      for case, edit, message in (
          ("format_version true", lambda p: p.__setitem__("format_version", True),
           "unsupported format_version True (expected 1)"),
          ("format_version 1.0", lambda p: p.__setitem__("format_version", 1.0),
           "unsupported format_version 1.0 (expected 1)"),
          ("answer_key 5", lambda p: p["items"][1].__setitem__("answer_key", 5),
           "items[1].answer_key must be a string, got 5"),
          ("concepts string", lambda p: p["items"][0].__setitem__("concepts", "c1"),
           "items[0].concepts must be a list of strings, got 'c1'"),
          ("concept id number", lambda p: p["concepts"][0].__setitem__("id", 1),
           "concepts[0].id must be a string, got 1"),
      )),
    # Bank rules name the bank file.
    *((f"bank {case}", _edit_bank(edit), lambda root: load_item_bank(root / "bank.json"),
       ValidationError, GRADE_ARGV, 2, "bank.json", f"bank.json: {message}")
      for case, edit, message in (
          ("duplicate concept id", lambda p: p["concepts"].append({"id": "c1", "label": "x"}),
           "duplicate concept id 'c1'"),
          ("duplicate item id", lambda p: p["items"][1].__setitem__("id", "q1"),
           "duplicate item id 'q1'"),
          ("item without concepts", lambda p: p["items"][0].__setitem__("concepts", []),
           "item 'q1': no concept tags"),
          ("empty answer key", lambda p: p["items"][1].__setitem__("answer_key", " "),
           "item 'q2': empty answer key"),
          ("unknown tag", lambda p: p["items"][0].__setitem__("concepts", ["c9", "c1"]),
           "item 'q1': unknown concept tag 'c9'"),
      )),
    # Score-matrix rules name the scores file and the weights file.
    *((case, _edit_lines(_set_cell(row, col, text), name),
       lambda root: load_response_matrix(root / "scores.csv", root / "weights.csv"),
       error, FIT_ARGV, 2, "scores.csv", f"weights.csv: {message}")
      for case, name, row, col, text, error, message in (
          ("score 1.5", "scores.csv", 3, 2, "1.5", ValidationError, "scores outside [0, 1]"),
          ("weight 0 under a score 1", "weights.csv", 1, 3, "0.0", ValidationError,
           "unobserved cells (weight 0) must carry score 0"),
          ("weights row id not in scores", "weights.csv", 2, 0, "qx", DimensionError,
           "weights CSV ids do not match scores CSV ids"),
      )),
    ("nan threshold", _write("diagnose.json", json.dumps({"threshold": float("nan")})),
     _concept_counts_from_config, ValidationError,
     DIAGNOSE_ARGV + ["--config", "diagnose.json"], 2, "", "threshold must be finite"),
    ("wide annotation row", _write("ann.csv", "unit,c1,c2\nu0,a,a\nu1,a,b,c\nu2,b,b\n"),
     lambda root: _load_annotations(str(root / "ann.csv"), "nominal"),
     FormatError, ["agreement", "--annotations", "ann.csv", "--out", "a"], 2,
     "ann.csv", "ann.csv:3: 4 cells but the header has 3"),
    ("duplicate unit id", _write("ann.csv", "unit,c1,c2\nu0,a,a\nu0,a,b\nu1,b,b\n"),
     lambda root: _load_annotations(str(root / "ann.csv"), "nominal"),
     FormatError, ["agreement", "--annotations", "ann.csv", "--out", "a"], 2,
     "ann.csv", "ann.csv: duplicate unit id 'u0'"),
    # Too few codings for alpha: agreement names the file.
    *((f"annotations with {case}", _write("ann.csv", text), _agreement, ValidationError,
       ["agreement", "--annotations", "ann.csv", "--out", "a"], 2, "ann.csv",
       "ann.csv: need >= 2 coders and >= 1 unit with >= 2 codings")
      for case, text in (
          ("one coder", "unit,c1\nu0,a\nu1,b\n"),
          ("no unit coded twice", "unit,c1,c2\nu0,a,\nu1,,b\n"),
      )),
    # The bank is one JSON file, whatever its name: a CSV bank is invalid JSON.
    ("CSV bank", _write("items.csv", "id,prompt,answer_key,concepts\nq1,p1,A,c1\n"),
     lambda root: load_item_bank(root / "items.csv"),
     FormatError, GRADE_CSV_ARGV, 2, "items.csv",
     "items.csv: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
    ("infinite tol flag", lambda root: None, lambda root: McfConfig(tol=math.inf),
     ValidationError, FIT_ARGV + ["--tol", "inf"], 2, "command line", "tol must be finite"),
    # Every config is built, and every result computed, before --out is created.
    ("simulate resample exhaustion", lambda root: None,
     lambda root: simulate(SimConfig(3, 2, 1, 1, seed=3)),
     DegenerateDataError,
     ["simulate", "--items", "3", "--models", "2", "--concepts", "1", "--skills", "1",
      "--seed", "3", "--out", "s"], 1, "", "could not find an item factor meeting the tag threshold"),
    ("sweep zero skills", lambda root: None, lambda root: McfConfig(n_skills=0),
     ValidationError,
     ["sweep", "--scores", "scores.csv", "--qmatrix", "qmatrix.csv", "--skills-grid", "2,0",
      "--out", "sw"], 2, "", "n_skills must be >= 1"),
    # Rejected by SimConfig before any array is allocated.
    ("oversized simulate flag", lambda root: None, lambda root: SimConfig(10**30, 3, 4, 2),
     ValidationError, ["simulate", "--items", str(10**30), "--out", "s"], 2, "n_items",
     "n_items x n_models exceeds 100,000,000 elements"),
    ("oversized simulate config", _write("sim.json", json.dumps({"items": 10**30})),
     lambda root: SimConfig(10**30, 3, 4, 2),
     ValidationError, ["simulate", "--config", "sim.json", "--out", "s"], 2, "n_items",
     "n_items x n_models exceeds 100,000,000 elements"),
    ("mastery file missing", lambda root: (root / "mastery.json").unlink(),
     lambda root: load_mastery(root / "mastery.json"),
     FileNotFoundError, DIAGNOSE_ARGV, 2, "mastery.json", "No such file or directory"),
    ("mastery invalid JSON", _write("mastery.json", "{"),
     lambda root: load_mastery(root / "mastery.json"),
     FormatError, DIAGNOSE_ARGV, 2, "mastery.json", "mastery.json: invalid JSON"),
    # JSONL lines: each non-empty one holds one JSON object; errors in json.loads' words.
    *((f"log {case}", _bank_and_log(*lines), _load_log, FormatError, GRADE_ARGV, 2, "log.jsonl",
       f"log.jsonl:{lineno}: bad attempt record ({error})")
      for case, lines, lineno, error in (
          ("not JSON", ["not JSON"], 1,
           "JSONDecodeError('Expecting value: line 1 column 1 (char 0)')"),
          ("trailing text", [LOG_RECORD, LOG_RECORD.replace("0", "1") + " x"], 2,
           "JSONDecodeError('Extra data: line 1 column 61 (char 60)')"),
          ("array", ['["gpt", "q1", 0, "A"]'], 1,
           "TypeError('list indices must be integers or slices, not str')"),
          ("missing output", [LOG_RECORD.replace(', "output": "A"', "")], 1, "KeyError('output')"),
          ("BOM", ["\ufeff" + LOG_RECORD], 1,
           "JSONDecodeError('Unexpected UTF-8 BOM (decode using utf-8-sig): "
           "line 1 column 1 (char 0)')"),
          ("record split across lines", LOG_RECORD.split(' "A"'), 1,
           "JSONDecodeError('Expecting value: line 1 column 55 (char 54)')"),
      )),
    # json's errors that are not a JSONDecodeError; their messages go on past the prefix.
    ("log attempt of 5,000 digits", _bank_and_log(LOG_RECORD.replace("0", "9" * 5000)),
     _load_log, FormatError, GRADE_ARGV, 2, "log.jsonl",
     "log.jsonl:1: bad attempt record (ValueError('Exceeds the limit (4300 digits)"),
    ("log line of 100,000 brackets", _bank_and_log("[" * 100_000), _load_log,
     FormatError, GRADE_ARGV, 2, "log.jsonl",
     "log.jsonl:1: bad attempt record (RecursionError('maximum recursion depth exceeded"),
    # JSONL attempt records: string model, item and output; a JSON integer attempt.
    ("log output not a string", _bank_and_log(LOG_RECORD.replace('"A"', "5")), _load_log,
     FormatError, GRADE_ARGV, 2, "log.jsonl", "log.jsonl:1: output must be a string, got 5"),
    *((f"log attempt {value}", _bank_and_log(LOG_RECORD.replace("0", value)), _load_log,
       FormatError, GRADE_ARGV, 2, "log.jsonl",
       f"log.jsonl:1: attempt must be an integer, got {value}")
      for value in ("1.7", "true", '"0"')),
    # Attempt indices and repeats are aggregate's to check, over all files of a model.
    ("log duplicate attempt", _bank_and_log(LOG_RECORD, LOG_RECORD.replace('"A"', '"B"')),
     _aggregate_log, ValidationError, GRADE_ARGV, 2, "log.jsonl",
     "log.jsonl: model 'gpt': duplicate attempts [('q1', 0)]"),
    ("log negative attempt", _bank_and_log(LOG_RECORD.replace("0", "-1")), _aggregate_log,
     ValidationError, GRADE_ARGV, 2, "log.jsonl",
     "log.jsonl: model 'gpt': attempt index outside [0, 10) on ['q1']"),
    # One model's logs split over two files: aggregate names both.
    ("log duplicate attempt across files", _two_logs(LOG_RECORD, LOG_RECORD), _aggregate_two_logs,
     ValidationError, GRADE_TWO_ARGV, 2, "a.jsonl",
     "b.jsonl: model 'gpt': duplicate attempts [('q1', 0)]"),
    ("log attempt past repeats across files", _two_logs(LOG_RECORD, LOG_RECORD.replace("0", "10")),
     _aggregate_two_logs, ValidationError, GRADE_TWO_ARGV, 2, "a.jsonl",
     "b.jsonl: model 'gpt': attempt index outside [0, 10) on ['q1']"),
    ("log item not in the bank", _bank_and_log(LOG_RECORD.replace("q1", "q9")), _aggregate_log,
     ValidationError, GRADE_ARGV, 2, "log.jsonl", "log.jsonl: items not in the bank: ['q9']"),
    # Log files that match but hold no attempt: grade names them all.
    ("log files without attempts", _logs_without_attempts, _grade_logs, ValidationError,
     GRADE_TWO_ARGV, 2, "blank.jsonl", "empty.jsonl: no attempts in the response logs"),
    ("config of 5,000 digits", _write("cfg.json", '{"max_iters": ' + "9" * 5000 + "}"),
     lambda root: read_json(root / "cfg.json"), FormatError, [*FIT_ARGV, "--config", "cfg.json"],
     2, "cfg.json", "cfg.json: invalid JSON (Exceeds the limit (4300 digits)"),
    ("config of 100,000 brackets", _write("cfg.json", "[" * 100_000),
     lambda root: read_json(root / "cfg.json"), FormatError, [*FIT_ARGV, "--config", "cfg.json"],
     2, "cfg.json", "cfg.json: invalid JSON (maximum recursion depth exceeded"),
    # One file per reader that is not UTF-8.
    _not_utf8("cfg.json", lambda root: read_json(root / "cfg.json"),
              [*FIT_ARGV, "--config", "cfg.json"]),
    _not_utf8("bank.json", lambda root: load_item_bank(root / "bank.json"), GRADE_ARGV),
    _not_utf8("mastery.json", lambda root: load_mastery(root / "mastery.json"), DIAGNOSE_ARGV),
    _not_utf8("log.jsonl", _load_log, GRADE_ARGV, before=_write_bank),
    _not_utf8("scores.csv", _load_scores, FIT_ARGV),
    _not_utf8("ann.csv", lambda root: _load_annotations(str(root / "ann.csv"), "nominal"),
              ["agreement", "--annotations", "ann.csv", "--out", "a"]),
]


@pytest.mark.parametrize(
    "setup, call, error, argv, code, named, message",
    [pytest.param(*case[1:], id=case[0]) for case in MALFORMED],
)
def test_malformed_input_table(tmp_path, setup, call, error, argv, code, named, message):
    """Each case through the library call, then as a command in a fresh interpreter."""
    _write_fit_inputs(tmp_path)
    prob = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    save_mastery(
        MasteryMatrix(prob, prob, ("m0", "m1", "m2"), ("c0", "c1", "c2", "c3")),
        tmp_path,
    )
    setup(tmp_path)
    with pytest.raises(error, match=re.escape(message)) as caught:
        call(tmp_path)
    # Each file a message names, it names once.
    assert str(caught.value).count(str(tmp_path / named)) <= 1
    proc = subprocess.run(
        [sys.executable, "-m", "cdmkit", *argv],
        cwd=tmp_path, capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr and named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / argv[argv.index("--out") + 1]).exists()


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
        save_mastery(MasteryMatrix(prob_, prob_, model_ids, concept_ids), root)
    return setup


def _graded_logs(root):
    _write_bank(root)
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
    ("diagnose: all-zero mastery row", _mastery_rows([[0, 0], [0.2, 0.9], [0.8, 0.1]]),
     ["diagnose", "--mastery", "mastery.json"],
     ["excluding all-zero mastery rows: ('m0',)"]),
    ("diagnose: one model", _mastery_rows([[0.2, 0.9]]),
     ["diagnose", "--mastery", "mastery.json"],
     ["clustering skipped: need at least 2 non-zero mastery rows to cluster"]),
    ("diagnose: two models, one all-zero row", _mastery_rows([[0.2, 0.9], [0, 0]]),
     ["diagnose", "--mastery", "mastery.json"],
     ["excluding all-zero mastery rows: ('m1',)",
      "clustering skipped: need at least 2 non-zero mastery rows to cluster"]),
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
