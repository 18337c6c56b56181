"""Workload inputs and command plans, all drawn from the run's seed.

cdmkit only ever sees the files written here.  The `leaderboard` world is
drawn with numpy alone, so its inputs do not change when cdmkit's simulator
does; `gate` and `large` go through `cdmkit simulate`, which is part of what
they time.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("gate", "large", "leaderboard")
# Worlds per pipeline round.  A gate world's solve time depends on the world
# itself (iterations to converge, subnormal factor entries at 16-32 skills),
# by up to a third between seeds, so each gate round averages three worlds.
WORLDS = {"gate": 3, "large": 1, "leaderboard": 1}

# The release-gate world of tests/test_acceptance.py (gates 1 and 2).
GATE = {"items": 210, "models": 30, "concepts": 70, "skills": 5, "starts": 8}
GATE_SKILLS_GRID = "4,8,16,32"
# ROADMAP aim 1's larger size; a fixed iteration budget isolates time per iteration.
LARGE = {"items": 3000, "models": 120, "concepts": 300, "skills": 16, "max_iters": 150}
# A graded leaderboard: many models, repeated attempts, some missing or unparseable.
LEADERBOARD = {
    "items": 300, "models": 240, "concepts": 60, "planted_skills": 8,
    "fit_skills": 8, "max_iters": 1000, "repeats": 3, "log_files": 4, "coders": 3,
}
P_PRESENT = 0.92      # share of attempts that exist in the logs
P_UNPARSEABLE = 0.04  # share of present attempts whose output has no answer
P_MULTI_KEY = 0.3     # share of items with a multi-select key

# Output phrasings.  Each was checked to extract to exactly its answer under
# the choice-letter rule; none of the unparseable ones holds a standalone A-D.
ANSWER_TEMPLATES = (
    "{a}", "The answer is {a}.", "Answer: ({a})", "答案：{a}", "**{a}**", "Final answer: {a}",
)
MULTI_JOINERS = ("", ", ", "、", "/")
UNPARSEABLE = ("I am not sure.", "Unable to determine.", "", "The question seems ill-posed.")


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _matrix_csv(path: Path, corner: str, row_ids, col_ids, values) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([corner, *col_ids])
        for rid, row in zip(row_ids, values):
            writer.writerow([rid, *[repr(float(v)) for v in row]])


def write_leaderboard(seed: int, root: Path) -> dict:
    """Write bank, logs, Q-matrix and annotations; return what grading must yield.

    The planted world: items load on skills (sparse Gamma), models on skills,
    concepts on skills.  Response probability is a sigmoid of the item-model
    alignment minus a per-item difficulty, so it spans (0, 1); tags are each
    item's strongest concept alignments; planted mastery is model-skill times
    skill-concept.
    """
    cfg = LEADERBOARD
    m, n, k, t, reps = (cfg["items"], cfg["models"], cfg["concepts"],
                        cfg["planted_skills"], cfg["repeats"])
    rng = np.random.default_rng([seed, 3])
    item_f = rng.gamma(0.5, 2.0, (m, t))
    model_f = rng.gamma(4.0, 0.25, (t, n))
    concept_f = rng.gamma(0.3, 3.0, (t, k))
    align = item_f @ model_f
    difficulty = rng.normal(0.0, 1.0, (m, 1))
    p_response = sigmoid(4.0 * (align / np.median(align) - 1.0) + 0.5 - difficulty)

    tag_align = item_f @ concept_f
    qmat = np.zeros((m, k))
    for i in range(m):
        order = np.argsort(-tag_align[i], kind="stable")[:4]
        keep = order[tag_align[i, order] >= 0.5 * tag_align[i, order[0]]]
        qmat[i, keep] = 1.0

    item_ids = [f"q-{i:03d}" for i in range(m)]
    model_ids = [f"lm-{j:03d}" for j in range(n)]
    concept_ids = [f"c-{c:02d}" for c in range(k)]
    letters = np.array(list("ABCD"))
    keys = []
    for _ in range(m):
        size = int(rng.integers(2, 4)) if rng.random() < P_MULTI_KEY else 1
        keys.append("".join(sorted(rng.choice(letters, size=size, replace=False))))

    root.mkdir(parents=True, exist_ok=True)
    bank = {
        "format_version": 1,
        "concepts": [{"id": c, "label": f"concept {c}"} for c in concept_ids],
        "items": [
            {"id": item_ids[i], "prompt": f"question {i}", "answer_key": keys[i],
             "concepts": [concept_ids[c] for c in np.flatnonzero(qmat[i])]}
            for i in range(m)
        ],
    }
    (root / "bank.json").write_text(json.dumps(bank, indent=1) + "\n", encoding="utf-8")
    _matrix_csv(root / "qmatrix.csv", "item_id", item_ids, concept_ids, qmat)

    present = rng.random((n, m, reps)) < P_PRESENT
    correct = rng.random((n, m, reps)) < p_response.T[:, :, None]
    unparseable = rng.random((n, m, reps)) < P_UNPARSEABLE
    template = rng.integers(0, len(ANSWER_TEMPLATES), (n, m, reps))
    joiner = rng.integers(0, len(MULTI_JOINERS), (n, m, reps))
    wrong_pick = rng.integers(0, 1 << 30, (n, m, reps))
    logs_dir = root / "logs"
    logs_dir.mkdir(exist_ok=True)
    handles = [open(logs_dir / f"part-{f}.jsonl", "w", encoding="utf-8")
               for f in range(cfg["log_files"])]
    try:
        for j in range(n):
            fh = handles[j % len(handles)]
            for i in range(m):
                key = keys[i]
                wrong = [s for s in ("A", "B", "C", "D") if s != key] if len(key) == 1 else \
                    [s for s in ("A", "B", "C", "D", "AB", "BD", "ABC") if s != key]
                for r in range(reps):
                    if not present[j, i, r]:
                        continue
                    if unparseable[j, i, r]:
                        output = UNPARSEABLE[wrong_pick[j, i, r] % len(UNPARSEABLE)]
                    else:
                        answer = key if correct[j, i, r] else wrong[wrong_pick[j, i, r] % len(wrong)]
                        text = MULTI_JOINERS[joiner[j, i, r]].join(answer)
                        output = ANSWER_TEMPLATES[template[j, i, r]].format(a=text)
                    fh.write(json.dumps({"model": model_ids[j], "item": item_ids[i],
                                         "attempt": r, "output": output},
                                        ensure_ascii=False) + "\n")
    finally:
        for fh in handles:
            fh.close()

    # Coders tag each item from its planted tags, dropping and adding some.
    coder_rows = []
    units_pairable = 0
    for i in range(m):
        cells = []
        for _ in range(cfg["coders"]):
            tags = {concept_ids[c] for c in np.flatnonzero(qmat[i]) if rng.random() >= 0.15}
            if rng.random() < 0.2:
                tags.add(concept_ids[int(rng.integers(0, k))])
            cells.append(";".join(sorted(tags)) if rng.random() >= 0.1 else "")
        units_pairable += sum(1 for c in cells if c) >= 2
        coder_rows.append([item_ids[i], *cells])
    with open(root / "annotations.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", *[f"coder_{c}" for c in range(cfg["coders"])]])
        writer.writerows(coder_rows)

    # What grading must produce: per cell, correct parsed attempts / attempts.
    count = present.sum(axis=2).T
    right = (present & correct & ~unparseable).sum(axis=2).T
    scores = np.divide(right, count, out=np.zeros((m, n)), where=count > 0)
    weights = np.minimum(count / reps, 1.0)
    return {
        "scores": scores,
        "weights": weights,
        "item_ids": item_ids,
        "model_ids": model_ids,
        "unparseable": int((present & unparseable).sum()),
        "attempts": int(present.sum()),
        "alpha_units": units_pairable,
        "coders": cfg["coders"],
        "p_response": p_response,
        "qmat": qmat,
        "p_mastery": model_f.T @ concept_f,
    }


def world_seeds(workload: str, seed: int) -> list[int]:
    """Seeds of the workload's worlds; distinct seeds give disjoint worlds."""
    count = WORLDS[workload]
    return [count * seed + k for k in range(count)]


def plan(workload: str, seed: int, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The workload's cdmkit commands in order, as (stage, argv) pairs."""
    s = str(seed)
    if workload in ("gate", "large"):
        size = GATE if workload == "gate" else LARGE
        sim = [
            "simulate", "--items", str(size["items"]), "--models", str(size["models"]),
            "--concepts", str(size["concepts"]), "--skills", str(size["skills"]),
            "--seed", s, "--out", str(out / "simulate"),
        ]
        matrices = [
            "--scores", str(out / "simulate" / "scores.csv"),
            "--weights", str(out / "simulate" / "weights.csv"),
            "--qmatrix", str(out / "simulate" / "qmatrix.csv"),
        ]
        if workload == "gate":
            fit_opts = ["--starts", str(GATE["starts"])]
        else:
            fit_opts = ["--starts", "1", "--max-iters", str(LARGE["max_iters"])]
        steps = [
            ("simulate", sim),
            ("fit", ["fit", *matrices, "--skills", str(size["skills"]), *fit_opts,
                     "--seed", s, "--out", str(out / "fit")]),
        ]
        if workload == "gate":
            steps.append(("sweep", ["sweep", *matrices, "--skills-grid", GATE_SKILLS_GRID,
                                    "--seed", s, "--out", str(out / "sweep")]))
    else:
        steps = [
            ("grade", ["grade", "--bank", str(inputs / "bank.json"),
                       "--logs", str(inputs / "logs" / "*.jsonl"),
                       "--repeats", str(LEADERBOARD["repeats"]), "--out", str(out / "grade")]),
            ("fit", ["fit", "--scores", str(out / "grade" / "scores.csv"),
                     "--weights", str(out / "grade" / "weights.csv"),
                     "--qmatrix", str(inputs / "qmatrix.csv"),
                     "--skills", str(LEADERBOARD["fit_skills"]), "--starts", "1",
                     "--max-iters", str(LEADERBOARD["max_iters"]), "--seed", s, "--out", str(out / "fit")]),
        ]
    steps.append(("diagnose", ["diagnose", "--mastery", str(out / "fit" / "mastery.json"),
                               "--out", str(out / "diagnose")]))
    if workload == "leaderboard":
        steps.append(("agreement", ["agreement", "--annotations",
                                    str(inputs / "annotations.csv"),
                                    "--distance", "jaccard", "--out", str(out / "agreement")]))
    return steps
