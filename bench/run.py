"""cdmkit pipeline benchmark.

    python3 bench/run.py --workload {gate,large,leaderboard} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  It writes the workload's inputs from the
seed, times how long `import cdmkit.cli` takes in a fresh interpreter, then
starts bench/pipeline.py, which runs the workload's commands back to back for
S seconds.  It checks every command's outputs, prints a report, and prints as
its last line a JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  The full result goes to .bench_work/results/.  See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import worlds

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
# Never use this seed while writing a change; check the change's claim on it.
HOLDOUT_SEED = 20250813
# setup_s is the median of this many fresh interpreters, half of them started
# before the timed loop and half after it, so that one slow phase of a shared
# host does not set it.
SETUP_SAMPLES = 10
DEADLINE_S = 170.0
# The gauge's mean seconds on the 2-core Xeon box the benchmark was tuned on.
# It only scales the _adj_s times, alike on every commit.
GAUGE_NOMINAL_S = 0.075

STAGES = ("simulate", "grade", "fit", "sweep", "diagnose", "agreement")
# The metrics of the final JSON line are those BENCHMARK.json lists.  These
# are reported too, but some workloads never run the command or reach the
# layer, or the time spreads too much between runs.  Wall seconds follow the
# shared host's phases (see bench/README.md, Steadiness); diagnose_s spread
# past every allowed bound before the gauge existed, so diagnose_adj_s is
# left out of the JSON line too.
END_TO_END_REPORTED = (
    *((f"{stage}_s", "s") for stage in ("pipeline", *STAGES)),
    *((f"{stage}_adj_s", "s") for stage in STAGES if stage != "fit"),
    ("gauge_s", "s"), ("error_rate", "ratio"), ("recon_auc", "auc"),
)
PER_LAYER_REPORTED = (
    ("responses.load_logs_s", "s"), ("responses.attempts", "count"),
    ("responses.aggregate_self_s", "s"),
    ("grading.calls", "count"), ("grading.s", "s"), ("grading.unparsed", "count"),
    ("grading.parse_ratio", "ratio"),
    ("bank.load_s", "s"), ("bank.items", "count"),
    ("simulate.draw_s", "s"), ("simulate.save_s", "s"), ("simulate.bytes_written", "bytes"),
    ("metrics.alpha_s", "s"),
    ("trace.traced_pipeline_s", "s"), ("trace.untraced_pipeline_s", "s"),
    ("trace.spans", "count"), ("trace.spans_raised", "count"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=worlds.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def measure_setup(env: dict[str, str], count: int, warm: bool = False) -> list[float]:
    """Interpreter start through `import cdmkit.cli`, as every CLI command pays it."""
    samples = []
    for i in range(count + warm):  # a first run may write bytecode caches
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cdmkit.cli"], env=env, check=True,
                       cwd=ROOT, stdout=subprocess.DEVNULL)
        if i or not warm:
            samples.append(time.perf_counter() - started)
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def median_of(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def mean_of(values) -> float | None:
    values = list(values)
    return None if not values or None in values else statistics.fmean(values)


def find_failures(runs, plans, workload, out, expects) -> tuple[set, list[str]]:
    """(run index, stage) pairs that failed, and why."""
    failed, reasons = set(), []
    first: dict[int, dict] = {}
    for i, run in enumerate(runs):
        world = run["world"]
        reference = first.setdefault(world, run["digests"])
        for stage, _ in plans[world]:
            digests = run["digests"][stage]
            why = []
            if run["codes"][stage] != 0:
                why.append(f"exit code {run['codes'][stage]}")
            missing = checks.missing_files(stage, digests)
            if missing:
                why.append(f"missing {missing}")
            if digests != reference[stage]:
                changed = sorted(k for k in set(digests) | set(reference[stage])
                                 if digests.get(k) != reference[stage].get(k))
                why.append(f"not byte-identical to its first run: {changed}")
            if why:
                failed.add((i, stage))
                reasons.append(f"world {world} round {run['round']} {stage}: " + "; ".join(why))
    # The files on disk are each world's last run; they stand for every run
    # of that world that wrote identical bytes.
    for world, commands in enumerate(plans):
        mine = [i for i, run in enumerate(runs) if run["world"] == world]
        last = mine[-1]
        for stage, _ in commands:
            if (last, stage) in failed:
                continue
            problems = checks.check_stage(stage, out / f"w{world}" / stage, workload,
                                          expects[world])
            if problems:
                failed.update((i, stage) for i in mine
                              if runs[i]["digests"][stage] == runs[last]["digests"][stage])
                reasons.extend(f"world {world}: {problem}" for problem in problems)
    return failed, reasons


def round_times(runs) -> list[dict]:
    """Per timed round: each stage's seconds and the pipeline's, as a mean over
    worlds, and every gauge sample taken in the round."""
    rounds: dict[int, list[dict]] = {}
    for run in runs:
        if run["round"] >= 0:
            rounds.setdefault(run["round"], []).append(run)
    summary = []
    for _, group in sorted(rounds.items()):
        times = {stage: statistics.fmean(run["times"][stage] for run in group)
                 for stage in group[0]["times"]}
        times["pipeline"] = statistics.fmean(sum(run["times"].values()) for run in group)
        summary.append({"traced": group[0]["traced"], "times": times,
                        "gauges": [g for run in group for g in run["gauges"]]})
    return summary


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_child(work: Path, job: dict, env: dict[str, str], started: float) -> dict | None:
    """Run bench/pipeline.py on the job; its result, or None if it failed."""
    (work / "job.json").write_text(json.dumps(job, indent=1), encoding="utf-8")
    with open(work / "pipeline.log", "w", encoding="utf-8") as log:
        child = subprocess.Popen([sys.executable, str(BENCH / "pipeline.py"),
                                  str(work / "job.json")],
                                 env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = child.wait(timeout=max(DEADLINE_S - (time.perf_counter() - started), 1.0))
        except subprocess.TimeoutExpired:
            print(f"error: pipeline ran past {DEADLINE_S:.0f} s; see {work / 'pipeline.log'}",
                  file=sys.stderr)
            return None
        finally:  # on a timeout, SIGTERM or Ctrl-C too
            if child.poll() is None:
                child.kill()
                child.wait()
    if code != 0:
        print(f"error: pipeline runner exited {code}; see {work / 'pipeline.log'}",
              file=sys.stderr)
        return None
    return json.loads((work / "pipeline.json").read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM as on Ctrl-C, so that the pipeline child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    if not (ROOT / "src" / "cdmkit" / "cli.py").is_file():
        print(f"error: no cdmkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)

    seeds = worlds.world_seeds(args.workload, args.seed)
    plans, expects = [], []
    for k, world_seed in enumerate(seeds):
        expects.append(worlds.write_leaderboard(world_seed, inputs / f"w{k}")
                       if args.workload == "leaderboard" else {})
        plans.append(worlds.plan(args.workload, world_seed, inputs / f"w{k}", out / f"w{k}"))

    env = child_env()
    setup = measure_setup(env, SETUP_SAMPLES // 2, warm=True)
    job = {
        "src": str(ROOT / "src"), "out": str(out), "worlds": plans,
        "seconds": args.seconds, "trace": args.trace,
        "result": str(work / "pipeline.json"), "spans": str(work / "spans.csv"),
    }
    result = run_child(work, job, env, started)
    if result is None:
        return 1
    setup += measure_setup(env, SETUP_SAMPLES - len(setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    runs = result["runs"]
    rounds = round_times(runs)
    plain = [r["times"] for r in rounds if not r["traced"]]
    gauge_s = statistics.fmean(g for r in rounds if not r["traced"] for g in r["gauges"])
    traced = [r["times"] for r in rounds if r["traced"]]

    failed, reasons = find_failures(runs, plans, args.workload, out, expects)
    attempted = sum(len(plans[run["world"]]) for run in runs)
    figures = ([checks.quality(args.workload, out / f"w{k}", expects[k])
                for k in range(len(plans))] if not failed else [])
    stages = [stage for stage, _ in plans[0]]

    # A shared host switches between a fast and a ~1.6x slower phase, for
    # seconds to minutes at a time.  The median of a few rounds jumps between
    # the two; the mean over every round of the timed window follows the share
    # of slow time.  What is left, phases that last the whole run, the gauge
    # shows.  cdmkit's stages slow down by 0.35-0.9 times as much as the
    # gauge (in logs), so the _adj_s times take out half of the gauge's
    # deviation from nominal: t * sqrt(nominal / gauge).
    e2e = {
        "setup_s": statistics.median(setup),
        "gauge_s": gauge_s,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": len(failed) / attempted,
    }
    adjust = (GAUGE_NOMINAL_S / gauge_s) ** 0.5
    for stage in ("pipeline", *STAGES):
        reached = stage == "pipeline" or stage in stages
        e2e[f"{stage}_s"] = mean_of(t[stage] for t in plain) if reached else None
        e2e[f"{stage}_adj_s"] = e2e[f"{stage}_s"] * adjust if reached else None
    for name in ("recovery_rho", "recon_auc", "recon_rmse"):
        e2e[name] = mean_of(f[name] for f in figures)
    layers: dict = {}
    if traced:
        for name in result["round_layers"][0]:
            layers[name] = median_of(r[name] for r in result["round_layers"])
        layers["trace.traced_pipeline_s"] = mean_of(t["pipeline"] for t in traced)
        layers["trace.untraced_pipeline_s"] = e2e["pipeline_s"]
        layers["trace.overhead_s"] = layers["trace.traced_pipeline_s"] - e2e["pipeline_s"]

    env_info = environment(args.seed)
    env_info["blas"] = result["blas"]
    env_info["world_seeds"] = seeds
    full = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env_info, "worlds": plans,
        "runs": [{k: v for k, v in run.items() if k != "digests"} for run in runs],
        "rounds": rounds, "setup_samples_s": setup, "end_to_end": e2e, "per_layer": layers,
        "worlds_quality": figures, "attempted": attempted, "failed": len(failed),
        "failures": reasons,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n",
                                                  encoding="utf-8")

    blas = result["blas"]
    print(f"workload={args.workload} seed={args.seed} world_seeds={seeds} "
          f"holdout_seed={HOLDOUT_SEED} trace={args.trace} commit={env_info['commit']} "
          f"source_sha256={env_info['source_sha256'][:16]}")
    print(f"nproc={env_info['nproc']} blas={blas['name']} {blas['version']} "
          f"threads={blas['threads']} python={env_info['python']} "
          f"numpy={env_info['numpy']} scipy={env_info['scipy']}")
    print(f"closed loop, 1 process: 1 untimed warm-up run, then {len(plain)} untraced + "
          f"{len(traced)} traced rounds of {len(plans)} world(s) x ({', '.join(stages)}); "
          f"times are per world, means over the untraced rounds; *_adj_s is that mean "
          f"times sqrt({GAUGE_NOMINAL_S} s / gauge_s); setup_s is the median of "
          f"{len(setup)} fresh interpreters, half before and half after the rounds")
    print("end-to-end:")
    not_run = [s for s in STAGES if s not in stages]
    for name, unit in end_to_end + list(END_TO_END_REPORTED):
        if name.split("_")[0] not in not_run:
            print(f"  {name:<28} {fmt(e2e[name]):>12} {unit}")
    print(f"  not run on this workload: {', '.join(not_run)}")
    print("planted worlds (counted from the generated files):")
    for seed, f in zip(seeds, figures):
        line = (f"  seed {seed}: tags/item {f['world_tags_per_item']:.2f} of "
                f"{f['world_concepts']}, cells with p<0.5 {f['world_cells_p_below_half']} of "
                f"{f['world_cells']}, rho {fmt(f['recovery_rho'])}, auc {fmt(f['recon_auc'])}, "
                f"rmse {fmt(f['recon_rmse'])}")
        if args.workload == "gate":
            line += (f", gate-1 auc bound {'met' if f['gate_auc_met'] else 'MISSED'}, "
                     f"gate-2 rho bound {'met' if f['gate_rho_met'] else 'MISSED'}")
        print(line)
    if any(not (f.get("gate_auc_met", True) and f.get("gate_rho_met", True)) for f in figures):
        print("  note: gates 1/2 hold AUC >= 0.95 on seed 7 and rho >= 0.9 on 4 of 5 seeds, "
              "so a miss on one world is reported, not counted as a failure")
    if traced:
        print("per-layer (per world, median over traced rounds; inclusive span time unless "
              "*_self_s):")
        unreached = []
        for name, unit in per_layer + list(PER_LAYER_REPORTED):
            if layers.get(name) is None:
                unreached.append(name)
            else:
                print(f"  {name:<28} {fmt(layers[name]):>12} {unit}")
        print(f"  not reached on this workload: {', '.join(unreached) or 'none'}")
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"error_rate={fmt(e2e['error_rate'])} ({len(failed)} of {attempted} commands failed)")

    names, values = (per_layer, layers) if args.trace else (end_to_end, e2e)
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in names}
    correct = not failed and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
