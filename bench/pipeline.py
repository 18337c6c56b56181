"""Closed loop: one process runs a workload's cdmkit commands back to back.

Started by run.py as `python3 bench/pipeline.py JOB.json`.  A pipeline run
calls `cdmkit.cli.main(argv)` for each of one world's commands in order and
times each call from outside; a round runs every world of the workload once.
After one untimed warm-up run, rounds repeat until the next one would end past
the job's seconds.  With tracing on, traced and untraced rounds alternate, so
the tracing overhead is measured under the same conditions.  Before each
command and after the last, a fixed piece of reference work gauges how fast
the host runs at that moment (see Gauge).  The result goes to the job's result
file; cdmkit's own printing goes to this process's stdout and stderr.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path


class Gauge:
    """Times a fixed piece of work like cdmkit's: JSON encoding and numpy arithmetic.

    A shared host runs everything up to ~1.6x slower for tens of seconds at a
    time.  The gauge's mean over a run shows how fast the host ran during it,
    and run.py adjusts the run's times by it.  The gauge calls no BLAS
    routine, so cdmkit's BLAS settings cannot move it.
    """

    def __init__(self) -> None:
        import numpy

        self.doc = [{"id": f"item-{i}", "values": [i * 0.5, i / 3.0], "tags": ["a", "b", "c"]}
                    for i in range(5000)]
        self.array = numpy.random.default_rng(0).random(200_000)
        self()

    def __call__(self) -> float:
        started = time.perf_counter()
        json.dumps(self.doc, indent=2, sort_keys=True)
        for _ in range(24):
            (self.array * 1.5 + 0.25).sum()
        return time.perf_counter() - started


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root; a manifest is hashed without created_at."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            try:
                manifest = json.loads(data)
                manifest.pop("created_at", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            except (ValueError, AttributeError):
                pass  # hashed as written; the output check reports the bad manifest
        digests[str(path.relative_to(root))] = hashlib.sha256(data).hexdigest()
    return digests


def blas_info() -> dict:
    """The BLAS numpy was built against and the threads it runs with here."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib_path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_pipeline(cli_main, commands, tracer, gauge) -> dict:
    """Run one world's commands in order; per-command seconds and exit codes.

    `gauges` has the gauge's seconds before each command and after the last.
    """
    times, codes, gauges = {}, {}, []
    for stage, argv in commands:
        gauges.append(gauge())
        span = tracer.open(f"cli.{stage}") if tracer else None
        started = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception:  # a crash fails this command; the loop goes on
            traceback.print_exc()
            code = -1
        times[stage] = time.perf_counter() - started
        if tracer:
            tracer.close(span, code != 0)
        codes[stage] = code
    gauges.append(gauge())
    return {"times": times, "codes": codes, "gauges": gauges}


def checked_run(cli_main, commands, tracer, gauge, out: Path, **labels) -> dict:
    run = run_pipeline(cli_main, commands, tracer, gauge)
    run["digests"] = {stage: digest_tree(out / stage) for stage, _ in commands}
    run.update(labels)
    return run


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from cdmkit.cli import main as cli_main

    # cdmkit imports scipy.stats on first use; a CLI user pays that on every
    # command, this loop only once, so it is paid here, before timing.
    import scipy.stats  # noqa: F401

    gauge = Gauge()

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
    out = Path(job["out"])
    worlds = job["worlds"]
    # The first run in a process pays one-off costs (the allocator growing,
    # files entering the page cache), so world 0 runs once untimed first.
    # It is checked like every other run, and it is world 0's rerun.
    shutil.rmtree(out, ignore_errors=True)
    runs = [checked_run(cli_main, worlds[0], None, gauge, out / "w0", round=-1, world=0,
                        traced=False)]
    round_layers = []
    started = time.perf_counter()
    # With tracing on, the overhead needs a traced and an untraced round.
    min_rounds = 2 if tracer is not None else 1
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 0
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracer.install()
        try:
            for k, commands in enumerate(worlds):
                runs.append(checked_run(cli_main, commands, tracer if traced else None, gauge,
                                        out / f"w{k}", round=rounds, world=k, traced=traced))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            round_layers.append(tracing.layer_metrics(tracer, per=len(worlds)))
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > job["seconds"]:
            break
    if tracer is not None:
        tracer.write_spans(Path(job["spans"]))
    result = {"runs": runs, "round_layers": round_layers, "blas": blas_info(),
              "loop_s": time.perf_counter() - started}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
