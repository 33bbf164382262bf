"""ctxsent benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload mock-cold --seed 1 --seconds 15 --trace 0

Run from the repository root. Set-up builds the workload's inputs from
--seed, several times, and reports the median as setup_s. The timed part
runs in a child process (rounds.py) for --seconds, in whole rounds; the
checks then compare its outputs with references computed apart from the
program. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced rounds with --trace 1. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# Set-up repeats at least this often, and until this much time is spent, so
# that the median of a set-up of a few milliseconds is steady too.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 5, 3.0
# The timed child may overrun --seconds by its last round and its start-up.
CHILD_GRACE_S = 100


def _setup(workload, seed: int, work: Path):
    """Set up repeatedly; keep the last set-up and return it with the median time."""
    times = []
    prepared = None
    while True:
        if prepared is not None:
            prepared.close()
            shutil.rmtree(prepared.directory)
        started = time.perf_counter()
        prepared = workload.setup(work / f"setup{len(times)}", seed)
        times.append(time.perf_counter() - started)
        if len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS:
            return prepared, statistics.median(times)


def _run_rounds(prepared, work: Path, seconds: int, trace: int) -> dict:
    result = work / "rounds.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.setdefault(workloads.API_KEY_ENV, "benchmark")
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "rounds.py"), "--plan", str(prepared.plan_path), "--seconds", str(seconds),
             "--trace", str(trace), "--result", str(result)],
            env=env, stdout=subprocess.DEVNULL, timeout=seconds + CHILD_GRACE_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"timed rounds did not end within {exc.timeout} s") from None
    if child.returncode != 0:
        raise RuntimeError(f"timed rounds exited with {child.returncode}")
    return json.loads(result.read_text())


def _exit_on_sigterm(signum, _frame):
    # Unwinding stops the timed child (subprocess.run kills it) and the stub.
    raise SystemExit(128 + signum)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    if not (ROOT / "src" / "ctxsent" / "__init__.py").is_file():
        print(f"ctxsent sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    prepared = None
    try:
        prepared, setup_s = _setup(workload, args.seed, work)
        timed = _run_rounds(prepared, work, args.seconds, args.trace)
        try:
            failed_per_round = workload.check(prepared, timed)
            correct = True
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            failed_per_round, correct = 0, False
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if prepared is not None:
            prepared.close()

    rounds = timed["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in untraced)
    if args.trace:
        layers = tracing.median_metrics([r["layers"] for r in rounds if r["traced"]])
        traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        layers["trace.overhead_pct"] = 100.0 * (traced_wall / wall_s - 1.0)
        metrics = {name: _metric(value, tracing.unit(name)) for name, value in layers.items()}
    else:
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "samples_per_s": _metric(workload.samples / wall_s, "1/s"),
            "cpu_s": _metric(statistics.median(r["cpu_s"] for r in untraced), "s"),
            "peak_rss_mb": _metric(timed["peak_rss_mb"], "MiB"),
            "setup_s": _metric(setup_s, "s"),
        }
    result = {
        "correct": correct,
        "attempted": len(rounds) * workload.operations(),
        "failed": len(rounds) * failed_per_round,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
