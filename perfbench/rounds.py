"""Timed part of one benchmark run, in a process of its own.

run.py starts this with the plan that set-up wrote. It runs whole rounds of
the plan's ctxsent commands through ctxsent.cli.main until --seconds have
passed, each round into a fresh output directory, and writes per-round wall
and CPU time, the process's peak RSS and, for traced rounds, the per-layer
metrics to --result. With --trace 1 it alternates untraced and traced
rounds, so one run gives both the layer numbers and the tracing overhead.
Running here keeps the peak RSS free of set-up and of the output checks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import sys
import time
import urllib.request
from pathlib import Path

import tracing


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _stub_stats(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/stats?reset=1", timeout=10) as response:
        return json.load(response)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())

    from ctxsent.cli import main as ctxsent_main

    inner_calls = None
    if plan["count_inner_calls"]:
        inner_calls = tracing.Tracer(counts=(tracing.MOCK_CALLS,))
        tracing.count_mock_calls(inner_calls)
    if plan["stub_url"]:
        _stub_stats(plan["stub_url"])
    rounds = []
    spans = []
    started = time.perf_counter()
    for index in itertools.count():
        out = Path(plan["rounds_dir"]) / f"r{index}"
        run_dir = out / plan["run_id"]
        run_dir.mkdir(parents=True)
        if plan["empty_cache"]:
            Path(plan["cache_path"]).write_bytes(b"")
        for name in plan["copy_into_run"]:
            shutil.copy(Path(plan["inputs_dir"]) / name, run_dir / name)
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            for command in plan["commands"]:
                status = ctxsent_main([*command, "--config", plan["config"], "--out", str(out)])
                if status != 0:
                    print(f"ctxsent {command[0]} exited with {status}", file=sys.stderr)
                    return 1
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
            if traced:
                uninstall()
        record = {"dir": str(run_dir), "traced": traced, "wall_s": wall, "cpu_s": cpu}
        if plan["stub_url"]:
            record["stub"] = _stub_stats(plan["stub_url"])
        if traced:
            layers = tracer.metrics()
            cache = plan["cache_path"]
            layers["backend.cache_file_mb"] = Path(cache).stat().st_size / 2**20 if cache else 0.0
            stub = record.get("stub", {})
            layers["backend.http_requests"] = stub.get("requests", 0)
            layers["backend.http_retries"] = stub.get("retries", 0)
            layers["backend.in_flight_max"] = stub.get("in_flight_max", 0)
            record["layers"] = layers
            spans.append({"round": index, "spans": [[i, p, n, s - t0, e - t0] for i, p, n, s, e in tracer.spans]})
        rounds.append(record)
        if time.perf_counter() - started >= args.seconds and (not args.trace or index >= 1):
            break

    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inner_calls": inner_calls.total(tracing.MOCK_CALLS) if inner_calls is not None else None,
    }
    Path(args.result).write_text(json.dumps(result))
    if spans:
        trace_path = Path(args.result).with_name("trace.json")
        trace_path.write_text(json.dumps({"columns": ["id", "parent", "name", "start_s", "end_s"], "rounds": spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
