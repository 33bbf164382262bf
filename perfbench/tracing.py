"""Spans and counters for the traced benchmark run, recorded from outside the program.

install() wraps the functions each ctxsent module calls in another module,
by rebinding the name the caller looks up (for example cli.read_samples or
ResponseCache.put), and the function it returns restores the originals, so
untraced rounds run the program unchanged. A span records its name, start,
end and the span that caused it. Spans stay in memory until the run ends.

A span opened on a worker thread with no open span of its own (the
classifier's thread pool) takes the innermost span open on the main thread
as its parent: the main thread is waiting inside predict_batch then.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

import numpy as np

# Stage spans report inclusive time, because they say which stage carries
# the wall time; write_outputs too, as its work is serialising prediction
# rows inside the write_jsonl call it makes. Every other time is self time:
# the span minus the part of it that its child spans cover.
SPAN_TIMES = {
    "cli.ingest_s": ("cli.ingest", "total"),
    "cli.generate_context_s": ("cli.generate_context", "total"),
    "cli.predict_s": ("cli.predict", "total"),
    "cli.fuse_s": ("cli.fuse", "total"),
    "cli.evaluate_s": ("cli.evaluate", "total"),
    "cli.sweep_s": ("cli.sweep", "total"),
    "cli.compare_types_s": ("cli.compare_types", "total"),
    "cli.manifest_s": ("cli.manifest", "self"),
    "datamodel.ingest_s": ("datamodel.ingest", "self"),
    "datamodel.read_samples_s": ("datamodel.read_samples", "self"),
    "datamodel.read_predictions_s": ("datamodel.read_predictions", "self"),
    "datamodel.write_jsonl_s": ("datamodel.write_jsonl", "self"),
    "prompts.render_s": ("prompts.render", "self"),
    "backend.cache_put_s": ("backend.cache_put", "self"),
    "backend.cache_load_s": ("backend.cache_load", "self"),
    "backend.cache_get_s": ("backend.cache_get", "self"),
    "backend.caching_s": ("backend.caching", "self"),
    "backend.score_s": ("backend.score", "self"),
    "backend.generate_s": ("backend.generate", "self"),
    "classifier.predict_batch_s": ("classifier.predict_batch", "self"),
    "classifier.read_outputs_s": ("classifier.read_outputs", "self"),
    "classifier.write_outputs_s": ("classifier.write_outputs", "total"),
    "fusion.fuse_records_s": ("fusion.fuse_records", "self"),
    "evaluate.compute_metrics_s": ("evaluate.compute_metrics", "self"),
    "evaluate.entropy_s": ("evaluate.entropy", "self"),
    "evaluate.sweep_s": ("evaluate.sweep", "self"),
}

SPAN_CALLS = {
    "datamodel.read_samples_calls": "datamodel.read_samples",
    "prompts.render_calls": "prompts.render",
    "backend.cache_loads": "backend.cache_load",
    "backend.score_calls": "backend.score",
    "backend.generate_calls": "backend.generate",
    "classifier.read_outputs_calls": "classifier.read_outputs",
    "fusion.fuse_records_calls": "fusion.fuse_records",
    "evaluate.compute_metrics_calls": "evaluate.compute_metrics",
}

COUNTS = (
    "datamodel.jsonl_rows_read",
    "datamodel.distributions_built",
    "backend.cache_hits",
    "backend.cache_misses",
    "digest.derive_seed_calls",
    "fusion.pairs_fused",
    "evaluate.sweep_points",
)
MOCK_CALLS = "backend.mock_calls"


class Tracer:
    """Spans, counters and HTTP latencies of one traced round."""

    def __init__(self, counts: tuple[str, ...] = COUNTS + ("fusion.hard_pairs",)) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # (id, parent id or 0, name, start, end)
        self.http_ms: list[float] = []
        # Each counter is a list of increments: list.append is atomic, so
        # any thread counts without a lock.
        self._counts: dict[str, list[int]] = {name: [] for name in counts}
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._stacks = {threading.main_thread().ident: self._main_stack}

    def _stack(self) -> list[int]:
        stack = self._stacks.get(threading.get_ident())
        if stack is None:
            stack = self._stacks.setdefault(threading.get_ident(), [])
        return stack

    def tick(self, name: str, n: int = 1) -> None:
        """Count n events, from any thread."""
        self._counts[name].append(n)

    def total(self, name: str) -> int:
        return sum(self._counts[name])

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result, end - start)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.tick(name)
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for span_id, _, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - _covered(children.get(span_id, ()), start, end)
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, (name, kind) in SPAN_TIMES.items():
            out[metric] = total[name] if kind == "total" else own[name]
        for metric, name in SPAN_CALLS.items():
            out[metric] = calls[name]
        for name in COUNTS:
            out[name] = self.total(name)
        lookups = out["backend.cache_hits"] + out["backend.cache_misses"]
        out["backend.cache_hit_ratio"] = out["backend.cache_hits"] / lookups if lookups else 0.0
        pairs = out["fusion.pairs_fused"]
        out["fusion.hard_ratio"] = self.total("fusion.hard_pairs") / pairs if pairs else 0.0
        latencies = np.array(self.http_ms)
        out["backend.http_p50_ms"] = float(np.percentile(latencies, 50)) if latencies.size else 0.0
        out["backend.http_p99_ms"] = float(np.percentile(latencies, 99)) if latencies.size else 0.0
        return out


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class _Patches:
    """Attributes rebound to wrappers of their originals, until undo()."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []

    def __call__(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)


def count_mock_calls(tracer: Tracer) -> Callable[[], None]:
    """Count MockBackend's own calls as MOCK_CALLS; returns the function that undoes it.

    The cache must leave none on a warm rerun. tracer must be made with
    MOCK_CALLS among its counts.
    """
    from ctxsent.backend import MockBackend

    patch = _Patches()
    patch(MockBackend, "score_choices", lambda fn: tracer.counter(MOCK_CALLS, fn))
    patch(MockBackend, "generate", lambda fn: tracer.counter(MOCK_CALLS, fn))
    return patch.undo


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the cross-module calls of ctxsent; returns the function that undoes it."""
    import requests

    from ctxsent import backend, classifier, cli, datamodel, evaluate

    patch = _Patches()

    def span(name: str, on_result: Callable | None = None) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.span(name, fn, on_result)

    def counter(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.counter(name, fn)

    def counting_rows(read_jsonl: Callable) -> Callable:
        @functools.wraps(read_jsonl)
        def wrapper(*args, **kwargs):
            for item in read_jsonl(*args, **kwargs):
                tracer.tick("datamodel.jsonl_rows_read")
                yield item

        return wrapper

    def on_cache_get(entry, _elapsed) -> None:
        tracer.tick("backend.cache_hits" if entry is not None else "backend.cache_misses")

    def on_fused(records, _elapsed) -> None:
        tracer.tick("fusion.pairs_fused", len(records))
        tracer.tick("fusion.hard_pairs", sum(1 for r in records if r.is_hard))

    def on_http(_response, elapsed) -> None:
        tracer.http_ms.append(elapsed * 1000.0)

    for stage in ("ingest", "generate_context", "predict", "fuse", "evaluate", "sweep", "compare_types"):
        patch(cli, f"cmd_{stage}", span(f"cli.{stage}"))
    patch(cli, "_write_manifest", span("cli.manifest"))

    patch(cli, "ingest_dataset", span("datamodel.ingest"))
    patch(cli, "read_samples", span("datamodel.read_samples"))
    patch(cli, "read_predictions", span("datamodel.read_predictions"))
    for owner in (datamodel, classifier, cli):
        patch(owner, "read_jsonl", counting_rows)
    for owner in (datamodel, classifier):
        patch(owner, "write_jsonl", span("datamodel.write_jsonl"))
    patch(datamodel.PolarityDistribution, "__post_init__", counter("datamodel.distributions_built"))

    patch(cli, "render_context_prompt", span("prompts.render"))
    patch(classifier, "render_task_instruction", span("prompts.render"))

    patch(backend.ResponseCache, "__init__", span("backend.cache_load"))
    patch(backend.ResponseCache, "get", span("backend.cache_get", on_cache_get))
    patch(backend.ResponseCache, "put", span("backend.cache_put"))
    patch(backend.CachingBackend, "score_choices", span("backend.caching"))
    patch(backend.CachingBackend, "generate", span("backend.caching"))
    for inner in (backend.MockBackend, backend.RemoteBackend):
        patch(inner, "score_choices", span("backend.score"))
        patch(inner, "generate", span("backend.generate"))
    patch(backend, "derive_seed", counter("digest.derive_seed_calls"))
    patch(requests.Session, "post", span("backend.http_post", on_http))

    patch(cli, "predict_batch", span("classifier.predict_batch"))
    patch(cli, "read_outputs", span("classifier.read_outputs"))
    patch(cli, "write_outputs", span("classifier.write_outputs"))

    for owner in (cli, evaluate):
        patch(owner, "fuse_records", span("fusion.fuse_records", on_fused))
        patch(owner, "compute_metrics", span("evaluate.compute_metrics"))
    patch(cli, "error_rate_by_entropy", span("evaluate.entropy"))
    patch(cli, "sweep", span("evaluate.sweep", lambda result, _: tracer.tick("evaluate.sweep_points", len(result.grid))))

    return patch.undo


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_ms", "ms"), ("_mb", "MiB"), ("_ratio", "ratio"), ("_pct", "%")):
        if metric.endswith(suffix):
            return name
    return "count"


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
