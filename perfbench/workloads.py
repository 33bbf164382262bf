"""The four workloads: their set-up, the commands a round runs, and their output checks.

Each workload's set-up writes its inputs and a plan.json that rounds.py
follows. Checks read the artifacts of the rounds and compare them with
checks.py's references, the generator's own gold labels and expected
answers, never with a stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import stub

HERE = Path(__file__).resolve().parent
KNOWLEDGE_TYPES = ("historical", "cultural")
# Client worker threads and open connections stay within the machine's cores.
CONCURRENCY_LIMIT = min(2, os.cpu_count() or 1)
IMAGE_TOKEN = "<image>"
ALPHA, BETA = 0.3, 0.45
ALPHA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
BETA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
API_KEY_ENV = "PERFBENCH_API_KEY"
RUN_ID = "run"


@dataclass
class Prepared:
    """What one set-up leaves for the timed rounds and the checks."""

    directory: Path
    seed: int
    dataset: gen.Dataset
    plan_path: Path
    stub_process: subprocess.Popen | None = None
    external: dict[str, np.ndarray] = field(default_factory=dict)
    cache_digest: str | None = None

    def close(self) -> None:
        if self.stub_process is not None:
            self.stub_process.terminate()
            try:
                self.stub_process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub_process.kill()
                self.stub_process.wait()
            self.stub_process.stdout.close()
            self.stub_process = None


def _backend(kind: str, model_id: str, base_url: str | None = None) -> dict:
    section = {"kind": kind, "model_id": model_id, "concurrency_limit": CONCURRENCY_LIMIT}
    if kind == "remote":
        section.update(base_url=base_url, api_key_env=API_KEY_ENV, max_retries=2, timeout=30)
    return section


def _write_inputs(directory: Path, seed: int, n: int, repeat_share: float, **config) -> gen.Dataset:
    directory.mkdir(parents=True)
    dataset = gen.make_dataset(seed, n, repeat_share)
    gen.write_jsonl(directory / "dataset.jsonl", dataset.rows)
    full = {
        "dataset": {"path": str(directory / "dataset.jsonl"), "adapter": "canonical-jsonl"},
        "level": "sentence",
        "generator_backend": _backend("mock", "mock-generator"),
        "classifier_backend": _backend("mock", "mock-classifier"),
        "knowledge_types": list(KNOWLEDGE_TYPES),
        "fusion": {"alpha": ALPHA, "beta": BETA, "strategy": "cf"},
        "out_dir": str(directory / "out"),
        "run_id": RUN_ID,
        "seed": seed,
        "image_token": IMAGE_TOKEN,
        "cache_path": None,
    }
    full.update(config)
    (directory / "config.json").write_text(json.dumps(full, indent=2))
    return dataset


def _write_plan(directory: Path, commands, **fields) -> Path:
    plan = {
        "config": str(directory / "config.json"),
        "commands": commands,
        "rounds_dir": str(directory / "rounds"),
        "run_id": RUN_ID,
        "cache_path": None,
        "empty_cache": False,
        "count_inner_calls": False,
        "inputs_dir": None,
        "copy_into_run": [],
        "stub_url": None,
    }
    plan.update(fields)
    path = directory / "plan.json"
    path.write_text(json.dumps(plan, indent=2))
    return path


def _fill_cache(directory: Path) -> None:
    """Run the pipeline once, cold, into directory/cold; the warm rounds reuse its cache."""
    from ctxsent.cli import main as ctxsent_main

    with contextlib.redirect_stdout(io.StringIO()):
        status = ctxsent_main(["pipeline", "--config", str(directory / "config.json"), "--out", str(directory / "cold")])
    if status != 0:
        raise RuntimeError(f"set-up cold run exited with {status}")


def _check_pipeline(run_dir: Path, dataset: gen.Dataset, expected: dict[str, np.ndarray],
                    contexts: dict[str, list[str]]) -> int:
    """Check one pipeline run; returns the number of (sample, prediction set) pairs that failed.

    Only the repeated-sentence samples may fail; any other difference
    raises CheckFailed.
    """
    ids, gold = dataset.ids, dataset.gold
    failed = 0
    dists = {}
    for name in ("base", *KNOWLEDGE_TYPES):
        path = run_dir / f"predictions.{name}.jsonl"
        dists[name] = checks.load_distributions(path, ids)
        failed += len(checks.mismatches(dists[name], expected[name], ids, path.name, allowed=dataset.repeats))
    for knowledge_type in KNOWLEDGE_TYPES:
        checks.check_contexts(run_dir / f"contexts.{knowledge_type}.jsonl", ids, contexts[knowledge_type], knowledge_type)
    labels = {"base": dists["base"].argmax(axis=1)}
    checks.check_metrics(run_dir / "metrics.predictions.base.json", gold, labels["base"])
    for knowledge_type in KNOWLEDGE_TYPES:
        labels[knowledge_type] = checks.check_fused(
            run_dir / f"fused.cf.{knowledge_type}.jsonl", ids, dists["base"], dists[knowledge_type], ALPHA, BETA,
            knowledge_type,
        )
        checks.check_metrics(run_dir / f"metrics.fused.cf.{knowledge_type}.json", gold, labels[knowledge_type])
    checks.check_compare_types(run_dir / "knowledge_types.csv", gold, labels)
    return failed


def _rounds_identical(rounds: list[dict]) -> None:
    first = Path(rounds[0]["dir"])
    for other in rounds[1:]:
        checks.check_identical(first, Path(other["dir"]))


class MockCold:
    """Full pipeline, mock generator and classifier, an empty cache file before every round."""

    name = "mock-cold"
    samples = 1000
    repeat_share = 0.01
    warm = False

    def setup(self, directory: Path, seed: int) -> Prepared:
        cache = directory / "cache.jsonl"
        dataset = _write_inputs(directory, seed, self.samples, self.repeat_share, cache_path=str(cache))
        cache.write_bytes(b"")
        if self.warm:
            _fill_cache(directory)
        plan = _write_plan(directory, [["pipeline"]], cache_path=str(cache), empty_cache=not self.warm,
                           count_inner_calls=self.warm)
        return Prepared(directory, seed, dataset, plan, cache_digest=checks.file_digest(cache))

    def operations(self) -> int:
        return self.samples * (1 + len(KNOWLEDGE_TYPES))

    def check(self, prepared: Prepared, timed: dict) -> int:
        failed = self._check_run(prepared, Path(timed["rounds"][0]["dir"]))
        _rounds_identical(timed["rounds"])
        return failed

    def _check_run(self, prepared: Prepared, run_dir: Path) -> int:
        """Distributions must equal what an uncached MockBackend answers for each sample."""
        from ctxsent.backend import BackendConfig, MockBackend, ScoreHint
        from ctxsent.datamodel import Polarity, Sample
        from ctxsent.prompts import get_template, render_context_prompt, render_task_instruction

        generator = MockBackend(BackendConfig(kind="mock", model_id="mock-generator"), seed=prepared.seed)
        classifier = MockBackend(BackendConfig(kind="mock", model_id="mock-classifier"), seed=prepared.seed)
        templates = {kt: get_template(kt) for kt in KNOWLEDGE_TYPES}
        scores: dict[str, list] = {name: [] for name in ("base", *KNOWLEDGE_TYPES)}
        contexts: dict[str, list[str]] = {kt: [] for kt in KNOWLEDGE_TYPES}
        for row in prepared.dataset.rows:
            sample = Sample(row["id"], row["split"], row["sentence"], image=row["image"],
                            gold=Polarity.from_name(row["label"]))

            def score(context: str | None) -> tuple[float, ...]:
                prompt, choices = render_task_instruction(sample, "sentence", context=context, image_token=IMAGE_TOKEN)
                hint = ScoreHint(sample.id, sample.gold, conditioned=context is not None)
                return classifier.score_choices(prompt, choices, image=sample.image, hint=hint).scores

            scores["base"].append(score(None))
            for kt in KNOWLEDGE_TYPES:
                prompt = render_context_prompt(templates[kt], sample, image_token=IMAGE_TOKEN)
                text = generator.generate(prompt, image=sample.image)
                contexts[kt].append(text)
                scores[kt].append(score(text))
        expected = {name: checks.softmax(values) for name, values in scores.items()}
        return _check_pipeline(run_dir, prepared.dataset, expected, contexts)


class MockWarm(MockCold):
    """The same pipeline against the cache that set-up filled with a cold run."""

    name = "mock-warm"
    warm = True

    def check(self, prepared: Prepared, timed: dict) -> int:
        failed = super().check(prepared, timed)
        checks.check_identical(prepared.directory / "cold" / RUN_ID, Path(timed["rounds"][0]["dir"]),
                               ("predictions.", "contexts.", "fused.", "metrics."))
        if timed["inner_calls"] != 0:
            raise checks.CheckFailed(f"warm rerun made {timed['inner_calls']} inner backend calls")
        if checks.file_digest(prepared.directory / "cache.jsonl") != prepared.cache_digest:
            raise checks.CheckFailed("warm rerun changed the cache file")
        return failed


class PluginSweep:
    """External base and context predictions: ingest, fuse, evaluate, full-grid sweep, compare-types."""

    name = "plugin-sweep"
    samples = 1000
    commands = (
        [["ingest"], ["fuse"]]
        + [["evaluate", "--predictions", f"fused.cf.{kt}.jsonl"] for kt in KNOWLEDGE_TYPES]
        + [["sweep"], ["compare-types"]]
    )

    def setup(self, directory: Path, seed: int) -> Prepared:
        dataset = _write_inputs(
            directory, seed, self.samples, 0.0,
            sweep={"alpha_grid": list(ALPHA_GRID), "beta_grid": list(BETA_GRID), "mode": "full-grid"},
        )
        external = gen.make_external_predictions(seed, dataset.gold, KNOWLEDGE_TYPES)
        inputs = directory / "external"
        inputs.mkdir()
        names = []
        for name, probs in external.items():
            names.append(f"predictions.{name}.jsonl")
            gen.write_predictions(inputs / names[-1], dataset.ids, probs, None if name == "base" else name)
        plan = _write_plan(directory, self.commands, inputs_dir=str(inputs), copy_into_run=names)
        return Prepared(directory, seed, dataset, plan, external=external)

    def operations(self) -> int:
        return len(KNOWLEDGE_TYPES) * (self.samples + len(ALPHA_GRID) * len(BETA_GRID))

    def check(self, prepared: Prepared, timed: dict) -> int:
        run_dir = Path(timed["rounds"][0]["dir"])
        ids, gold, external = prepared.dataset.ids, prepared.dataset.gold, prepared.external
        labels = {"base": external["base"].argmax(axis=1)}
        for kt in KNOWLEDGE_TYPES:
            labels[kt] = checks.check_fused(run_dir / f"fused.cf.{kt}.jsonl", ids, external["base"], external[kt],
                                            ALPHA, BETA, kt)
            checks.check_metrics(run_dir / f"metrics.fused.cf.{kt}.json", gold, labels[kt])
            checks.check_sweep(run_dir / f"sweep.{kt}.json", gold, external["base"], external[kt], ALPHA_GRID, BETA_GRID)
        checks.check_compare_types(run_dir / "knowledge_types.csv", gold, labels)
        _rounds_identical(timed["rounds"])
        return 0


class RemoteStub:
    """Full pipeline with remote generator and classifier against the stub process; no cache."""

    name = "remote-stub"
    samples = 80

    def setup(self, directory: Path, seed: int) -> Prepared:
        process = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")], stdout=subprocess.PIPE, text=True,
        )
        try:
            port = process.stdout.readline().strip()
            if not port.isdigit():
                raise RuntimeError("stub did not report its port")
            url = f"http://127.0.0.1:{port}"
            dataset = _write_inputs(
                directory, seed, self.samples, 0.0,
                generator_backend=_backend("remote", "stub-generator", url),
                classifier_backend=_backend("remote", "stub-classifier", url),
            )
            plan = _write_plan(directory, [["pipeline"]], stub_url=url)
        except BaseException:
            process.kill()
            process.wait()
            process.stdout.close()
            raise
        return Prepared(directory, seed, dataset, plan, stub_process=process)

    def operations(self) -> int:
        return self.samples * (1 + len(KNOWLEDGE_TYPES))

    def check(self, prepared: Prepared, timed: dict) -> int:
        from ctxsent.prompts import get_template

        images = [row["image"] for row in prepared.dataset.rows]
        expected = {"base": checks.softmax([stub.answer_logprobs(image, None) for image in images])}
        contexts = {}
        for kt in KNOWLEDGE_TYPES:
            words = stub.instruction(get_template(kt).body)
            contexts[kt] = [stub.answer_text(image, words) for image in images]
            expected[kt] = checks.softmax([stub.answer_logprobs(i, text) for i, text in zip(images, contexts[kt])])
        # Per sample: one generation request per type, one base and one scoring request per type.
        retries = math.ceil(self.samples / stub.RETRY_EVERY)
        requests = self.samples * (1 + 2 * len(KNOWLEDGE_TYPES)) + retries
        for record in timed["rounds"]:
            # Context records carry a wall-clock timestamp, so every round is checked in full.
            _check_pipeline(Path(record["dir"]), prepared.dataset, expected, contexts)
            counts = record["stub"]
            if counts["in_flight_max"] > CONCURRENCY_LIMIT:
                raise checks.CheckFailed(f"stub saw {counts['in_flight_max']} requests in flight, limit {CONCURRENCY_LIMIT}")
            if (counts["requests"], counts["retries"]) != (requests, retries):
                raise checks.CheckFailed(f"stub counted {counts}, expected {requests} requests and {retries} retries")
        return 0


WORKLOADS = {w.name: w for w in (MockCold(), MockWarm(), PluginSweep(), RemoteStub())}
