"""Command-line pipeline driven by a single run-config JSON file.

Stages write JSONL artifacts under out/<run-id>/ and consume the previous
stage's files: samples -> contexts -> predictions -> fused records -> reports.
Every stage writes a manifest with the config hash and input digests. With the
mock backend and a fixed seed, rerunning a stage reproduces its artifacts
byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import __version__
from .backend import (
    BackendConfig,
    CapabilityError,
    ConfigurationError,
    MockOracleParams,
    ResponseCache,
    TransportError,
    make_backend,
    map_calls,
)
from .classifier import predict_batch, read_outputs, write_outputs
from .datamodel import (
    ContextRecord,
    DatasetError,
    Polarity,
    Sample,
    SchemaError,
    ingest_dataset,
    read_contexts,
    read_jsonl,
    read_predictions,
    read_samples,
    write_contexts,
    write_predictions,
    write_samples,
)
from .digest import stable_digest
from .evaluate import (
    compare_knowledge_types,
    compute_metrics,
    error_rate_by_entropy,
    gold_labels,
    knowledge_rows_to_csv,
    sweep,
)
from .fusion import STRATEGIES, FusionConfig, base_records, fuse_records
from .prompts import (
    PromptTemplate,
    TemplateError,
    get_template,
    load_template_file,
    render_context_prompt,
    render_judge_prompt,
)
from .saliency import SaliencyError, load_dump, s_scores, scores_to_csv

_EPOCH = "1970-01-01T00:00:00+00:00"

_USER_ERRORS = (
    ConfigurationError,
    TransportError,
    CapabilityError,
    DatasetError,
    SchemaError,
    TemplateError,
    SaliencyError,
    ValueError,
    OSError,
)


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    adapter: str = "canonical-jsonl"
    column_map: Mapping[str, Any] | None = None
    split: str = "test"


@dataclass(frozen=True)
class SweepSpec:
    alpha_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    beta_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    mode: str = "two-phase"
    fixed_alpha: float = 0.3


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproducible run needs, loaded from a JSON file."""

    dataset: DatasetSpec
    generator_backend: BackendConfig
    classifier_backend: BackendConfig
    fusion: FusionConfig
    sweep: SweepSpec
    level: str = "sentence"
    knowledge_types: tuple[str, ...] = ("historical",)
    out_dir: str = "out"
    run_id: str | None = None
    seed: int = 0
    image_token: str | None = "<image>"
    cache_path: str | None = None
    score_normalization: str = "total"
    template_file: str | None = None
    instruction_template_file: str | None = None
    config_hash: str = ""


def _require_keys(section: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")


def _parse_backend(raw: Mapping[str, Any] | None, default_model: str) -> BackendConfig:
    if raw is None:
        return BackendConfig(kind="mock", model_id=default_model)
    _require_keys(
        raw,
        (
            "kind", "model_id", "base_url", "api_key_env", "temperature",
            "timeout", "max_retries", "concurrency_limit", "mock",
        ),
        "backend",
    )
    mock_raw = raw.get("mock")
    mock = None
    if mock_raw is not None:
        _require_keys(
            mock_raw,
            ("seed", "base_accuracy", "hard_context_accuracy", "hard_fraction", "hard_penalty", "easy_context_accuracy"),
            "backend.mock",
        )
        mock = MockOracleParams(**mock_raw)
    return BackendConfig(
        kind=raw.get("kind", "mock"),
        model_id=raw.get("model_id", default_model),
        base_url=raw.get("base_url"),
        api_key_env=raw.get("api_key_env"),
        temperature=float(raw.get("temperature", 0.0)),
        timeout=float(raw.get("timeout", 30.0)),
        max_retries=int(raw.get("max_retries", 2)),
        concurrency_limit=int(raw.get("concurrency_limit", 4)),
        mock=mock,
    )


def build_config(raw: Mapping[str, Any]) -> RunConfig:
    _require_keys(
        raw,
        (
            "dataset", "level", "generator_backend", "classifier_backend", "knowledge_types",
            "fusion", "sweep", "out_dir", "run_id", "seed", "image_token", "cache_path",
            "score_normalization", "template_file", "instruction_template_file",
        ),
        "config",
    )
    dataset_raw = raw.get("dataset")
    if not dataset_raw or "path" not in dataset_raw:
        raise ConfigurationError("config requires dataset.path")
    _require_keys(dataset_raw, ("path", "adapter", "column_map", "split"), "dataset")
    fusion_raw = raw.get("fusion") or {}
    _require_keys(fusion_raw, ("alpha", "beta", "strategy", "cxmi_threshold", "gate_alternatives"), "fusion")
    sweep_raw = raw.get("sweep") or {}
    _require_keys(sweep_raw, ("alpha_grid", "beta_grid", "mode", "fixed_alpha"), "sweep")
    knowledge_types = tuple(raw.get("knowledge_types") or ("historical",))
    # The hash identifies the computation, so placement-only keys stay out of it.
    hashed = {k: v for k, v in raw.items() if k not in ("out_dir", "run_id")}
    config_hash = stable_digest(json.dumps(hashed, sort_keys=True))
    return RunConfig(
        dataset=DatasetSpec(
            path=dataset_raw["path"],
            adapter=dataset_raw.get("adapter", "canonical-jsonl"),
            column_map=dataset_raw.get("column_map"),
            split=dataset_raw.get("split", "test"),
        ),
        level=raw.get("level", "sentence"),
        generator_backend=_parse_backend(raw.get("generator_backend"), "mock-generator"),
        classifier_backend=_parse_backend(raw.get("classifier_backend"), "mock-classifier"),
        knowledge_types=knowledge_types,
        fusion=FusionConfig(
            alpha=float(fusion_raw.get("alpha", 0.3)),
            beta=float(fusion_raw.get("beta", 0.45)),
            strategy=fusion_raw.get("strategy", "cf"),
            cxmi_threshold=float(fusion_raw.get("cxmi_threshold", 1.1)),
            gate_alternatives=bool(fusion_raw.get("gate_alternatives", False)),
        ),
        sweep=SweepSpec(
            alpha_grid=tuple(float(a) for a in sweep_raw.get("alpha_grid", SweepSpec.alpha_grid)),
            beta_grid=tuple(float(b) for b in sweep_raw.get("beta_grid", SweepSpec.beta_grid)),
            mode=sweep_raw.get("mode", "two-phase"),
            fixed_alpha=float(sweep_raw.get("fixed_alpha", 0.3)),
        ),
        out_dir=raw.get("out_dir", "out"),
        run_id=raw.get("run_id"),
        seed=int(raw.get("seed", 0)),
        image_token=raw.get("image_token", "<image>"),
        cache_path=raw.get("cache_path"),
        score_normalization=raw.get("score_normalization", "total"),
        template_file=raw.get("template_file"),
        instruction_template_file=raw.get("instruction_template_file"),
        config_hash=config_hash,
    )


def load_config(path: str | Path, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Read the config file and apply CLI overrides before hashing."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc.msg})") from None
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key in ("alpha", "beta", "strategy"):
                raw.setdefault("fusion", {})[key] = value
            elif key == "backend":
                for section in ("generator_backend", "classifier_backend"):
                    raw.setdefault(section, {})["kind"] = value
            elif key == "out":
                raw["out_dir"] = value
            else:
                raw[key] = value
    return build_config(raw)


# ---------------------------------------------------------------------------
# Workspace helpers
# ---------------------------------------------------------------------------

def run_dir(config: RunConfig) -> Path:
    run_id = config.run_id or config.config_hash[:12]
    path = Path(config.out_dir) / run_id
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require_artifact(path: Path, producer: str) -> Path:
    if not path.exists():
        raise ConfigurationError(f"missing upstream artifact: {path} (run `ctxsent {producer}` first)")
    return path


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(config: RunConfig, command: str, inputs: Sequence[Path], outputs: Sequence[Path]) -> None:
    directory = run_dir(config)
    manifest = {
        "command": command,
        "config_hash": config.config_hash,
        "inputs": {p.name: _sha256_file(p) for p in inputs},
        "outputs": [p.name for p in outputs],
        "versions": {"ctxsent": __version__, "python": platform.python_version()},
    }
    path = directory / f"manifest.{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _template_for(config: RunConfig, knowledge_type: str) -> PromptTemplate:
    if config.template_file:
        for template in load_template_file(config.template_file):
            if template.knowledge_type == knowledge_type:
                return template
    return get_template(knowledge_type)


def _instruction_template(config: RunConfig) -> str | None:
    if config.instruction_template_file:
        return Path(config.instruction_template_file).read_text(encoding="utf-8")
    return None


def _golds(samples: Sequence[Sample]) -> dict[str, Polarity]:
    return {s.id: s.gold for s in samples if s.gold is not None}


# ---------------------------------------------------------------------------
# Stage commands
# ---------------------------------------------------------------------------

def cmd_ingest(config: RunConfig) -> Path:
    samples = ingest_dataset(
        config.dataset.path,
        config.dataset.adapter,
        column_map=config.dataset.column_map,
        split=config.dataset.split,
    )
    directory = run_dir(config)
    out = directory / "samples.jsonl"
    write_samples(out, samples)
    _write_manifest(config, "ingest", [Path(config.dataset.path)], [out])
    print(f"wrote {out} ({len(samples)} samples)")
    return out


def cmd_generate_context(config: RunConfig, knowledge_type: str, cache: ResponseCache | None = None) -> Path:
    directory = run_dir(config)
    samples_path = _require_artifact(directory / "samples.jsonl", "ingest")
    samples = read_samples(samples_path)
    template = _template_for(config, knowledge_type)
    backend = make_backend(config.generator_backend, seed=config.seed, cache=cache)
    deterministic = config.generator_backend.kind == "mock"

    def generate(sample: Sample) -> ContextRecord:
        prompt = render_context_prompt(template, sample, image_token=config.image_token)
        text = backend.generate(prompt, image=sample.image)
        return ContextRecord(
            sample_id=sample.id,
            knowledge_type=knowledge_type,
            model_id=config.generator_backend.model_id,
            prompt_hash=prompt.hash,
            text=text,
            created_at=_EPOCH if deterministic else datetime.now(timezone.utc).isoformat(),
        )

    records = map_calls(backend, generate, samples)
    out = directory / f"contexts.{knowledge_type}.jsonl"
    write_contexts(out, records)
    _write_manifest(config, f"generate-context.{knowledge_type}", [samples_path], [out])
    print(f"wrote {out} ({len(records)} contexts)")
    return out


def cmd_predict(config: RunConfig, knowledge_type: str | None, cache: ResponseCache | None = None) -> Path:
    directory = run_dir(config)
    samples_path = _require_artifact(directory / "samples.jsonl", "ingest")
    samples = read_samples(samples_path)
    inputs = [samples_path]
    contexts = None
    if knowledge_type is not None:
        contexts_path = _require_artifact(directory / f"contexts.{knowledge_type}.jsonl", "generate-context")
        contexts = {r.sample_id: r for r in read_contexts(contexts_path)}
        inputs.append(contexts_path)
    backend = make_backend(config.classifier_backend, seed=config.seed, cache=cache)
    result = predict_batch(
        samples,
        config.level,
        backend,
        contexts=contexts,
        image_token=config.image_token,
        normalization=config.score_normalization,
        instruction_template=_instruction_template(config),
    )
    name = knowledge_type if knowledge_type is not None else "base"
    out = directory / f"predictions.{name}.jsonl"
    write_outputs(out, result.outputs)
    outputs = [out]
    if result.failures:
        errors_path = directory / f"errors.predictions.{name}.json"
        _write_json(errors_path, [{"sample_id": f.sample_id, "error": f.error} for f in result.failures])
        outputs.append(errors_path)
        print(f"{len(result.failures)} samples failed; see {errors_path}", file=sys.stderr)
    _write_manifest(config, f"predict.{name}", inputs, outputs)
    print(f"wrote {out} ({len(result.outputs)} predictions)")
    if not result.outputs:
        raise TransportError("all samples failed prediction")
    return out


def cmd_fuse(config: RunConfig, knowledge_type: str) -> Path:
    directory = run_dir(config)
    base_path = _require_artifact(directory / "predictions.base.jsonl", "predict")
    ctx_path = _require_artifact(directory / f"predictions.{knowledge_type}.jsonl", "predict")
    base = read_outputs(base_path)
    ctx = read_outputs(ctx_path)
    records = fuse_records(base, ctx, config.fusion, knowledge_type=knowledge_type)
    out = directory / f"fused.{config.fusion.strategy}.{knowledge_type}.jsonl"
    write_predictions(out, records)
    _write_manifest(config, f"fuse.{config.fusion.strategy}.{knowledge_type}", [base_path, ctx_path], [out])
    print(f"wrote {out} ({len(records)} records)")
    return out


def _records_from_any(path: Path, alpha: float):
    """Read either fused records or raw classifier outputs (wrapped as base records)."""
    first = next(read_jsonl(path), None)
    if first is None:
        raise SchemaError(f"{path}: no records")
    _, row = first
    if "base" in row:
        return read_predictions(path)
    return base_records(read_outputs(path), alpha=alpha)


def cmd_evaluate(config: RunConfig, predictions: str | None) -> Path:
    directory = run_dir(config)
    samples_path = _require_artifact(directory / "samples.jsonl", "ingest")
    if predictions is not None:
        predictions_path = Path(predictions)
        if not predictions_path.exists():
            predictions_path = directory / predictions
    else:
        predictions_path = directory / "predictions.base.jsonl"
    _require_artifact(predictions_path, "predict or fuse")
    samples = read_samples(samples_path)
    golds = _golds(samples)
    records = _records_from_any(predictions_path, config.fusion.alpha)
    gold_list = gold_labels([r.sample_id for r in records], golds)
    report = compute_metrics(gold_list, [r.final_label for r in records])
    scored = {r.sample_id for r in records}
    unscored = [s.id for s in samples if s.id not in scored]
    if unscored:
        print(
            f"scored {len(records)} of {len(samples)} samples; {len(unscored)} have no prediction "
            f"(e.g. {unscored[:5]})",
            file=sys.stderr,
        )
    buckets_all = error_rate_by_entropy(records, golds, hard_only=False, alpha=config.fusion.alpha)
    buckets_hard = error_rate_by_entropy(records, golds, hard_only=True, alpha=config.fusion.alpha)
    stem = predictions_path.stem
    metrics_path = directory / f"metrics.{stem}.json"
    _write_json(metrics_path, report.to_dict())
    entropy_path = directory / f"entropy.{stem}.json"
    _write_json(entropy_path, {"all": buckets_all.to_dict(), "hard": buckets_hard.to_dict()})
    csv_path = directory / f"entropy.{stem}.csv"
    lines = ["subset,bucket_lo,bucket_hi,count,error_rate"]
    for name, report_b in (("all", buckets_all), ("hard", buckets_hard)):
        for lo, hi, count, rate in zip(report_b.edges, report_b.edges[1:], report_b.counts, report_b.error_rates):
            rate_text = "" if rate is None else repr(rate)
            lines.append(f"{name},{lo!r},{hi!r},{count},{rate_text}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(config, f"evaluate.{stem}", [samples_path, predictions_path], [metrics_path, entropy_path, csv_path])
    print(f"wrote {metrics_path} (accuracy {report.accuracy:.4f}, macro-F1 {report.macro_f1:.4f})")
    return metrics_path


def cmd_sweep(config: RunConfig, knowledge_type: str) -> Path:
    directory = run_dir(config)
    samples_path = _require_artifact(directory / "samples.jsonl", "ingest")
    base_path = _require_artifact(directory / "predictions.base.jsonl", "predict")
    ctx_path = _require_artifact(directory / f"predictions.{knowledge_type}.jsonl", "predict")
    golds = _golds(read_samples(samples_path))
    result = sweep(
        read_outputs(base_path),
        read_outputs(ctx_path),
        golds,
        alpha_grid=config.sweep.alpha_grid,
        beta_grid=config.sweep.beta_grid,
        fusion=config.fusion,
        mode=config.sweep.mode,
        fixed_alpha=config.sweep.fixed_alpha,
    )
    out = directory / f"sweep.{knowledge_type}.json"
    _write_json(out, result.to_dict())
    csv_path = directory / f"sweep.{knowledge_type}.csv"
    lines = ["alpha,beta,macro_f1"]
    lines.extend(f"{g.alpha!r},{g.beta!r},{g.macro_f1!r}" for g in result.grid)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(config, f"sweep.{knowledge_type}", [samples_path, base_path, ctx_path], [out, csv_path])
    print(
        f"wrote {out} (selected alpha {result.selected_alpha}, beta {result.selected_beta}, "
        f"dev F1 {result.selected_f1:.4f})"
    )
    return out


def cmd_compare_types(config: RunConfig) -> Path:
    directory = run_dir(config)
    samples_path = _require_artifact(directory / "samples.jsonl", "ingest")
    base_path = _require_artifact(directory / "predictions.base.jsonl", "predict")
    golds = _golds(read_samples(samples_path))
    base = base_records(read_outputs(base_path), alpha=config.fusion.alpha)
    per_type = {}
    inputs = [samples_path, base_path]
    for knowledge_type in config.knowledge_types:
        fused_path = _require_artifact(
            directory / f"fused.{config.fusion.strategy}.{knowledge_type}.jsonl", "fuse"
        )
        per_type[knowledge_type] = read_predictions(fused_path)
        inputs.append(fused_path)
    rows = compare_knowledge_types(base, per_type, golds)
    out = directory / "knowledge_types.csv"
    out.write_text(knowledge_rows_to_csv(rows), encoding="utf-8")
    _write_manifest(config, "compare-types", inputs, [out])
    print(f"wrote {out} ({len(rows)} rows)")
    return out


def cmd_analyze_saliency(config: RunConfig, dump_path: str) -> Path:
    directory = run_dir(config)
    dump_file = Path(dump_path)
    if not dump_file.exists():
        raise ConfigurationError(f"missing saliency dump: {dump_file}")
    dump = load_dump(dump_file)
    scores = s_scores(dump)
    stem = dump_file.stem
    csv_path = directory / f"saliency.{stem}.csv"
    csv_path.write_text(scores_to_csv(scores), encoding="utf-8")
    json_path = directory / f"saliency.{stem}.json"
    _write_json(
        json_path,
        {
            "model_id": dump.model_id,
            "sample_id": dump.sample_id,
            "context_to_prediction": list(scores.context_to_prediction),
            "input_to_prediction": list(scores.input_to_prediction),
        },
    )
    _write_manifest(config, f"analyze-saliency.{stem}", [dump_file], [csv_path, json_path])
    print(f"wrote {csv_path}")
    return csv_path


def cmd_judge_prompt(sentence: str, context1: str, context2: str, out: str | None) -> None:
    prompt = render_judge_prompt(sentence, context1, context2)
    if out:
        Path(out).write_text(prompt.text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(prompt.text)


def cmd_pipeline(config: RunConfig, cache: ResponseCache | None = None) -> None:
    cmd_ingest(config)
    cmd_predict(config, None, cache)
    cmd_evaluate(config, "predictions.base.jsonl")
    for knowledge_type in config.knowledge_types:
        cmd_generate_context(config, knowledge_type, cache)
        cmd_predict(config, knowledge_type, cache)
        fused = cmd_fuse(config, knowledge_type)
        cmd_evaluate(config, fused.name)
    if len(config.knowledge_types) > 1:
        cmd_compare_types(config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run-config JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    parser.add_argument("--alpha", type=float, default=None, help="override fusion alpha")
    parser.add_argument("--beta", type=float, default=None, help="override fusion beta")
    parser.add_argument("--strategy", choices=STRATEGIES, default=None, help="override fusion strategy")
    parser.add_argument(
        "--knowledge-type",
        default=None,
        help="work on this knowledge type only (scope filter; does not change the run id)",
    )
    parser.add_argument("--backend", choices=("mock", "remote"), default=None, help="override backend kind")
    parser.add_argument("--out", default=None, help="override the output directory")


def _overrides(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "seed": args.seed,
        "alpha": args.alpha,
        "beta": args.beta,
        "strategy": args.strategy,
        "backend": args.backend,
        "out": args.out,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctxsent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, extra in (
        ("ingest", ()),
        ("generate-context", ()),
        ("predict", ("--base-only",)),
        ("fuse", ()),
        ("evaluate", ("--predictions",)),
        ("sweep", ()),
        ("compare-types", ()),
        ("analyze-saliency", ("--dump",)),
        ("pipeline", ()),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if "--base-only" in extra:
            p.add_argument("--base-only", action="store_true", help="skip context-conditioned predictions")
        if "--predictions" in extra:
            p.add_argument("--predictions", default=None, help="predictions or fused JSONL to score")
        if "--dump" in extra:
            p.add_argument("--dump", required=True, help="saliency dump JSON file")

    judge = sub.add_parser("judge-prompt")
    judge.add_argument("--sentence", required=True)
    judge.add_argument("--context1", required=True)
    judge.add_argument("--context2", required=True)
    judge.add_argument("--out", default=None, help="write the prompt here instead of stdout")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "judge-prompt":
            cmd_judge_prompt(args.sentence, args.context1, args.context2, args.out)
            return 0
        config = load_config(args.config, _overrides(args))
        active_types = (args.knowledge_type,) if args.knowledge_type else config.knowledge_types
        # One cache per invocation, opened only by the commands that call a backend.
        opens_cache = config.cache_path and args.command in ("generate-context", "predict", "pipeline")
        with ResponseCache(config.cache_path) if opens_cache else contextlib.nullcontext() as cache:
            if args.command == "ingest":
                cmd_ingest(config)
            elif args.command == "generate-context":
                for knowledge_type in active_types:
                    cmd_generate_context(config, knowledge_type, cache)
            elif args.command == "predict":
                cmd_predict(config, None, cache)
                if not args.base_only:
                    for knowledge_type in active_types:
                        cmd_predict(config, knowledge_type, cache)
            elif args.command == "fuse":
                for knowledge_type in active_types:
                    cmd_fuse(config, knowledge_type)
            elif args.command == "evaluate":
                cmd_evaluate(config, args.predictions)
            elif args.command == "sweep":
                for knowledge_type in active_types:
                    cmd_sweep(config, knowledge_type)
            elif args.command == "compare-types":
                cmd_compare_types(config)
            elif args.command == "analyze-saliency":
                cmd_analyze_saliency(config, args.dump)
            elif args.command == "pipeline":
                cmd_pipeline(config, cache)
        return 0
    except _USER_ERRORS as exc:
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(report), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
