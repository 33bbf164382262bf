"""Command-line pipeline driven by a single run-config JSON file.

Stages write JSONL artifacts under out/<run-id>/: samples -> contexts ->
predictions -> fused records -> reports. `pipeline` hands each stage's values
to the next in memory; a single-stage command reads what earlier commands
wrote. Every stage writes a manifest with the config hash and input digests.
With the mock backend and a fixed seed, rerunning a stage reproduces its
artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Literal, Mapping, Sequence, TypeVar, get_args, get_origin, get_type_hints

from . import __version__
from .backend import (
    NORMALIZATION_MODES,
    BackendConfig,
    CapabilityError,
    ConfigurationError,
    MockOracleParams,
    ResponseCache,
    TransportError,
    make_backend,
    map_calls,
)
from .classifier import OutputColumns, predict_batch, read_outputs, write_outputs
from .datamodel import (
    ADAPTERS,
    SPLITS,
    ContextRecord,
    DatasetError,
    Polarity,
    PredictionColumns,
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
from .evaluate import SWEEP_MODES, _first_five, compare_knowledge_types, entropy_buckets, gold_indices, label_metrics
from .evaluate import rows_to_csv, sweep_outputs
from .fusion import STRATEGIES, FusionConfig, base_set, fuse_outputs

# Bound here though unused: perfbench/tracing.py wraps these names on cli.
from .evaluate import compute_metrics, error_rate_by_entropy, sweep  # noqa: F401
from .fusion import fuse_records  # noqa: F401
from .prompts import (
    LEVELS,
    PromptTemplate,
    TemplateError,
    get_template,
    load_template_file,
    render_context_prompt,
    render_judge_prompt,
)
from .saliency import load_dump, s_scores, scores_to_csv

_EPOCH = "1970-01-01T00:00:00+00:00"

T = TypeVar("T")

# Every package error is a ValueError or one of the two runtime errors below.
_USER_ERRORS = (TransportError, CapabilityError, ValueError, OSError)


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    adapter: Literal[ADAPTERS] = "canonical-jsonl"
    column_map: Mapping[str, Any] | None = None
    split: Literal[SPLITS] = "test"


@dataclass(frozen=True)
class SweepSpec:
    alpha_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    beta_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    mode: Literal[SWEEP_MODES] = "two-phase"
    fixed_alpha: float = 0.3


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproducible run needs, loaded from a JSON file."""

    dataset: DatasetSpec
    generator_backend: BackendConfig
    classifier_backend: BackendConfig
    fusion: FusionConfig
    sweep: SweepSpec
    level: Literal[LEVELS] = "sentence"
    knowledge_types: tuple[str, ...] = ("historical",)
    out_dir: str = "out"
    run_id: str | None = None
    seed: int = 0
    image_token: str | None = "<image>"
    cache_path: str | None = None
    score_normalization: Literal[NORMALIZATION_MODES] = "total"
    template_file: str | None = None
    instruction_template_file: str | None = None
    config_hash: str = ""


def _number(value: Any) -> Any:
    """The value unless it is true or false, which Python would read as 1 or 0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def _to_float(value: Any) -> float:
    return float(_number(value))


def _to_int(value: Any) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(_number(value))


def _to_bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _to_text(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected text, got {value!r}")
    return value


def _to_floats(values: Any) -> tuple[float, ...]:
    """A list of numbers within [0, 1]: the sweep's α and β grids are a config's only float lists."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of numbers, got {values!r}")
    floats = tuple(_to_float(v) for v in values)
    for value in floats:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"expected numbers within [0, 1], got {value!r}")
    return floats


def _to_strings(values: Any) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"expected a list of strings, got {values!r}")
    return tuple(values)


def _to_mapping(value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValueError(f"must be an object, got {value!r}")
    return value


# Config values converted or checked by their field's annotation; any other field is a section its caller builds.
_COERCIONS: dict[Any, Callable[[Any], Any]] = {
    float: _to_float,
    float | None: _to_float,
    int: _to_int,
    bool: _to_bool,
    str: _to_text,
    str | None: _to_text,
    tuple[float, ...]: _to_floats,
    tuple[str, ...]: _to_strings,
    Mapping[str, Any] | None: _to_mapping,
}


def _object(value: Any, where: str) -> Mapping[str, Any]:
    """A config section as a mapping, null read as an empty one; anything else raises a ConfigurationError."""
    try:
        return {} if value is None else _to_mapping(value)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _coerce(hint: Any, value: Any) -> Any:
    if value is None:
        if type(None) not in get_args(hint):
            raise ValueError("must not be null")
        return None
    if get_origin(hint) is Literal:
        if _to_text(value) not in get_args(hint):
            raise ValueError(f"must be one of {get_args(hint)}, got {value!r}")
        return value
    convert = _COERCIONS.get(hint)
    return value if convert is None else convert(value)


def _section(cls: type[T], section: Any, where: str, **derived: Any) -> T:
    """Build the dataclass cls from one config section.

    The section's keys are cls's fields less the derived ones, which the
    caller computes, so each setting is named once, in its dataclass. An
    absent key keeps the field's default. Each value is converted to or
    checked as its field's type through _COERCIONS, a Literal field takes
    only one of its values, and a value the field cannot hold, null
    included unless the field is optional, raises a
    ConfigurationError naming where.key. A null section reads as empty; one
    that is not an object raises a ConfigurationError naming where.
    """
    section = _object(section, where)
    unknown = set(section) - {f.name for f in fields(cls) if f.name not in derived}
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for key, value in section.items():
        try:
            values[key] = _coerce(hints[key], value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}.{key}: {exc}") from None
    return cls(**values, **derived)


def _backend(value: Any, name: str, default_model: str) -> BackendConfig:
    section = {"kind": "mock", "model_id": default_model, **_object(value, name)}
    if section.get("mock") is not None:
        # Not a key: make_backend sets the mock's seed to the run seed.
        section["mock"] = _section(MockOracleParams, section["mock"], "backend.mock", seed=0)
    return _section(BackendConfig, section, "backend")


def build_config(raw: Mapping[str, Any]) -> RunConfig:
    dataset = _object(raw.get("dataset"), "dataset")
    if "path" not in dataset:
        raise ConfigurationError("config requires dataset.path")
    knowledge_types = raw.get("knowledge_types")
    if knowledge_types in (None, []):
        # Absent, null or empty runs the default type; anything else must be a list of strings.
        knowledge_types = RunConfig.knowledge_types
    # The hash identifies the computation, so placement-only keys stay out of it.
    hashed = {k: v for k, v in raw.items() if k not in ("out_dir", "run_id")}
    sections = {
        "dataset": _section(DatasetSpec, dataset, "dataset"),
        "generator_backend": _backend(raw.get("generator_backend"), "generator_backend", "mock-generator"),
        "classifier_backend": _backend(raw.get("classifier_backend"), "classifier_backend", "mock-classifier"),
        "fusion": _section(FusionConfig, raw.get("fusion"), "fusion"),
        "sweep": _section(SweepSpec, raw.get("sweep"), "sweep"),
        "knowledge_types": knowledge_types,
    }
    config_hash = stable_digest(json.dumps(hashed, sort_keys=True))
    config = _section(RunConfig, {**raw, **sections}, "config", config_hash=config_hash)
    _check_run_values(config)
    return config


def _check_run_values(config: RunConfig) -> None:
    """Reject a value no stage can run with, so the error comes before any stage writes a file."""
    for i, knowledge_type in enumerate(config.knowledge_types):
        if knowledge_type in config.knowledge_types[:i]:
            raise ConfigurationError(f"config.knowledge_types: {knowledge_type!r} is listed twice")
        try:
            _template_for(config, knowledge_type)
        except TemplateError as exc:
            raise ConfigurationError(f"config.knowledge_types: {exc}") from None
    _instruction_template(config)


def load_config(path: str | Path, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Read the config file and apply CLI overrides before hashing."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc.msg})") from None
    raw = _object(raw, "config")
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key in ("alpha", "beta", "strategy"):
                raw["fusion"] = {**_object(raw.get("fusion"), "fusion"), key: value}
            elif key == "backend":
                for section in ("generator_backend", "classifier_backend"):
                    raw[section] = {**_object(raw.get(section), section), "kind": value}
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
    _write_json(directory / f"manifest.{command}.json", manifest)


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _template_for(config: RunConfig, knowledge_type: str) -> PromptTemplate:
    if config.template_file:
        for template in load_template_file(config.template_file):
            if template.knowledge_type == knowledge_type:
                return template
    return get_template(knowledge_type)


def _instruction_template(config: RunConfig) -> str | None:
    """The instruction_template_file's text, formatted once with empty fields so a bad placeholder fails here."""
    if not config.instruction_template_file:
        return None
    where = "config.instruction_template_file"
    try:
        template = Path(config.instruction_template_file).read_text(encoding="utf-8")
        template.format(context_block="", sentence="", aspect="", options="")
    except (KeyError, IndexError) as exc:
        raise ConfigurationError(
            f"{where}: unknown placeholder ({exc}); use {{context_block}}, {{sentence}}, {{aspect}} or {{options}}"
        ) from None
    except (AttributeError, ValueError, OSError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    return template


def _golds(samples: Sequence[Sample], ids: Sequence[str]) -> dict[str, Polarity]:
    """Gold labels by sample id; raises DatasetError naming up to five of the ids to score that no sample has."""
    known = {s.id for s in samples}
    absent = [i for i in ids if i not in known]
    if absent:
        raise DatasetError(f"ids absent from samples.jsonl cannot be scored: {_first_five(absent)}")
    return {s.id: s.gold for s in samples if s.gold is not None}


def _check_contexts(
    path: Path, samples: Sequence[Sample], knowledge_type: str, contexts: Sequence[ContextRecord]
) -> None:
    """Refuse contexts that miss a sample or hold another knowledge type, naming the file."""
    have = {r.sample_id for r in contexts}
    missing = [s.id for s in samples if s.id not in have]
    other = sorted({r.knowledge_type for r in contexts} - {knowledge_type})
    if missing or other:
        problem = f"no context for samples {_first_five(missing)}" if missing else f"contexts of type {other}"
        raise DatasetError(f"{path}: {problem}; rerun `ctxsent generate-context --knowledge-type {knowledge_type}`")


# ---------------------------------------------------------------------------
# Stage commands: each takes its inputs as values and returns what it wrote
# ---------------------------------------------------------------------------

def cmd_ingest(config: RunConfig) -> list[Sample]:
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
    return samples


def cmd_generate_context(
    config: RunConfig, samples: Sequence[Sample], knowledge_type: str, cache: ResponseCache | None = None
) -> list[ContextRecord]:
    directory = run_dir(config)
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
    _write_manifest(config, f"generate-context.{knowledge_type}", [directory / "samples.jsonl"], [out])
    print(f"wrote {out} ({len(records)} contexts)")
    return records


def cmd_predict(
    config: RunConfig,
    samples: Sequence[Sample],
    knowledge_type: str | None = None,
    contexts: Sequence[ContextRecord] | None = None,
    cache: ResponseCache | None = None,
) -> OutputColumns:
    """Base predictions without a knowledge type, else predictions conditioned on its contexts."""
    directory = run_dir(config)
    inputs = [directory / "samples.jsonl"]
    if knowledge_type is not None:
        inputs.append(directory / f"contexts.{knowledge_type}.jsonl")
        _check_contexts(inputs[-1], samples, knowledge_type, contexts or ())
    backend = make_backend(config.classifier_backend, seed=config.seed, cache=cache)
    result = predict_batch(
        samples,
        config.level,
        backend,
        contexts={r.sample_id: r for r in contexts} if contexts is not None else None,
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
    return OutputColumns.from_outputs(result.outputs)


def _fused_name(config: RunConfig, knowledge_type: str) -> str:
    return f"fused.{config.fusion.strategy}.{knowledge_type}.jsonl"


def cmd_fuse(config: RunConfig, base: OutputColumns, ctx: OutputColumns, knowledge_type: str) -> PredictionColumns:
    directory = run_dir(config)
    fused = fuse_outputs(base, ctx, config.fusion, knowledge_type=knowledge_type)
    out = directory / _fused_name(config, knowledge_type)
    write_predictions(out, fused)
    inputs = [directory / "predictions.base.jsonl", directory / f"predictions.{knowledge_type}.jsonl"]
    _write_manifest(config, f"fuse.{config.fusion.strategy}.{knowledge_type}", inputs, [out])
    print(f"wrote {out} ({len(fused)} records)")
    return fused


def _prediction_set(path: Path, alpha: float) -> PredictionColumns:
    """Read fused records, or classifier outputs as the base set; the first row's keys tell which."""
    first = next(read_jsonl(path), None)
    if first is None:
        raise SchemaError(f"{path}: no records")
    _, row = first
    if "base" in row:
        return read_predictions(path)
    return base_set(read_outputs(path), alpha=alpha)


def cmd_evaluate(
    config: RunConfig, samples: Sequence[Sample], predictions: PredictionColumns, predictions_path: Path
) -> Path:
    """Score a prediction set, read from or written to predictions_path, against the samples' gold labels."""
    directory = run_dir(config)
    gold = gold_indices(predictions.ids, _golds(samples, predictions.ids))
    report = label_metrics(gold, predictions.labels)
    scored = set(predictions.ids)
    unscored = [s.id for s in samples if s.id not in scored]
    if unscored:
        print(
            f"scored {len(predictions)} of {len(samples)} samples; {len(unscored)} have no prediction "
            f"(e.g. {unscored[:5]})",
            file=sys.stderr,
        )
    wrong = predictions.labels != gold
    buckets_all = entropy_buckets(predictions.base, wrong, hard_only=False, alpha=config.fusion.alpha)
    buckets_hard = entropy_buckets(predictions.base, wrong, hard_only=True, alpha=config.fusion.alpha)
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
    inputs = [directory / "samples.jsonl", predictions_path]
    _write_manifest(config, f"evaluate.{stem}", inputs, [metrics_path, entropy_path, csv_path])
    print(f"wrote {metrics_path} (accuracy {report.accuracy:.4f}, macro-F1 {report.macro_f1:.4f})")
    return metrics_path


def cmd_sweep(
    config: RunConfig, samples: Sequence[Sample], base: OutputColumns, ctx: OutputColumns, knowledge_type: str
) -> Path:
    directory = run_dir(config)
    result = sweep_outputs(
        base,
        ctx,
        _golds(samples, base.ids),
        alpha_grid=config.sweep.alpha_grid,
        beta_grid=config.sweep.beta_grid,
        fusion=config.fusion,
        mode=config.sweep.mode,
        fixed_alpha=config.sweep.fixed_alpha,
    )
    out = directory / f"sweep.{knowledge_type}.json"
    _write_json(out, asdict(result))
    csv_path = directory / f"sweep.{knowledge_type}.csv"
    csv_path.write_text(rows_to_csv(result.grid), encoding="utf-8")
    inputs = [directory / n for n in ("samples.jsonl", "predictions.base.jsonl", f"predictions.{knowledge_type}.jsonl")]
    _write_manifest(config, f"sweep.{knowledge_type}", inputs, [out, csv_path])
    print(
        f"wrote {out} (selected alpha {result.selected_alpha}, beta {result.selected_beta}, "
        f"dev F1 {result.selected_f1:.4f})"
    )
    return out


def cmd_compare_types(
    config: RunConfig, samples: Sequence[Sample], base: OutputColumns, per_type: Mapping[str, PredictionColumns]
) -> Path:
    """One row per fused set in per_type, keyed by knowledge type, after the base row."""
    directory = run_dir(config)
    rows = compare_knowledge_types(base_set(base, alpha=config.fusion.alpha), per_type, _golds(samples, base.ids))
    out = directory / "knowledge_types.csv"
    out.write_text(rows_to_csv(rows), encoding="utf-8")
    inputs = [directory / "samples.jsonl", directory / "predictions.base.jsonl"]
    inputs.extend(directory / _fused_name(config, knowledge_type) for knowledge_type in per_type)
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
    _write_json(json_path, {"model_id": dump.model_id, "sample_id": dump.sample_id, **asdict(scores)})
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
    """Run every stage, handing each stage's values to the next; no artifact is read back."""
    directory = run_dir(config)
    samples = cmd_ingest(config)
    base = cmd_predict(config, samples, cache=cache)
    cmd_evaluate(config, samples, base_set(base, alpha=config.fusion.alpha), directory / "predictions.base.jsonl")
    per_type = {}
    for knowledge_type in config.knowledge_types:
        contexts = cmd_generate_context(config, samples, knowledge_type, cache)
        ctx = cmd_predict(config, samples, knowledge_type, contexts, cache)
        per_type[knowledge_type] = cmd_fuse(config, base, ctx, knowledge_type)
        cmd_evaluate(config, samples, per_type[knowledge_type], directory / _fused_name(config, knowledge_type))
    if len(config.knowledge_types) > 1:
        cmd_compare_types(config, samples, base, per_type)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run-config JSON file")
    common.add_argument("--seed", type=int, default=None, help="override the run seed")
    common.add_argument("--alpha", type=float, default=None, help="override fusion alpha")
    common.add_argument("--beta", type=float, default=None, help="override fusion beta")
    common.add_argument("--strategy", choices=STRATEGIES, default=None, help="override fusion strategy")
    common.add_argument("--backend", choices=("mock", "remote"), default=None, help="override backend kind")
    common.add_argument("--out", default=None, help="override the output directory")
    stages = {
        name: sub.add_parser(name, parents=[common])
        for name in (
            "ingest",
            "generate-context",
            "predict",
            "fuse",
            "evaluate",
            "sweep",
            "compare-types",
            "analyze-saliency",
            "pipeline",
        )
    }
    for name in ("generate-context", "predict", "fuse", "sweep"):
        stages[name].add_argument(
            "--knowledge-type",
            default=None,
            help="work on this knowledge type only (scope filter; does not change the run id)",
        )
    stages["predict"].add_argument("--base-only", action="store_true", help="skip context-conditioned predictions")
    stages["evaluate"].add_argument("--predictions", default=None, help="predictions or fused JSONL to score")
    stages["analyze-saliency"].add_argument("--dump", required=True, help="saliency dump JSON file")

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
        active_types = config.knowledge_types
        if getattr(args, "knowledge_type", None):
            if args.knowledge_type not in config.knowledge_types:
                raise ConfigurationError(
                    f"--knowledge-type: {args.knowledge_type!r} is not in config.knowledge_types "
                    f"{list(config.knowledge_types)}"
                )
            active_types = (args.knowledge_type,)
        directory = run_dir(config)

        def load(name: str, read: Callable[[Path], Any], producer: str) -> Any:
            return read(_require_artifact(directory / name, producer))

        # One cache per invocation, opened only by the commands that call a backend.
        opens_cache = config.cache_path and args.command in ("generate-context", "predict", "pipeline")
        with ResponseCache(config.cache_path) if opens_cache else contextlib.nullcontext() as cache:
            if args.command == "ingest":
                cmd_ingest(config)
            elif args.command == "generate-context":
                samples = load("samples.jsonl", read_samples, "ingest")
                for knowledge_type in active_types:
                    cmd_generate_context(config, samples, knowledge_type, cache)
            elif args.command == "predict":
                samples = load("samples.jsonl", read_samples, "ingest")
                cmd_predict(config, samples, cache=cache)
                if not args.base_only:
                    for knowledge_type in active_types:
                        contexts = load(f"contexts.{knowledge_type}.jsonl", read_contexts, "generate-context")
                        cmd_predict(config, samples, knowledge_type, contexts, cache)
            elif args.command == "fuse":
                base = load("predictions.base.jsonl", read_outputs, "predict")
                for knowledge_type in active_types:
                    ctx = load(f"predictions.{knowledge_type}.jsonl", read_outputs, "predict")
                    cmd_fuse(config, base, ctx, knowledge_type)
            elif args.command == "evaluate":
                samples = load("samples.jsonl", read_samples, "ingest")
                if args.predictions is not None:
                    predictions_path = Path(args.predictions)
                    if not predictions_path.exists():
                        predictions_path = directory / args.predictions
                else:
                    predictions_path = directory / "predictions.base.jsonl"
                _require_artifact(predictions_path, "predict or fuse")
                predictions = _prediction_set(predictions_path, config.fusion.alpha)
                cmd_evaluate(config, samples, predictions, predictions_path)
            elif args.command == "sweep":
                samples = load("samples.jsonl", read_samples, "ingest")
                base = load("predictions.base.jsonl", read_outputs, "predict")
                for knowledge_type in active_types:
                    ctx = load(f"predictions.{knowledge_type}.jsonl", read_outputs, "predict")
                    cmd_sweep(config, samples, base, ctx, knowledge_type)
            elif args.command == "compare-types":
                samples = load("samples.jsonl", read_samples, "ingest")
                base = load("predictions.base.jsonl", read_outputs, "predict")
                per_type = {t: load(_fused_name(config, t), read_predictions, "fuse") for t in config.knowledge_types}
                cmd_compare_types(config, samples, base, per_type)
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
