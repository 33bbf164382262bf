"""Turn per-choice likelihoods into polarity distributions.

Base predictions see only the sample; context-conditioned predictions embed
the generated context into the task instruction. Scores are softmaxed at
temperature 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .backend import NORMALIZATION_MODES, Backend, ChoiceScores, ScoreHint, map_calls
from .datamodel import (
    ContextRecord,
    PolarityDistribution,
    Sample,
    _dist_from_list,
    _float,
    _number_rows,
    _of_types,
    _read_columns,
    _require,
    _text,
    _valid_rows,
    read_jsonl,  # unused here; perfbench/tracing.py counts rows by rebinding it by name
    write_jsonl,
)
from .prompts import render_task_instruction


def softmax(scores: Sequence[float]) -> PolarityDistribution:
    """Exp-normalize three scores, stabilized by max subtraction."""
    values = [float(s) for s in scores]
    if len(values) != 3:
        raise ValueError(f"softmax expects 3 scores, got {len(values)}")
    if any(not math.isfinite(v) for v in values):
        raise ValueError(f"softmax requires finite scores: {values!r}")
    return PolarityDistribution(_softmax_probs(values))


def _softmax_probs(values: Sequence[float]) -> tuple[float, float, float]:
    top = max(values)
    exps = [math.exp(v - top) for v in values]
    total = sum(exps)
    return (exps[0] / total, exps[1] / total, exps[2] / total)


@dataclass(frozen=True)
class ClassifierOutput:
    """One classification result: distribution plus the raw scores it is the softmax of.

    raw is None for outputs of external models that give probabilities only.
    """

    sample_id: str
    dist: PolarityDistribution
    raw: ChoiceScores | None
    conditioned_on: str | None = None


@dataclass(frozen=True, eq=False)
class OutputColumns:
    """Classifier outputs as columns, one row per sample: the column form of a list of ClassifierOutput.

    probs are (n, 3) float64 rows. Raw scores are checked where rows are
    read and not kept.
    """

    ids: tuple[str, ...]
    probs: np.ndarray
    conditioned_on: tuple[str | None, ...]

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_outputs(cls, outputs: Sequence[ClassifierOutput]) -> "OutputColumns":
        return cls(
            ids=tuple(o.sample_id for o in outputs),
            probs=np.array([o.dist.probs for o in outputs], dtype=np.float64).reshape(-1, 3),
            conditioned_on=tuple(o.conditioned_on for o in outputs),
        )


@dataclass(frozen=True)
class BatchFailure:
    sample_id: str
    error: str


@dataclass(frozen=True)
class BatchResult:
    """Successful outputs in input order plus an error manifest."""

    outputs: tuple[ClassifierOutput, ...]
    failures: tuple[BatchFailure, ...]


def predict(
    sample: Sample,
    level: str,
    backend: Backend,
    context: ContextRecord | None = None,
    image_token: str | None = None,
    normalization: str = "total",
    instruction_template: str | None = None,
) -> ClassifierOutput:
    """Classify one sample, optionally conditioned on a generated context."""
    prompt, choices = render_task_instruction(
        sample,
        level,
        context=context.text if context else None,
        image_token=image_token,
        template=instruction_template,
    )
    hint = ScoreHint(sample_id=sample.id, gold=sample.gold, conditioned=context is not None)
    try:
        scores = backend.score_choices(
            prompt, choices, image=sample.image, hint=hint, normalization=normalization
        )
    except Exception as exc:
        # Name the sample on the exception itself so its type and attributes
        # (e.g. TransportError.last_status) reach the caller intact.
        exc.args = (f"sample {sample.id!r}: {exc}",)
        raise
    return ClassifierOutput(
        sample_id=sample.id,
        dist=softmax(scores.scores),
        raw=scores,
        conditioned_on=context.knowledge_type if context else None,
    )


def predict_batch(
    samples: Sequence[Sample],
    level: str,
    backend: Backend,
    contexts: Mapping[str, ContextRecord] | None = None,
    image_token: str | None = None,
    normalization: str = "total",
    instruction_template: str | None = None,
) -> BatchResult:
    """Element-wise predict, dispatched by backend.map_calls.

    A mock runs sequentially on the caller's thread; a remote backend scores
    up to concurrency_limit samples at once. Outputs keep input order;
    per-sample failures land in the manifest instead of aborting the batch.
    """

    def run(sample: Sample) -> ClassifierOutput | BatchFailure:
        context = contexts.get(sample.id) if contexts else None
        try:
            return predict(
                sample,
                level,
                backend,
                context=context,
                image_token=image_token,
                normalization=normalization,
                instruction_template=instruction_template,
            )
        except Exception as exc:
            return BatchFailure(sample_id=sample.id, error=f"{type(exc).__name__}: {exc}")

    results = map_calls(backend, run, samples)
    return BatchResult(
        outputs=tuple(r for r in results if isinstance(r, ClassifierOutput)),
        failures=tuple(r for r in results if isinstance(r, BatchFailure)),
    )


# ---------------------------------------------------------------------------
# Predictions JSONL import/export
# ---------------------------------------------------------------------------

def output_to_dict(output: ClassifierOutput) -> dict:
    row: dict = {
        "sample_id": output.sample_id,
        "probs": list(output.dist.probs),
        "conditioned_on": output.conditioned_on,
    }
    if output.raw is not None:
        row["raw_scores"] = list(output.raw.scores)
        row["normalization_mode"] = output.raw.normalization_mode
    return row


def output_from_dict(row: Mapping) -> ClassifierOutput:
    """Parse one prediction row; a bad row raises KeyError, TypeError or ValueError.

    External task-specific models plug in here: the minimal schema is
    {sample_id, probs: [3], conditioned_on}. Optional raw_scores (with
    normalization_mode) must softmax to probs within 1e-9.
    """
    dist = _dist_from_list(row["probs"], "probs")
    raw = None
    if row.get("raw_scores") is not None:
        raw = ChoiceScores(
            scores=tuple(map(_float, row["raw_scores"])),
            normalization_mode=row.get("normalization_mode", "total"),
        )
        drift = max(abs(a - b) for a, b in zip(softmax(raw.scores).probs, dist.probs))
        if drift > 1e-9:
            raise ValueError(f"probs are not the softmax of raw_scores (max drift {drift:.2e})")
    return ClassifierOutput(
        sample_id=_text(row, "sample_id"), dist=dist, raw=raw, conditioned_on=row.get("conditioned_on")
    )


def write_outputs(path: str | Path, outputs: Iterable[ClassifierOutput]) -> None:
    write_jsonl(path, (output_to_dict(o) for o in outputs))


def _output_columns(rows: list[dict[str, Any]]) -> OutputColumns:
    """Columns of classifier-output rows in the plain form, every array built once and checked as a whole.

    Rows with raw scores take output_from_dict's softmax check, per row in
    the same float arithmetic.
    """
    ids = [row["sample_id"] for row in rows]
    probs = _number_rows([row["probs"] for row in rows])
    _require(_of_types(ids, {str}) and bool(_valid_rows(probs).all()))
    with_raw = [i for i, row in enumerate(rows) if row.get("raw_scores") is not None]
    if with_raw:
        scores = _number_rows([rows[i]["raw_scores"] for i in with_raw])
        modes = {rows[i].get("normalization_mode", "total") for i in with_raw}
        _require(bool(np.isfinite(scores).all()) and modes <= set(NORMALIZATION_MODES))
        for soft, dist in zip(map(_softmax_probs, scores.tolist()), probs[with_raw].tolist()):
            _require(max(abs(a - b) for a, b in zip(soft, dist)) <= 1e-9)
    return OutputColumns(ids=tuple(ids), probs=probs, conditioned_on=tuple(row.get("conditioned_on") for row in rows))


def read_outputs(path: str | Path) -> OutputColumns:
    return _read_columns(path, _output_columns, output_from_dict, OutputColumns.from_outputs, "classifier output")
