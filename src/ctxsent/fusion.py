"""Hard-sample gating and probability fusion strategies.

The default strategy interpolates the base distribution toward the
context-conditioned one, but only for hard samples, i.e. those whose top-two
probabilities are close. Alternative strategies (average, max, js, cxmi) apply
to every sample unless explicitly composed with the gate.

fuse_arrays runs the gate and every strategy over (n, 3) float64 columns;
fuse_outputs and the sweep go through it. fuse_cf is the gated default for
one sample. The per-sample reference for every strategy, which fuse_arrays
matches bit for bit, lives with the tests in tests/fusion_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .classifier import ClassifierOutput, OutputColumns
from .datamodel import (
    Polarity,
    PolarityDistribution,
    PredictionColumns,
    PredictionRecord,
    _js,
    _valid_rows,
    argmax_label,
)

STRATEGIES = ("cf", "average", "max", "js", "cxmi")

_CXMI_FLOOR = 1e-12


@dataclass(frozen=True)
class FusionConfig:
    """Fusion knobs.

    alpha gates hard samples (confidence gap <= alpha), beta controls how far
    the fused distribution moves toward the context-conditioned one. The cxmi
    strategy keeps the base prediction when its confidence ratio exceeds
    cxmi_threshold. gate_alternatives composes the hard gate with the
    non-default strategies, which otherwise apply everywhere.
    """

    alpha: float = 0.3
    beta: float = 0.45
    strategy: str = "cf"
    cxmi_threshold: float = 1.1
    gate_alternatives: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be within [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be within [0, 1], got {self.beta}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not (math.isfinite(self.cxmi_threshold) and self.cxmi_threshold > 0.0):
            raise ValueError(f"cxmi_threshold must be finite and positive, got {self.cxmi_threshold}")


def delta(p: PolarityDistribution) -> float:
    """Confidence gap 2*max(p) + min(p) - 1.

    For a unit-sum three-class distribution this equals the gap between the
    highest and second-highest probabilities. Clamped into [0, 1] against
    floating-point drift.
    """
    raw = 2.0 * max(p.probs) + min(p.probs) - 1.0
    return min(1.0, max(0.0, raw))


def is_hard(p: PolarityDistribution, alpha: float) -> bool:
    """True when the confidence gap does not exceed alpha (boundary inclusive)."""
    return delta(p) <= alpha


@dataclass(frozen=True)
class FusedResult:
    fused: PolarityDistribution
    final_label: Polarity
    is_hard: bool
    delta: float


def _interpolate(p: PolarityDistribution, p_hat: PolarityDistribution, beta: float) -> PolarityDistribution:
    # Endpoints return the inputs themselves so beta=0/1 are exact.
    if beta == 0.0:
        return p
    if beta == 1.0:
        return p_hat
    return PolarityDistribution(
        tuple(a + beta * (b - a) for a, b in zip(p.probs, p_hat.probs))
    )


def _missing_context(strategy: str) -> str:
    return f"strategy {strategy!r} needs a context-conditioned prediction but none was supplied"


def fuse_cf(p: PolarityDistribution, p_hat: PolarityDistribution | None, config: FusionConfig) -> FusedResult:
    """Gated convex fusion: hard samples move toward p_hat by beta; others pass through as p itself, without p_hat."""
    gap = delta(p)
    if gap > config.alpha:
        return FusedResult(fused=p, final_label=argmax_label(p), is_hard=False, delta=gap)
    if p_hat is None:
        raise ValueError(_missing_context("cf"))
    fused = _interpolate(p, p_hat, config.beta)
    return FusedResult(fused=fused, final_label=argmax_label(fused), is_hard=True, delta=gap)


def js_divergence(p: PolarityDistribution, q: PolarityDistribution) -> float:
    """Jensen-Shannon divergence with base-2 logarithms, so the range is [0, 1].

    Clamped against the tiny negative values cancellation can produce for
    near-identical inputs.
    """
    return _js(p.probs, q.probs)


def fuse_js(p: PolarityDistribution, p_hat: PolarityDistribution) -> PolarityDistribution:
    """Interpolate with a per-sample weight: the JS divergence of p from uniform.

    A uniform base distribution gets weight 0, so the fusion is exactly the
    identity there; sharper base distributions mix in more of p_hat.
    """
    beta = js_divergence(p, PolarityDistribution.uniform())
    return _interpolate(p, p_hat, beta)


def gaps(rows: np.ndarray) -> np.ndarray:
    """delta of each (n, 3) row, bit for bit."""
    return np.clip(2.0 * rows.max(axis=1) + rows.min(axis=1) - 1.0, 0.0, 1.0)


def base_set(
    base: OutputColumns, alpha: float = 0.3, ctx: OutputColumns | None = None, knowledge_type: str | None = None
) -> PredictionColumns:
    """The unfused prediction set (strategy "base"): base rows, with ctx's rows joined by sample id when given.

    A sample with no row in ctx has no context-conditioned prediction. A
    row's knowledge type is the one given, else its context output's
    conditioned_on.
    """
    n = len(base)
    with_context, has_context, types = base.probs, np.zeros(n, dtype=bool), (knowledge_type,) * n
    if ctx is not None:
        position = {sample_id: j for j, sample_id in enumerate(ctx.ids)}
        index = np.array([position.get(sample_id, -1) for sample_id in base.ids], dtype=np.intp)
        has_context = index >= 0
        with_context = base.probs.copy()
        with_context[has_context] = ctx.probs[index[has_context]]
        if knowledge_type is None:
            types = tuple(ctx.conditioned_on[j] if j >= 0 else None for j in index.tolist())
    gap = gaps(base.probs)
    return PredictionColumns(
        ids=base.ids,
        base=base.probs,
        with_context=with_context,
        has_context=has_context,
        fused=base.probs,
        has_fused=np.zeros(n, dtype=bool),
        delta=gap,
        is_hard=gap <= alpha,
        labels=base.probs.argmax(axis=1),
        strategy=("base",) * n,
        knowledge_type=types,
    )


def _mix(a: np.ndarray, b: np.ndarray, weight: float | np.ndarray) -> np.ndarray:
    """Rows of a + weight * (b - a); weight 0 keeps a and weight 1 takes b exactly, as _interpolate does."""
    return np.where(weight == 0.0, a, np.where(weight == 1.0, b, a + weight * (b - a)))


def _strategy_rows(columns: PredictionColumns, config: FusionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every row fused by the configured strategy, and per row whether the fused row is a distribution."""
    a, b = columns.base, columns.with_context
    if config.strategy == "cf":
        mixed = _mix(a, b, config.beta)
    elif config.strategy == "average":
        mixed = (a + b) / 2.0
    elif config.strategy == "js":
        mixed = _mix(a, b, columns.js_weight[:, None])
    elif config.strategy == "cxmi":
        j = a.argmax(axis=1)
        rows = np.arange(len(a))
        keep = a[rows, j] / np.maximum(b[rows, j], _CXMI_FLOOR) > config.cxmi_threshold
        mixed = np.where(keep[:, None], a, b)
    else:
        # Python's max(a, b) keeps a unless b is larger; np.maximum differs on signed zeros.
        m = np.where(b > a, b, a)
        total = m[:, 0] + m[:, 1] + m[:, 2]
        normalizable = (m >= 0.0).all(axis=1) & (total > 0.0)
        mixed = m / np.where(normalizable, total, 1.0)[:, None]
        return mixed, normalizable & _valid_rows(mixed)
    return mixed, _valid_rows(mixed)


def _check_row(columns: PredictionColumns, config: FusionConfig, mixed: np.ndarray, i: int) -> None:
    """Raise row i's error: no context prediction, or PolarityDistribution's own message for its fused row."""
    if not columns.has_context[i]:
        raise ValueError(_missing_context(config.strategy))
    if config.strategy == "max":
        a, b = columns.base[i], columns.with_context[i]
        PolarityDistribution.normalized(np.where(b > a, b, a).tolist())
    PolarityDistribution(tuple(mixed[i].tolist()))


def fuse_arrays(columns: PredictionColumns, config: FusionConfig) -> PredictionColumns:
    """The gate and the configured strategy over every row of a set at once.

    The result is the set with its fused rows, gate, labels and strategy
    replaced; labels are argmax indices with ties to the lowest. Rows the
    gate leaves out pass through as base rows and need no context
    prediction. The first gated-in row in input order that has no context
    prediction, or whose fused row is not a distribution, raises a
    ValueError prefixed with its sample id.
    """
    hard = columns.delta <= config.alpha
    gated_in = hard if config.strategy == "cf" or config.gate_alternatives else np.ones_like(hard)
    mixed, valid = _strategy_rows(columns, config)
    for i in np.flatnonzero(gated_in & ~(columns.has_context & valid)):
        try:
            _check_row(columns, config, mixed, i)
        except ValueError as exc:
            raise ValueError(f"sample {columns.ids[i]!r}: {exc}") from None
    fused = np.where(gated_in[:, None], mixed, columns.base)
    n = len(columns)
    return replace(
        columns,
        fused=fused,
        has_fused=np.ones(n, dtype=bool),
        is_hard=hard,
        labels=fused.argmax(axis=1),
        strategy=(config.strategy,) * n,
    )


def fuse_outputs(
    base: OutputColumns, ctx: OutputColumns, config: FusionConfig, knowledge_type: str | None = None
) -> PredictionColumns:
    """Join base and context outputs by sample id (see base_set) and fuse them in one fuse_arrays call."""
    return fuse_arrays(base_set(base, ctx=ctx, knowledge_type=knowledge_type), config)


def fuse_records(
    base_outputs: Sequence[ClassifierOutput],
    ctx_outputs: Sequence[ClassifierOutput],
    config: FusionConfig,
    knowledge_type: str | None = None,
) -> list[PredictionRecord]:
    """fuse_outputs over sequences of outputs, as records."""
    base, ctx = OutputColumns.from_outputs(base_outputs), OutputColumns.from_outputs(ctx_outputs)
    return fuse_outputs(base, ctx, config, knowledge_type).to_records()


def base_records(base_outputs: Sequence[ClassifierOutput], alpha: float = 0.3) -> list[PredictionRecord]:
    """base_set over a sequence of outputs, as records."""
    return base_set(OutputColumns.from_outputs(base_outputs), alpha).to_records()
