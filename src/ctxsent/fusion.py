"""Hard-sample gating and probability fusion strategies.

The default strategy interpolates the base distribution toward the
context-conditioned one, but only for hard samples, i.e. those whose top-two
probabilities are close. Alternative strategies (average, max, js, cxmi) apply
to every sample unless explicitly composed with the gate.

fuse_arrays runs the gate and every strategy over (n, 3) float64 columns;
fuse_records and the sweep go through it. The per-distribution functions
(delta, is_hard, apply_strategy and the fuse_* strategies) are the scalar
reference it matches bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .classifier import ClassifierOutput
from .datamodel import (
    POLARITIES,
    PROB_TOLERANCE,
    Polarity,
    PolarityDistribution,
    PredictionRecord,
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
        if self.cxmi_threshold <= 0.0:
            raise ValueError(f"cxmi_threshold must be positive, got {self.cxmi_threshold}")


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


def fuse_cf(
    p: PolarityDistribution, p_hat: PolarityDistribution, config: FusionConfig
) -> FusedResult:
    """Gated convex fusion: hard samples move toward p_hat by beta, others pass through."""
    return apply_strategy(p, p_hat, replace(config, strategy="cf"))


def fuse_average(p: PolarityDistribution, p_hat: PolarityDistribution) -> PolarityDistribution:
    """Elementwise mean of the two distributions."""
    return PolarityDistribution(tuple((a + b) / 2.0 for a, b in zip(p.probs, p_hat.probs)))


def fuse_max(p: PolarityDistribution, p_hat: PolarityDistribution) -> PolarityDistribution:
    """Elementwise max, renormalized to unit sum."""
    return PolarityDistribution.normalized([max(a, b) for a, b in zip(p.probs, p_hat.probs)])


def js_divergence(p: PolarityDistribution, q: PolarityDistribution) -> float:
    """Jensen-Shannon divergence with base-2 logarithms, so the range is [0, 1].

    Clamped against the tiny negative values cancellation can produce for
    near-identical inputs.
    """
    return _js(p.probs, q.probs)


def _js(p: Sequence[float], q: Sequence[float]) -> float:
    def kl(a: Sequence[float], m: Sequence[float]) -> float:
        total = 0.0
        for ai, mi in zip(a, m):
            if ai > 0.0:
                total += ai * math.log2(ai / mi)
        return total

    mid = [(a + b) / 2.0 for a, b in zip(p, q)]
    return min(1.0, max(0.0, 0.5 * kl(p, mid) + 0.5 * kl(q, mid)))


def fuse_js(p: PolarityDistribution, p_hat: PolarityDistribution) -> PolarityDistribution:
    """Interpolate with a per-sample weight: the JS divergence of p from uniform.

    A uniform base distribution gets weight 0, so the fusion is exactly the
    identity there; sharper base distributions mix in more of p_hat.
    """
    beta = js_divergence(p, PolarityDistribution.uniform())
    return _interpolate(p, p_hat, beta)


def fuse_cxmi(
    p: PolarityDistribution, p_hat: PolarityDistribution, threshold: float = 1.1
) -> tuple[PolarityDistribution, Polarity]:
    """Keep the base prediction when its top class keeps most of its mass under context.

    The implemented score is the ratio p(j)/p_hat(j) at j = argmax(p), a proxy
    for the conditional cross-mutual-information gate; the full score lives in
    external work and is not reproduced here. Ratios above the threshold keep
    (p, argmax p); otherwise the context-conditioned prediction wins.
    """
    j = argmax_label(p)
    ratio = p[j] / max(p_hat[j], _CXMI_FLOOR)
    if ratio > threshold:
        return p, j
    return p_hat, argmax_label(p_hat)


def apply_strategy(
    p: PolarityDistribution, p_hat: PolarityDistribution | None, config: FusionConfig
) -> FusedResult:
    """Dispatch one sample through the hard gate and the configured strategy.

    The gate always applies to cf and applies to the alternatives only with
    gate_alternatives. A sample the gate leaves out passes through as
    (p, argmax p) and needs no p_hat; a sample it lets in needs p_hat.
    """
    gap = delta(p)
    hard = is_hard(p, config.alpha)
    if not hard and (config.strategy == "cf" or config.gate_alternatives):
        return FusedResult(fused=p, final_label=argmax_label(p), is_hard=False, delta=gap)
    if p_hat is None:
        raise ValueError(
            f"strategy {config.strategy!r} needs a context-conditioned prediction but none was supplied"
        )
    if config.strategy == "cf":
        fused = _interpolate(p, p_hat, config.beta)
    elif config.strategy == "average":
        fused = fuse_average(p, p_hat)
    elif config.strategy == "max":
        fused = fuse_max(p, p_hat)
    elif config.strategy == "js":
        fused = fuse_js(p, p_hat)
    else:
        fused, label = fuse_cxmi(p, p_hat, config.cxmi_threshold)
        return FusedResult(fused=fused, final_label=label, is_hard=hard, delta=gap)
    return FusedResult(fused=fused, final_label=argmax_label(fused), is_hard=hard, delta=gap)


@dataclass(frozen=True, eq=False)
class FusionColumns:
    """One prediction set as columns, in base order, for fuse_arrays.

    base and ctx are (n, 3) float64 rows; where has_ctx is False the sample
    has no context-conditioned prediction and its ctx row repeats its base
    row. gap is delta of each base row. ids name the rows in error messages.
    """

    ids: tuple[str, ...]
    base: np.ndarray
    ctx: np.ndarray
    has_ctx: np.ndarray
    gap: np.ndarray

    @cached_property
    def js_weight(self) -> np.ndarray:
        """js_divergence of each base row from uniform, through math.log2.

        np.log2 differs from math.log2 in the last bit on some inputs, which
        would change fused js rows, so the weight stays a per-row scalar
        computation, made once per set of columns.
        """
        uniform = PolarityDistribution.uniform().probs
        return np.array([_js(row, uniform) for row in self.base.tolist()], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class FusedColumns:
    """fuse_arrays' result: per row the gap, the gate, the fused row and its argmax label index."""

    gap: np.ndarray
    hard: np.ndarray
    fused: np.ndarray
    labels: np.ndarray


def fusion_columns(
    base_outputs: Sequence[ClassifierOutput], ctx_outputs: Sequence[ClassifierOutput | None]
) -> FusionColumns:
    """Columns for base outputs and their context outputs, aligned row for row (None where there is none)."""
    base = np.array([o.dist.probs for o in base_outputs], dtype=np.float64).reshape(-1, 3)
    ctx = np.array(
        [c.dist.probs if c is not None else o.dist.probs for o, c in zip(base_outputs, ctx_outputs)],
        dtype=np.float64,
    ).reshape(-1, 3)
    return FusionColumns(
        ids=tuple(o.sample_id for o in base_outputs),
        base=base,
        ctx=ctx,
        has_ctx=np.array([c is not None for c in ctx_outputs], dtype=bool),
        gap=np.clip(2.0 * base.max(axis=1) + base.min(axis=1) - 1.0, 0.0, 1.0),
    )


def match_context(
    base_outputs: Sequence[ClassifierOutput], ctx_outputs: Sequence[ClassifierOutput]
) -> list[ClassifierOutput | None]:
    """Each base output's context-conditioned output, joined by sample id; None where there is none."""
    by_id = {o.sample_id: o for o in ctx_outputs}
    return [by_id.get(o.sample_id) for o in base_outputs]


def _mix(a: np.ndarray, b: np.ndarray, weight: float | np.ndarray) -> np.ndarray:
    """Rows of a + weight * (b - a); weight 0 keeps a and weight 1 takes b exactly, as _interpolate does."""
    return np.where(weight == 0.0, a, np.where(weight == 1.0, b, a + weight * (b - a)))


def _valid_rows(rows: np.ndarray) -> np.ndarray:
    """Per row, whether PolarityDistribution accepts it: the same tests in the same arithmetic."""
    total = rows[:, 0] + rows[:, 1] + rows[:, 2]
    return (
        np.isfinite(rows).all(axis=1)
        & ((rows >= -PROB_TOLERANCE) & (rows <= 1.0 + PROB_TOLERANCE)).all(axis=1)
        & (np.abs(total - 1.0) <= PROB_TOLERANCE)
    )


def _strategy_rows(columns: FusionColumns, config: FusionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every row fused by the configured strategy, and per row whether the scalar path would accept it."""
    a, b = columns.base, columns.ctx
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


def fuse_arrays(columns: FusionColumns, config: FusionConfig) -> FusedColumns:
    """apply_strategy over every row at once, with the same floating-point operations in the same order.

    The results equal apply_strategy's bit for bit, and labels are argmax
    indices with ties to the lowest. Rows the gate leaves out pass through
    as base rows and need no context prediction. The first row in input
    order that apply_strategy would reject (a gated-in sample without a
    context prediction, or a fused row that is not a distribution) raises
    apply_strategy's own ValueError for it, prefixed with the sample id.
    """
    hard = columns.gap <= config.alpha
    gated_in = hard if config.strategy == "cf" or config.gate_alternatives else np.ones_like(hard)
    mixed, valid = _strategy_rows(columns, config)
    for i in np.flatnonzero(gated_in & ~(columns.has_ctx & valid)):
        p = PolarityDistribution(tuple(columns.base[i].tolist()))
        p_hat = PolarityDistribution(tuple(columns.ctx[i].tolist())) if columns.has_ctx[i] else None
        try:
            apply_strategy(p, p_hat, config)
        except ValueError as exc:
            raise ValueError(f"sample {columns.ids[i]!r}: {exc}") from None
    fused = np.where(gated_in[:, None], mixed, columns.base)
    return FusedColumns(gap=columns.gap, hard=hard, fused=fused, labels=fused.argmax(axis=1))


def fuse_records(
    base_outputs: Sequence[ClassifierOutput],
    ctx_outputs: Sequence[ClassifierOutput],
    config: FusionConfig,
    knowledge_type: str | None = None,
) -> list[PredictionRecord]:
    """Join base and context outputs by sample id, fuse them in one fuse_arrays call, and build the records.

    A record's knowledge type is the one given, else its context output's
    conditioned_on. A fused row bit-equal to its base or context row keeps
    that input's distribution object, as apply_strategy returns it.
    """
    ctx = match_context(base_outputs, ctx_outputs)
    columns = fusion_columns(base_outputs, ctx)
    result = fuse_arrays(columns, config)
    bits = result.fused.view(np.int64)
    is_base = (bits == columns.base.view(np.int64)).all(axis=1).tolist()
    is_ctx = (columns.has_ctx & (bits == columns.ctx.view(np.int64)).all(axis=1)).tolist()
    rows = zip(result.fused.tolist(), result.gap.tolist(), result.hard.tolist(), result.labels.tolist(), is_base, is_ctx)
    records = []
    for base, ctx_out, (row, gap, hard, label, from_base, from_ctx) in zip(base_outputs, ctx, rows):
        if from_base:
            fused = base.dist
        elif from_ctx:
            fused = ctx_out.dist
        else:
            fused = PolarityDistribution(tuple(row))
        record_type = knowledge_type
        if record_type is None and ctx_out is not None:
            record_type = ctx_out.conditioned_on
        records.append(
            PredictionRecord(
                sample_id=base.sample_id,
                base=base.dist,
                with_context=ctx_out.dist if ctx_out is not None else None,
                fused=fused,
                delta=gap,
                is_hard=hard,
                final_label=POLARITIES[label],
                strategy=config.strategy,
                knowledge_type=record_type,
            )
        )
    return records


def base_records(base_outputs: Sequence[ClassifierOutput], alpha: float = 0.3) -> list[PredictionRecord]:
    """Wrap base-only outputs as records (strategy "base", no fusion)."""
    records = []
    for output in base_outputs:
        records.append(
            PredictionRecord(
                sample_id=output.sample_id,
                base=output.dist,
                with_context=None,
                fused=None,
                delta=delta(output.dist),
                is_hard=is_hard(output.dist, alpha),
                final_label=argmax_label(output.dist),
                strategy="base",
                knowledge_type=None,
            )
        )
    return records
