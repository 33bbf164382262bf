"""Hard-sample gating and probability fusion strategies.

The default strategy interpolates the base distribution toward the
context-conditioned one, but only for hard samples, i.e. those whose top-two
probabilities are close. Alternative strategies (average, max, js, cxmi) apply
to every sample unless explicitly composed with the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .classifier import ClassifierOutput
from .datamodel import (
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

    def kl(a: Sequence[float], m: Sequence[float]) -> float:
        total = 0.0
        for ai, mi in zip(a, m):
            if ai > 0.0:
                total += ai * math.log2(ai / mi)
        return total

    mid = [(a + b) / 2.0 for a, b in zip(p.probs, q.probs)]
    return min(1.0, max(0.0, 0.5 * kl(p.probs, mid) + 0.5 * kl(q.probs, mid)))


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


def fuse_pair(
    base: ClassifierOutput,
    ctx: ClassifierOutput | None,
    config: FusionConfig,
    knowledge_type: str | None = None,
) -> PredictionRecord:
    """Fuse one sample's base and context-conditioned outputs into a record."""
    with_context = ctx.dist if ctx is not None else None
    try:
        result = apply_strategy(base.dist, with_context, config)
    except ValueError as exc:
        raise ValueError(f"sample {base.sample_id!r}: {exc}") from None
    if knowledge_type is None and ctx is not None:
        knowledge_type = ctx.conditioned_on
    return PredictionRecord(
        sample_id=base.sample_id,
        base=base.dist,
        with_context=with_context,
        fused=result.fused,
        delta=result.delta,
        is_hard=result.is_hard,
        final_label=result.final_label,
        strategy=config.strategy,
        knowledge_type=knowledge_type,
    )


def fuse_records(
    base_outputs: Sequence[ClassifierOutput],
    ctx_outputs: Sequence[ClassifierOutput],
    config: FusionConfig,
    knowledge_type: str | None = None,
) -> list[PredictionRecord]:
    """Join base and context outputs by sample id and fuse each pair."""
    by_id = {o.sample_id: o for o in ctx_outputs}
    return [fuse_pair(base, by_id.get(base.sample_id), config, knowledge_type) for base in base_outputs]


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
