"""Per-sample fusion strategies: the independent reference that the columnar fusion is tested against.

ctxsent.fusion runs every strategy over (n, 3) columns in fuse_arrays. The
functions here fuse one sample at a time with Python floats, in the same
floating-point operations, so the tests can require the two to agree bit
for bit and to raise the same errors.
"""

from __future__ import annotations

from ctxsent.datamodel import Polarity, PolarityDistribution, argmax_label
from ctxsent.fusion import _CXMI_FLOOR, FusedResult, FusionConfig, _interpolate, delta, fuse_js, is_hard


def fuse_average(p: PolarityDistribution, p_hat: PolarityDistribution) -> PolarityDistribution:
    """Elementwise mean of the two distributions."""
    return PolarityDistribution(tuple((a + b) / 2.0 for a, b in zip(p.probs, p_hat.probs)))


def fuse_max(p: PolarityDistribution, p_hat: PolarityDistribution) -> PolarityDistribution:
    """Elementwise max, renormalized to unit sum."""
    return PolarityDistribution.normalized([max(a, b) for a, b in zip(p.probs, p_hat.probs)])


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
