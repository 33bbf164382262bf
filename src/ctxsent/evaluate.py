"""Metrics, entropy-bucketed error analysis, knowledge-type comparison, and sweeps."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .classifier import ClassifierOutput
from .datamodel import LABELS, POLARITIES, DatasetError, Polarity, PolarityDistribution, PredictionRecord
from .fusion import FusionConfig, fuse_arrays, fusion_columns, is_hard, match_context

# Bound here though unused: perfbench/tracing.py wraps evaluate.fuse_records by name.
from .fusion import fuse_records  # noqa: F401

MAX_ENTROPY_BITS = math.log2(3.0)

SWEEP_MODES = ("two-phase", "full-grid")


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy plus per-class and macro precision/recall/F1.

    Zero-denominator precision or recall is defined as 0; macro values are
    unweighted means over the three classes.
    """

    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: tuple[ClassMetrics, ClassMetrics, ClassMetrics]
    n: int

    def to_dict(self) -> dict:
        """The report's fields, with per_class keyed by polarity label."""
        report = asdict(self)
        report["per_class"] = dict(zip(LABELS, report["per_class"]))
        return report


def gold_labels(ids: Sequence[str], golds: Mapping[str, Polarity]) -> list[Polarity]:
    """Gold labels for the ids, in order; raises DatasetError naming up to five ids without one."""
    missing = [i for i in ids if i not in golds]
    if missing:
        more = "..." if len(missing) > 5 else ""
        raise DatasetError(f"samples without gold labels cannot be scored: {missing[:5]}{more}")
    return [golds[i] for i in ids]


def compute_metrics(golds: Sequence[Polarity], preds: Sequence[Polarity]) -> MetricsReport:
    if len(golds) != len(preds):
        raise ValueError(f"gold/prediction length mismatch: {len(golds)} vs {len(preds)}")
    # confusion[gold][predicted], filled in one pass over the labels.
    confusion = [[0, 0, 0] for _ in POLARITIES]
    for g, p in zip(golds, preds):
        confusion[g.index][p.index] += 1
    return metrics_from_confusion(confusion)


def metrics_from_confusion(confusion: Sequence[Sequence[int]]) -> MetricsReport:
    """The report for a 3x3 table of counts, confusion[gold][predicted]."""
    n = sum(map(sum, confusion))
    if not n:
        raise ValueError("cannot compute metrics on empty input")
    per_class = []
    for i in range(len(POLARITIES)):
        tp = confusion[i][i]
        support = sum(confusion[i])
        predicted = sum(row[i] for row in confusion)
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(ClassMetrics(precision=precision, recall=recall, f1=f1, support=support))
    return MetricsReport(
        accuracy=sum(confusion[i][i] for i in range(len(POLARITIES))) / n,
        macro_precision=sum(c.precision for c in per_class) / 3.0,
        macro_recall=sum(c.recall for c in per_class) / 3.0,
        macro_f1=sum(c.f1 for c in per_class) / 3.0,
        per_class=tuple(per_class),
        n=n,
    )


def entropy(p: PolarityDistribution) -> float:
    """Shannon entropy in bits; ranges over [0, log2(3)] for three classes."""
    total = 0.0
    for x in p.probs:
        if x > 0.0:
            total -= x * math.log2(x)
    return total


def default_entropy_edges() -> tuple[float, ...]:
    """Edges of eight equal-width bins over [0, log2(3)]."""
    return tuple(i * MAX_ENTROPY_BITS / 8 for i in range(9))


@dataclass(frozen=True)
class EntropyBucketReport:
    """Per-bucket counts and error rates over base-distribution entropy.

    Empty buckets report error_rate None rather than 0. Entropy is base 2;
    the edges used are recorded on the report.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    error_rates: tuple[float | None, ...]
    hard_only: bool
    alpha: float
    n: int

    def to_dict(self) -> dict:
        return {"entropy_base": 2, **asdict(self)}


def error_rate_by_entropy(
    records: Sequence[PredictionRecord],
    golds: Mapping[str, Polarity],
    hard_only: bool = False,
    alpha: float = 0.3,
) -> EntropyBucketReport:
    """Bucket samples by base-distribution entropy and report per-bucket error rates.

    Each record is scored by its final label over the default entropy edges.
    The hard filter recomputes the confidence gap from the base distribution
    against the alpha given here.
    """
    bin_edges = default_entropy_edges()
    buckets = len(bin_edges) - 1
    counts = [0] * buckets
    errors = [0] * buckets
    analyzed = 0
    gold_list = gold_labels([r.sample_id for r in records], golds)
    for record, gold in zip(records, gold_list):
        if hard_only and not is_hard(record.base, alpha):
            continue
        h = entropy(record.base)
        index = min(max(bisect_right(bin_edges, h) - 1, 0), buckets - 1)
        counts[index] += 1
        analyzed += 1
        if record.final_label is not gold:
            errors[index] += 1
    rates = tuple(errors[i] / counts[i] if counts[i] else None for i in range(buckets))
    return EntropyBucketReport(
        edges=bin_edges,
        counts=tuple(counts),
        error_rates=rates,
        hard_only=hard_only,
        alpha=alpha,
        n=analyzed,
    )


# ---------------------------------------------------------------------------
# Hyperparameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    alpha: float
    beta: float
    macro_f1: float


def _best(points: Sequence[GridPoint]) -> GridPoint:
    """The point with the highest macro-F1; ties go to the smallest beta, then the smallest alpha."""
    return min(points, key=lambda g: (-g.macro_f1, g.beta, g.alpha))


@dataclass(frozen=True)
class SweepResult:
    """Evaluated grid plus the point selected from it by _best; the selection is derived, never given."""

    grid: tuple[GridPoint, ...]
    rule: str
    selected_alpha: float = field(init=False)
    selected_beta: float = field(init=False)
    selected_f1: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("sweep grid is empty")
        best = _best(self.grid)
        object.__setattr__(self, "selected_alpha", best.alpha)
        object.__setattr__(self, "selected_beta", best.beta)
        object.__setattr__(self, "selected_f1", best.macro_f1)


def sweep(
    base_outputs: Sequence[ClassifierOutput],
    ctx_outputs: Sequence[ClassifierOutput],
    golds: Mapping[str, Polarity],
    alpha_grid: Sequence[float],
    beta_grid: Sequence[float],
    fusion: FusionConfig = FusionConfig(),
    mode: str = "two-phase",
    fixed_alpha: float = 0.3,
) -> SweepResult:
    """Grid-search fusion hyperparameters on a dev set.

    Each point fuses with the run's fusion config, alpha and beta replaced,
    so strategy, cxmi_threshold and gate_alternatives are the ones fuse
    applies. two-phase first sweeps beta at the fixed alpha, then sweeps
    alpha at the best beta; full-grid evaluates the product grid. Selection
    is the argmax over all evaluated points with the documented tie-breaking.
    The columns are built once; each point costs one fuse_arrays call and a
    3x3 confusion table, and builds no records.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    if not alpha_grid or not beta_grid:
        raise ValueError("alpha_grid and beta_grid must be non-empty")
    gold = np.array([g.index for g in gold_labels([o.sample_id for o in base_outputs], golds)], dtype=np.int64)
    columns = fusion_columns(base_outputs, match_context(base_outputs, ctx_outputs))

    def evaluate_point(alpha: float, beta: float) -> GridPoint:
        labels = fuse_arrays(columns, replace(fusion, alpha=alpha, beta=beta)).labels
        confusion = np.bincount(gold * 3 + labels, minlength=9).reshape(3, 3).tolist()
        return GridPoint(alpha=alpha, beta=beta, macro_f1=metrics_from_confusion(confusion).macro_f1)

    points: list[GridPoint] = []
    if mode == "full-grid":
        for beta in beta_grid:
            for alpha in alpha_grid:
                points.append(evaluate_point(alpha, beta))
    else:
        phase_one = [evaluate_point(fixed_alpha, beta) for beta in beta_grid]
        points.extend(phase_one)
        best_beta = _best(phase_one).beta
        seen = {(g.alpha, g.beta) for g in points}
        for alpha in alpha_grid:
            if (alpha, best_beta) not in seen:
                points.append(evaluate_point(alpha, best_beta))

    return SweepResult(grid=tuple(points), rule=mode)


# ---------------------------------------------------------------------------
# Knowledge-type comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnowledgeTypeRow:
    knowledge_type: str
    accuracy: float
    macro_f1: float
    n: int


def compare_knowledge_types(
    base_records: Sequence[PredictionRecord],
    per_type: Mapping[str, Sequence[PredictionRecord]],
    golds: Mapping[str, Polarity],
) -> list[KnowledgeTypeRow]:
    """One metrics row per knowledge type, plus a "base" row first.

    All prediction sets must cover exactly the same sample ids.
    """
    base_ids = {r.sample_id for r in base_records}
    for name, records in per_type.items():
        ids = {r.sample_id for r in records}
        if ids != base_ids:
            diff = sorted(ids.symmetric_difference(base_ids))
            raise ValueError(f"prediction set {name!r} covers different ids (e.g. {diff[:5]})")

    def row(name: str, records: Sequence[PredictionRecord]) -> KnowledgeTypeRow:
        gold_list = gold_labels([r.sample_id for r in records], golds)
        report = compute_metrics(gold_list, [r.final_label for r in records])
        return KnowledgeTypeRow(knowledge_type=name, accuracy=report.accuracy, macro_f1=report.macro_f1, n=report.n)

    rows = [row("base", base_records)]
    rows.extend(row(name, per_type[name]) for name in per_type)
    return rows


def rows_to_csv(rows: Sequence[Any]) -> str:
    """CSV text for non-empty rows of one dataclass: a header of its field names, then one line per row."""
    names = [f.name for f in fields(rows[0])]
    lines = [",".join(names)]
    lines.extend(",".join(str(getattr(row, name)) for name in names) for row in rows)
    return "\n".join(lines) + "\n"
