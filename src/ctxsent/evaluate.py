"""Metrics, entropy-bucketed error analysis, knowledge-type comparison, and sweeps."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .classifier import ClassifierOutput, OutputColumns
from .datamodel import (
    LABELS,
    POLARITIES,
    DatasetError,
    Polarity,
    PolarityDistribution,
    PredictionColumns,
    PredictionRecord,
)
from .fusion import FusionConfig, base_set, fuse_arrays, gaps

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


def _first_five(ids: list[str]) -> str:
    return f"{ids[:5]}{'...' if len(ids) > 5 else ''}"


def gold_indices(ids: Sequence[str], golds: Mapping[str, Polarity]) -> np.ndarray:
    """Gold label indices for the ids, in order; raises DatasetError naming up to five ids without one."""
    missing = [i for i in ids if i not in golds]
    if missing:
        raise DatasetError(f"samples without gold labels cannot be scored: {_first_five(missing)}")
    return np.array([golds[i].index for i in ids], dtype=np.int64)


def label_metrics(gold: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """The report for gold and predicted label indices, through one 3x3 confusion table."""
    return metrics_from_confusion(np.bincount(gold * 3 + labels, minlength=9).reshape(3, 3).tolist())


def compute_metrics(golds: Sequence[Polarity], preds: Sequence[Polarity]) -> MetricsReport:
    if len(golds) != len(preds):
        raise ValueError(f"gold/prediction length mismatch: {len(golds)} vs {len(preds)}")
    return label_metrics(
        np.array([g.index for g in golds], dtype=np.int64), np.array([p.index for p in preds], dtype=np.int64)
    )


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
    return _entropy(p.probs)


def _entropy(probs: Sequence[float]) -> float:
    total = 0.0
    for x in probs:
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


def entropy_buckets(
    base: np.ndarray, wrong: np.ndarray, hard_only: bool = False, alpha: float = 0.3
) -> EntropyBucketReport:
    """Bucket (n, 3) base rows by entropy over the default edges and report per-bucket error rates.

    wrong marks the rows whose final label is not gold. The hard filter
    recomputes each base row's confidence gap against the alpha given here.
    Entropy stays a per-row math.log2 computation, since np.log2 can differ
    in the last bit and move a row across a bucket edge.
    """
    if hard_only:
        keep = gaps(base) <= alpha
        base, wrong = base[keep], wrong[keep]
    edges = default_entropy_edges()
    buckets = len(edges) - 1
    h = [_entropy(row) for row in base.tolist()]
    index = np.clip(np.searchsorted(edges, h, side="right") - 1, 0, buckets - 1)
    counts = np.bincount(index, minlength=buckets).tolist()
    errors = np.bincount(index[wrong], minlength=buckets).tolist()
    return EntropyBucketReport(
        edges=edges,
        counts=tuple(counts),
        error_rates=tuple(e / c if c else None for e, c in zip(errors, counts)),
        hard_only=hard_only,
        alpha=alpha,
        n=len(h),
    )


def error_rate_by_entropy(
    records: Sequence[PredictionRecord],
    golds: Mapping[str, Polarity],
    hard_only: bool = False,
    alpha: float = 0.3,
) -> EntropyBucketReport:
    """entropy_buckets for records, each scored by its final label."""
    columns = PredictionColumns.from_records(records)
    wrong = columns.labels != gold_indices(columns.ids, golds)
    return entropy_buckets(columns.base, wrong, hard_only, alpha)


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


def sweep_outputs(
    base: OutputColumns,
    ctx: OutputColumns,
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
    The columns are joined once; each point costs one fuse_arrays call and a
    3x3 confusion table.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    if not alpha_grid or not beta_grid:
        raise ValueError("alpha_grid and beta_grid must be non-empty")
    gold = gold_indices(base.ids, golds)
    columns = base_set(base, ctx=ctx)

    def evaluate_point(alpha: float, beta: float) -> GridPoint:
        labels = fuse_arrays(columns, replace(fusion, alpha=alpha, beta=beta)).labels
        return GridPoint(alpha=alpha, beta=beta, macro_f1=label_metrics(gold, labels).macro_f1)

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
    """sweep_outputs over sequences of outputs."""
    base, ctx = OutputColumns.from_outputs(base_outputs), OutputColumns.from_outputs(ctx_outputs)
    return sweep_outputs(base, ctx, golds, alpha_grid, beta_grid, fusion, mode, fixed_alpha)


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
    base: PredictionColumns,
    per_type: Mapping[str, PredictionColumns],
    golds: Mapping[str, Polarity],
) -> list[KnowledgeTypeRow]:
    """One metrics row per knowledge type, plus a "base" row first.

    All prediction sets must cover exactly the same sample ids.
    """
    base_ids = set(base.ids)
    for name, columns in per_type.items():
        ids = set(columns.ids)
        if ids != base_ids:
            diff = sorted(ids.symmetric_difference(base_ids))
            raise ValueError(f"prediction set {name!r} covers different ids (e.g. {diff[:5]})")

    def row(name: str, columns: PredictionColumns) -> KnowledgeTypeRow:
        report = label_metrics(gold_indices(columns.ids, golds), columns.labels)
        return KnowledgeTypeRow(knowledge_type=name, accuracy=report.accuracy, macro_f1=report.macro_f1, n=report.n)

    rows = [row("base", base)]
    rows.extend(row(name, per_type[name]) for name in per_type)
    return rows


def rows_to_csv(rows: Sequence[Any]) -> str:
    """CSV text for non-empty rows of one dataclass: a header of its field names, then one line per row."""
    names = [f.name for f in fields(rows[0])]
    lines = [",".join(names)]
    lines.extend(",".join(str(getattr(row, name)) for name in names) for row in rows)
    return "\n".join(lines) + "\n"
