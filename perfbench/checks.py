"""Output checks: each compares a program artifact with a computation made apart from the program.

The references are NumPy re-derivations of the method: the confidence gap
2*max + min - 1 clipped to [0, 1], the hard gate gap <= alpha, the convex
fusion base + beta * (ctx - base) with exact endpoints at beta 0 and 1,
argmax with ties to the lowest index, and accuracy and macro-F1 from a
confusion matrix. They repeat the program's floating-point operations in
the same order, so values agree bit for bit in practice; the stated
tolerance is TOLERANCE, absolute.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

LABELS = ("negative", "neutral", "positive")
TOLERANCE = 1e-12
PROB_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def softmax(scores) -> np.ndarray:
    values = np.asarray(scores, dtype=float)
    exps = np.exp(values - values.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def _by_id(rows: list[dict], ids: list[str], path: Path) -> list[dict]:
    """The rows in ids order; every id exactly once and no other."""
    found = {}
    for row in rows:
        if row["sample_id"] in found:
            raise CheckFailed(f"{path.name}: sample {row['sample_id']!r} appears twice")
        found[row["sample_id"]] = row
    missing = [i for i in ids if i not in found]
    extra = set(found) - set(ids)
    if missing or extra:
        raise CheckFailed(f"{path.name}: missing {missing[:3]} extra {sorted(extra)[:3]} of {len(ids)} samples")
    return [found[i] for i in ids]


def _valid(probs: np.ndarray, what: str) -> np.ndarray:
    if probs.shape[1:] != (3,) or not np.all(np.isfinite(probs)):
        raise CheckFailed(f"{what}: not a finite (n, 3) probability array")
    if probs.min() < -PROB_TOLERANCE or probs.max() > 1.0 + PROB_TOLERANCE:
        raise CheckFailed(f"{what}: probability outside [0, 1]")
    if np.abs(probs.sum(axis=1) - 1.0).max() > PROB_TOLERANCE:
        raise CheckFailed(f"{what}: a distribution does not sum to 1")
    return probs


def load_distributions(path: Path, ids: list[str]) -> np.ndarray:
    """The (n, 3) distributions of a predictions file, in ids order, after range and sum checks."""
    rows = _by_id(read_jsonl(path), ids, path)
    return _valid(np.array([row["probs"] for row in rows], dtype=float), path.name)


def mismatches(actual: np.ndarray, expected: np.ndarray, ids: list[str], what: str, allowed=frozenset()) -> list[str]:
    """Ids whose distribution differs from the reference; any outside allowed fail the check."""
    bad = [ids[i] for i in np.flatnonzero(np.abs(actual - expected).max(axis=1) > TOLERANCE)]
    unexpected = [i for i in bad if i not in allowed]
    if unexpected:
        raise CheckFailed(f"{what}: {len(unexpected)} distributions differ from the reference, e.g. {unexpected[:3]}")
    return bad


def check_contexts(path: Path, ids: list[str], expected: list[str], knowledge_type: str) -> None:
    rows = _by_id(read_jsonl(path), ids, path)
    for row, text in zip(rows, expected):
        if row["text"] != text or row["knowledge_type"] != knowledge_type:
            raise CheckFailed(f"{path.name}: context of {row['sample_id']!r} is not the expected text")


def reference_fusion(base: np.ndarray, ctx: np.ndarray, alpha: float, beta: float) -> dict[str, np.ndarray]:
    gap = np.clip(2.0 * base.max(axis=1) + base.min(axis=1) - 1.0, 0.0, 1.0)
    hard = gap <= alpha
    if beta == 0.0:
        mixed = base
    elif beta == 1.0:
        mixed = ctx
    else:
        mixed = base + beta * (ctx - base)
    fused = np.where(hard[:, None], mixed, base)
    return {"gap": gap, "hard": hard, "fused": fused, "labels": fused.argmax(axis=1)}


def check_fused(path: Path, ids: list[str], base: np.ndarray, ctx: np.ndarray, alpha: float, beta: float,
                knowledge_type: str) -> np.ndarray:
    """Check every cf-fused record against the reference; returns the final label indices."""
    rows = _by_id(read_jsonl(path), ids, path)
    ref = reference_fusion(base, ctx, alpha, beta)
    for field, expected in (("base", base), ("with_context", ctx), ("fused", ref["fused"])):
        actual = _valid(np.array([row[field] for row in rows], dtype=float), f"{path.name} {field}")
        if np.abs(actual - expected).max() > TOLERANCE:
            raise CheckFailed(f"{path.name}: {field} distributions differ from the reference")
    if np.abs(np.array([row["delta"] for row in rows]) - ref["gap"]).max() > TOLERANCE:
        raise CheckFailed(f"{path.name}: confidence gaps differ from the reference")
    if not np.array_equal(np.array([row["is_hard"] for row in rows]), ref["hard"]):
        raise CheckFailed(f"{path.name}: hard-sample gate differs from the reference")
    labels = np.array([LABELS.index(row["final_label"]) for row in rows])
    if not np.array_equal(labels, ref["labels"]):
        raise CheckFailed(f"{path.name}: final labels differ from the argmax of the reference fusion")
    if any(row["strategy"] != "cf" or row["knowledge_type"] != knowledge_type for row in rows):
        raise CheckFailed(f"{path.name}: wrong strategy or knowledge type")
    return labels


def scores(gold: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """Accuracy and macro-F1 from the confusion matrix; empty precision or recall counts as 0."""
    matrix = np.bincount(gold * 3 + pred, minlength=9).reshape(3, 3)
    f1s = []
    for k in range(3):
        tp = int(matrix[k, k])
        predicted, actual = int(matrix[:, k].sum()), int(matrix[k, :].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return int(np.trace(matrix)) / len(gold), sum(f1s) / 3.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def check_metrics(path: Path, gold: np.ndarray, pred: np.ndarray) -> None:
    report = json.loads(path.read_text())
    accuracy, macro_f1 = scores(gold, pred)
    if report["n"] != len(gold) or not _close(report["accuracy"], accuracy) or not _close(report["macro_f1"], macro_f1):
        raise CheckFailed(
            f"{path.name}: n/accuracy/macro-F1 {report['n']}/{report['accuracy']}/{report['macro_f1']} "
            f"!= reference {len(gold)}/{accuracy}/{macro_f1}"
        )


def check_compare_types(path: Path, gold: np.ndarray, labels: dict[str, np.ndarray]) -> None:
    """labels maps "base" and each knowledge type, in config order, to final label indices."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [row["knowledge_type"] for row in rows] != list(labels):
        raise CheckFailed(f"{path.name}: rows {[row['knowledge_type'] for row in rows]} != {list(labels)}")
    for row, pred in zip(rows, labels.values()):
        accuracy, macro_f1 = scores(gold, pred)
        if int(row["n"]) != len(gold) or not _close(float(row["accuracy"]), accuracy) or not _close(
            float(row["macro_f1"]), macro_f1
        ):
            raise CheckFailed(f"{path.name}: row {row['knowledge_type']!r} differs from the reference")


def check_sweep(path: Path, gold: np.ndarray, base: np.ndarray, ctx: np.ndarray, alpha_grid, beta_grid) -> None:
    """Check a full-grid sweep point by point, and its selection.

    The selection rule is the documented one: highest macro-F1, ties to the
    smallest beta, then the smallest alpha.
    """
    result = json.loads(path.read_text())
    expected = [
        (alpha, beta, scores(gold, reference_fusion(base, ctx, alpha, beta)["labels"])[1])
        for beta in beta_grid
        for alpha in alpha_grid
    ]
    grid = result["grid"]
    if result["rule"] != "full-grid" or len(grid) != len(expected):
        raise CheckFailed(f"{path.name}: expected a full grid of {len(expected)} points, got {len(grid)}")
    for point, (alpha, beta, f1) in zip(grid, expected):
        if point["alpha"] != alpha or point["beta"] != beta or not _close(point["macro_f1"], f1):
            raise CheckFailed(f"{path.name}: grid point ({alpha}, {beta}) reads {point}, reference F1 {f1}")
    alpha, beta, f1 = min(expected, key=lambda p: (-p[2], p[1], p[0]))
    if (result["selected_alpha"], result["selected_beta"]) != (alpha, beta) or not _close(result["selected_f1"], f1):
        raise CheckFailed(
            f"{path.name}: selected ({result['selected_alpha']}, {result['selected_beta']}), "
            f"reference selects ({alpha}, {beta})"
        )


ARTIFACT_PREFIXES = ("predictions.", "contexts.", "fused.", "metrics.", "entropy.", "sweep.", "knowledge_types.")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(run_dir: Path, prefixes=ARTIFACT_PREFIXES) -> dict[str, str]:
    return {path.name: file_digest(path) for path in sorted(run_dir.iterdir()) if path.name.startswith(prefixes)}


def check_identical(reference: Path, other: Path, prefixes=ARTIFACT_PREFIXES) -> None:
    want, got = artifact_digests(reference, prefixes), artifact_digests(other, prefixes)
    if not want or want != got:
        differing = sorted(name for name in set(want) | set(got) if want.get(name) != got.get(name))
        raise CheckFailed(f"{other} differs from {reference} in {differing or 'no artifacts'}")
