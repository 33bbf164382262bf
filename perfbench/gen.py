"""Seeded input generator for the benchmark workloads.

Everything the program sees is written here as plain files: a canonical-jsonl
dataset with gold labels, and for the plug-in workload, external base and
context-conditioned prediction files. The generator does not import ctxsent,
so the gold labels and the external probabilities it returns are an
independent record the output checks compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABELS = ("negative", "neutral", "positive")

_SUBJECTS = (
    "The old harbour", "Our coach", "This museum", "The new bridge", "My neighbour", "The city council",
    "That band", "The morning market", "Our village choir", "The festival crowd", "The lighthouse",
    "A street painter", "The night train", "The football club", "The mountain hut", "The family bakery",
)
_VERBS = (
    "reopened", "celebrated", "lost", "welcomed", "cancelled", "rebuilt", "remembered", "displayed",
    "announced", "criticised", "restored", "postponed", "honoured", "closed", "painted", "praised",
)
_OBJECTS = (
    "its century-old doors", "the winter parade", "a forgotten mural", "the harvest fair",
    "the memorial garden", "a rainy final", "the founders' statue", "the flooded square",
    "an open-air concert", "the wartime archive", "the last ferry", "a charity auction",
)
_TAILS = (
    "after years of debate", "despite the storm", "to a packed hall", "without any notice",
    "with tears and applause", "in front of the town hall", "under grey skies", "for the first time",
)


@dataclass(frozen=True)
class Dataset:
    """A generated dataset: its rows plus the generator's own record of them."""

    rows: list[dict]
    gold: np.ndarray  # (n,) label indices
    repeats: dict[str, str]  # repeated sample id -> id of the earlier sample whose sentence it repeats

    @property
    def ids(self) -> list[str]:
        return [row["id"] for row in self.rows]


def make_dataset(seed: int, n: int, repeat_share: float = 0.0) -> Dataset:
    """n samples with unique sentences and images, except for the repeats.

    round(n * repeat_share) samples in the second half repeat the sentence of
    a distinct sample in the first quarter, with a different image. The two
    sit at least n/4 positions apart, so the original is scored and cached
    before its repeat even with concurrent workers.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    gold = rng.integers(0, 3, size=n)
    parts = [rng.integers(0, len(words), size=n) for words in (_SUBJECTS, _VERBS, _OBJECTS, _TAILS)]
    sentences = [
        f"{_SUBJECTS[a]} {_VERBS[b]} {_OBJECTS[c]} {_TAILS[d]} (post {seed}-{i})."
        for i, (a, b, c, d) in enumerate(zip(*parts))
    ]
    n_repeats = round(n * repeat_share)
    repeats: dict[str, str] = {}
    if n_repeats:
        if n_repeats > n // 4:
            raise ValueError(f"repeat share too large for {n} samples")
        originals = rng.choice(n // 4, size=n_repeats, replace=False)
        positions = rng.choice(np.arange(n // 2, n), size=n_repeats, replace=False)
        for original, position in zip(originals.tolist(), positions.tolist()):
            sentences[position] = sentences[original]
            repeats[f"s{position:06d}"] = f"s{original:06d}"
    rows = [
        {
            "id": f"s{i:06d}",
            "split": "test",
            "sentence": sentences[i],
            "image": f"images/{seed}/{i:06d}.jpg",
            "label": LABELS[int(gold[i])],
        }
        for i in range(n)
    ]
    return Dataset(rows=rows, gold=gold, repeats=repeats)


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")


def _distributions(rng: np.random.Generator, gold: np.ndarray, hard: np.ndarray, accuracy: np.ndarray,
                   gaps: tuple[tuple[float, float], tuple[float, float]]) -> np.ndarray:
    """(n, 3) distributions whose top class is gold with the given per-sample accuracy.

    Hard samples draw their top-two gap from gaps[0], easy ones from gaps[1].
    """
    n = gold.shape[0]
    correct = rng.random(n) < accuracy
    offset = rng.integers(1, 3, size=n)
    other = (gold + offset) % 3
    winner = np.where(correct, gold, other)
    runner = np.where(correct, other, gold)
    third = 3 - winner - runner
    lo = np.where(hard, gaps[0][0], gaps[1][0])
    hi = np.where(hard, gaps[0][1], gaps[1][1])
    gap = rng.uniform(lo, hi)
    p3_hi = (1.0 - gap) / 3.0
    p3 = rng.uniform(np.minimum(0.02, p3_hi / 2.0), p3_hi)
    probs = np.empty((n, 3))
    rows = np.arange(n)
    probs[rows, winner] = (1.0 - p3 + gap) / 2.0
    probs[rows, runner] = (1.0 - p3 - gap) / 2.0
    probs[rows, third] = p3
    return probs


# Context accuracy on hard samples per knowledge type; the types differ so
# that compare-types has distinct rows.
_CONTEXT_ACCURACY = {"historical": 0.85, "cultural": 0.78}


def make_external_predictions(seed: int, gold: np.ndarray, knowledge_types) -> dict[str, np.ndarray]:
    """Base and per-knowledge-type (n, 3) probabilities standing in for external models.

    About 40 % of samples are hard (top-two gap 0.01-0.25, base accuracy
    0.55); the rest are easy (gap 0.45-0.90, accuracy 0.80). Context
    predictions help on hard samples and are confidently wrong more often
    on easy ones, as the paper's gate assumes.
    """
    rng = np.random.default_rng([seed, 0xE7])
    n = gold.shape[0]
    hard = rng.random(n) < 0.4
    preds = {"base": _distributions(rng, gold, hard, np.where(hard, 0.55, 0.80), ((0.01, 0.25), (0.45, 0.90)))}
    for knowledge_type in knowledge_types:
        accuracy = np.where(hard, _CONTEXT_ACCURACY[knowledge_type], 0.65)
        preds[knowledge_type] = _distributions(rng, gold, hard, accuracy, ((0.30, 0.80), (0.30, 0.80)))
    return preds


def write_predictions(path: Path, ids, probs: np.ndarray, conditioned_on: str | None) -> None:
    write_jsonl(
        path,
        ({"sample_id": sample_id, "probs": row, "conditioned_on": conditioned_on}
         for sample_id, row in zip(ids, probs.tolist())),
    )
