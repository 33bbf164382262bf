"""Core domain types, dataset ingestion adapters, and JSONL persistence.

All probability vectors in the system are ordered [negative, neutral, positive].
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

PROB_TOLERANCE = 1e-9

SPLITS = ("train", "dev", "test")

ADAPTERS = ("canonical-jsonl", "twitter-tsv", "msed")


class DatasetError(ValueError):
    """Unreadable or invalid dataset content."""


class SchemaError(ValueError):
    """A JSONL line does not match the expected record schema."""


class Polarity(Enum):
    """Three-way sentiment label with canonical indices 0/1/2."""

    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @property
    def index(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_index(cls, index: int) -> "Polarity":
        if index not in (0, 1, 2):
            raise ValueError(f"polarity index must be 0, 1 or 2, got {index!r}")
        return cls(index)

    @classmethod
    def from_name(cls, name: str) -> "Polarity":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown polarity name {name!r}") from None

    @classmethod
    def from_any(cls, value: Any) -> "Polarity":
        """Accept a Polarity, a canonical index (possibly as a string), or a name."""
        if isinstance(value, Polarity):
            return value
        if isinstance(value, bool):
            raise ValueError(f"cannot interpret {value!r} as a polarity")
        if isinstance(value, int):
            return cls.from_index(value)
        if isinstance(value, str):
            text = value.strip()
            if text.lstrip("+-").isdigit():
                return cls.from_index(int(text))
            return cls.from_name(text)
        raise ValueError(f"cannot interpret {value!r} as a polarity")


POLARITIES = (Polarity.NEGATIVE, Polarity.NEUTRAL, Polarity.POSITIVE)

LABELS = tuple(p.label for p in POLARITIES)


@dataclass(frozen=True)
class PolarityDistribution:
    """Probability vector over the three polarities, canonical order.

    Entries must be within [0, 1] and sum to 1, both within 1e-9. Values are
    stored exactly as given; no silent renormalization happens here.
    """

    probs: tuple[float, float, float]

    def __post_init__(self) -> None:
        probs = tuple(float(x) for x in self.probs)
        if len(probs) != 3:
            raise ValueError(f"distribution needs exactly 3 entries, got {len(probs)}")
        for x in probs:
            if not math.isfinite(x):
                raise ValueError(f"non-finite probability {x!r}")
            if x < -PROB_TOLERANCE or x > 1.0 + PROB_TOLERANCE:
                raise ValueError(f"probability {x!r} outside [0, 1]")
        total = probs[0] + probs[1] + probs[2]
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, polarity: Polarity | int) -> float:
        index = polarity.index if isinstance(polarity, Polarity) else polarity
        return self.probs[index]

    @classmethod
    def uniform(cls) -> "PolarityDistribution":
        third = 1.0 / 3.0
        return cls((third, third, third))

    @classmethod
    def normalized(cls, values: Sequence[float]) -> "PolarityDistribution":
        """Build a distribution from any non-negative vector with positive mass."""
        vals = [float(v) for v in values]
        if len(vals) != 3:
            raise ValueError(f"expected 3 values, got {len(vals)}")
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError(f"values must be finite and non-negative: {vals!r}")
        total = sum(vals)
        if total <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return cls((vals[0] / total, vals[1] / total, vals[2] / total))


def argmax_label(dist: PolarityDistribution) -> Polarity:
    """Polarity with the highest probability; ties go to the lowest canonical index."""
    best = 0
    for i in (1, 2):
        if dist.probs[i] > dist.probs[best]:
            best = i
    return POLARITIES[best]


@dataclass(frozen=True)
class Sample:
    """One evaluation item: sentence, optional image reference and aspect, gold label.

    Images are opaque references (path or URL); nothing in this package decodes
    them. When an aspect is present it must occur verbatim in the sentence.
    """

    id: str
    split: str
    sentence: str
    image: str | None = None
    aspect: str | None = None
    gold: Polarity | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DatasetError("sample id must be non-empty")
        if self.split not in SPLITS:
            raise DatasetError(f"sample {self.id!r}: split must be one of {SPLITS}, got {self.split!r}")
        if not self.sentence:
            raise DatasetError(f"sample {self.id!r}: sentence must be non-empty")
        if self.aspect is not None and self.aspect not in self.sentence:
            raise DatasetError(f"sample {self.id!r}: aspect {self.aspect!r} not found in sentence")


@dataclass(frozen=True)
class ContextRecord:
    """Generated world-knowledge text plus provenance.

    (sample_id, knowledge_type, model_id, prompt_hash) identifies a record.
    """

    sample_id: str
    knowledge_type: str
    model_id: str
    prompt_hash: str
    text: str
    created_at: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.sample_id, self.knowledge_type, self.model_id, self.prompt_hash)


@dataclass(frozen=True)
class PredictionRecord:
    """Base, context-conditioned, and fused distributions for one sample."""

    sample_id: str
    base: PolarityDistribution
    with_context: PolarityDistribution | None
    fused: PolarityDistribution | None
    delta: float
    is_hard: bool
    final_label: Polarity
    strategy: str
    knowledge_type: str | None = None


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def write_jsonl(path: str | Path, rows: Iterable[Mapping[str, Any]]) -> None:
    """Write one JSON object per line. Single writer per file."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, object) pairs; bad lines raise SchemaError naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise SchemaError(f"{path}: line {lineno}: expected a JSON object")
            yield lineno, obj


def _dist_from_list(values: Any, where: str) -> PolarityDistribution:
    if not isinstance(values, (list, tuple)) or len(values) != 3:
        raise SchemaError(f"{where}: expected a 3-element probability array, got {values!r}")
    return PolarityDistribution(tuple(float(v) for v in values))


def _text(row: Mapping[str, Any], key: str) -> str:
    """A required text field; a number becomes its string, since ids may be numeric."""
    value = row[key]
    if value is None:
        raise ValueError(f"field {key!r} must not be null")
    return str(value)


def sample_to_dict(sample: Sample) -> dict[str, Any]:
    row: dict[str, Any] = {"id": sample.id, "split": sample.split, "sentence": sample.sentence}
    if sample.image is not None:
        row["image"] = sample.image
    if sample.aspect is not None:
        row["aspect"] = sample.aspect
    if sample.gold is not None:
        row["label"] = sample.gold.label
    return row


def sample_from_dict(row: Mapping[str, Any]) -> Sample:
    return Sample(
        id=_text(row, "id"),
        split=_text(row, "split"),
        sentence=_text(row, "sentence"),
        image=row.get("image"),
        aspect=row.get("aspect"),
        gold=None if row.get("label") is None else Polarity.from_any(row["label"]),
    )


# Field names computed once; asdict would call fields() and deep-copy every value per record.
_CONTEXT_FIELDS = tuple(f.name for f in fields(ContextRecord))
_PREDICTION_FIELDS = tuple(f.name for f in fields(PredictionRecord))


def context_to_dict(record: ContextRecord) -> dict[str, Any]:
    return {name: getattr(record, name) for name in _CONTEXT_FIELDS}


def context_from_dict(row: Mapping[str, Any]) -> ContextRecord:
    return ContextRecord(**{name: _text(row, name) for name in _CONTEXT_FIELDS})


def _encode(value: Any) -> Any:
    """JSON form of a record field: a distribution as its list, a polarity as its label."""
    if isinstance(value, PolarityDistribution):
        return list(value.probs)
    if isinstance(value, Polarity):
        return value.label
    return value


def prediction_to_dict(record: PredictionRecord) -> dict[str, Any]:
    return {name: _encode(getattr(record, name)) for name in _PREDICTION_FIELDS}


def prediction_from_dict(row: Mapping[str, Any]) -> PredictionRecord:
    if not isinstance(row["is_hard"], bool):
        raise ValueError(f"field 'is_hard' must be true or false, got {row['is_hard']!r}")
    return PredictionRecord(
        sample_id=_text(row, "sample_id"),
        base=_dist_from_list(row["base"], "base"),
        with_context=None if row.get("with_context") is None else _dist_from_list(row["with_context"], "with_context"),
        fused=None if row.get("fused") is None else _dist_from_list(row["fused"], "fused"),
        delta=float(row["delta"]),
        is_hard=row["is_hard"],
        final_label=Polarity.from_any(row["final_label"]),
        strategy=_text(row, "strategy"),
        knowledge_type=row.get("knowledge_type"),
    )


def _read_typed(path: str | Path, parse: Any, what: str) -> list[Any]:
    """Decode every row of a JSONL file with parse.

    parse raises KeyError for a missing field and TypeError or ValueError for
    a bad value; the first bad row raises a SchemaError naming file and line.
    """
    records = []
    for lineno, row in read_jsonl(path):
        try:
            records.append(parse(row))
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            raise SchemaError(f"{path}: line {lineno}: bad {what} record: {reason}") from None
    return records


def write_samples(path: str | Path, samples: Iterable[Sample]) -> None:
    write_jsonl(path, (sample_to_dict(s) for s in samples))


def read_samples(path: str | Path) -> list[Sample]:
    samples = _read_typed(path, sample_from_dict, "sample")
    _check_unique_ids(s.id for s in samples)
    return samples


def write_contexts(path: str | Path, records: Iterable[ContextRecord]) -> None:
    write_jsonl(path, (context_to_dict(r) for r in records))


def read_contexts(path: str | Path) -> list[ContextRecord]:
    """Read context records, deduplicating by full key (last write wins)."""
    records = _read_typed(path, context_from_dict, "context")
    by_key: dict[tuple[str, str, str, str], ContextRecord] = {}
    for record in records:
        by_key[record.key] = record
    return list(by_key.values())


def write_predictions(path: str | Path, records: Iterable[PredictionRecord]) -> None:
    write_jsonl(path, (prediction_to_dict(r) for r in records))


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    return _read_typed(path, prediction_from_dict, "prediction")


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

def _check_unique_ids(ids: Iterable[str]) -> None:
    seen: set[str] = set()
    for sample_id in ids:
        if sample_id in seen:
            raise DatasetError(f"duplicate sample id {sample_id!r}")
        seen.add(sample_id)


def _resolve_columns(column_map: Mapping[str, Any] | None, defaults: Mapping[str, Any]) -> dict[str, Any]:
    columns = dict(defaults)
    if column_map:
        unknown = set(column_map) - set(defaults)
        if unknown:
            raise DatasetError(f"unknown column_map keys: {sorted(unknown)}; expected {sorted(defaults)}")
        columns.update(column_map)
    return columns


def ingest_dataset(
    path: str | Path,
    adapter: str,
    column_map: Mapping[str, Any] | None = None,
    split: str = "test",
) -> list[Sample]:
    """Read a dataset file into validated Samples.

    Adapters:
      canonical-jsonl  one JSON object per line with fields id/split/sentence/
                       image/aspect/label; column_map renames source keys.
      twitter-tsv      tab-separated aspect-level rows; the "$T$" placeholder in
                       the sentence is replaced by the aspect text. column_map
                       values are 0-based column indices (default
                       id=0, label=1, image=2, sentence=3, aspect=4).
      msed             JSON array or JSONL of sentence-level rows; column_map
                       values are source keys (default sentence="caption",
                       label="sentiment", image="image", id="id").

    Numeric labels map 0 -> negative, 1 -> neutral, 2 -> positive. The split
    argument applies to adapters whose files carry a single split.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    if adapter == "canonical-jsonl":
        samples = _ingest_canonical(path, column_map)
    elif adapter == "twitter-tsv":
        samples = _ingest_twitter_tsv(path, column_map, split)
    elif adapter == "msed":
        samples = _ingest_msed(path, column_map, split)
    else:
        raise DatasetError(f"unknown adapter {adapter!r}; expected one of {ADAPTERS}")
    _check_unique_ids(s.id for s in samples)
    return samples


def _ingest_canonical(path: Path, column_map: Mapping[str, Any] | None) -> list[Sample]:
    keys = _resolve_columns(
        column_map,
        {"id": "id", "split": "split", "sentence": "sentence", "image": "image", "aspect": "aspect", "label": "label"},
    )
    samples = []
    for lineno, row in read_jsonl(path):
        try:
            renamed = {
                "id": row[keys["id"]],
                "split": row[keys["split"]],
                "sentence": row[keys["sentence"]],
                "image": row.get(keys["image"]),
                "aspect": row.get(keys["aspect"]),
                "label": row.get(keys["label"]),
            }
            samples.append(sample_from_dict(renamed))
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            raise DatasetError(f"{path}: row {lineno}: {reason}") from None
    return samples


def _ingest_twitter_tsv(path: Path, column_map: Mapping[str, Any] | None, split: str) -> list[Sample]:
    columns = _resolve_columns(column_map, {"id": 0, "label": 1, "image": 2, "sentence": 3, "aspect": 4})
    samples = []
    bad_aspects = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                needed = max(v for v in columns.values())
                if len(row) <= needed:
                    raise DatasetError(f"expected at least {needed + 1} columns, got {len(row)}")
                sample_id = row[columns["id"]].strip()
                gold = Polarity.from_any(row[columns["label"]].strip())
                image = row[columns["image"]].strip() or None
                sentence = row[columns["sentence"]].strip()
                aspect = row[columns["aspect"]].strip()
                sentence = sentence.replace("$T$", aspect)
                if aspect and aspect not in sentence:
                    bad_aspects.append(sample_id)
                    continue
                samples.append(
                    Sample(id=sample_id, split=split, sentence=sentence, image=image, aspect=aspect or None, gold=gold)
                )
            except (TypeError, ValueError, IndexError) as exc:
                raise DatasetError(f"{path}: row {lineno}: {exc}") from None
    if bad_aspects:
        raise DatasetError(f"{path}: aspect not present in sentence after substitution for ids: {bad_aspects}")
    return samples


def _ingest_msed(path: Path, column_map: Mapping[str, Any] | None, split: str) -> list[Sample]:
    keys = _resolve_columns(column_map, {"id": "id", "sentence": "caption", "label": "sentiment", "image": "image"})
    text = Path(path).read_text(encoding="utf-8").strip()
    if text.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON array ({exc.msg})") from None
        numbered = list(enumerate(rows, start=1))
    else:
        numbered = [(lineno, row) for lineno, row in read_jsonl(path)]
    samples = []
    for rowno, row in numbered:
        if not isinstance(row, dict):
            raise DatasetError(f"{path}: row {rowno}: expected an object")
        try:
            raw_id = row.get(keys["id"])
            sample_id = f"{split}-{rowno}" if raw_id in (None, "") else str(raw_id)
            label = row.get(keys["label"])
            samples.append(
                Sample(
                    id=sample_id,
                    split=split,
                    sentence=_text(row, keys["sentence"]),
                    image=row.get(keys["image"]),
                    aspect=None,
                    gold=None if label is None else Polarity.from_any(label),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            raise DatasetError(f"{path}: row {rowno}: {reason}") from None
    return samples
