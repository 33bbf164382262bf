"""Core domain types, dataset ingestion adapters, and JSONL persistence.

All probability vectors in the system are ordered [negative, neutral, positive].
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

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


def _valid_rows(rows: np.ndarray) -> np.ndarray:
    """Per (n, 3) row, whether PolarityDistribution accepts it: the same tests in the same arithmetic."""
    total = rows[:, 0] + rows[:, 1] + rows[:, 2]
    return (
        np.isfinite(rows).all(axis=1)
        & ((rows >= -PROB_TOLERANCE) & (rows <= 1.0 + PROB_TOLERANCE)).all(axis=1)
        & (np.abs(total - 1.0) <= PROB_TOLERANCE)
    )


def _js(p: Sequence[float], q: Sequence[float]) -> float:
    """Base-2 Jensen-Shannon divergence of two probability vectors, clamped into [0, 1]."""

    def kl(a: Sequence[float], m: Sequence[float]) -> float:
        total = 0.0
        for ai, mi in zip(a, m):
            if ai > 0.0:
                total += ai * math.log2(ai / mi)
        return total

    mid = [(a + b) / 2.0 for a, b in zip(p, q)]
    return min(1.0, max(0.0, 0.5 * kl(p, mid) + 0.5 * kl(q, mid)))


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
    """Generated world-knowledge text plus provenance; a contexts file holds one per sample."""

    sample_id: str
    knowledge_type: str
    model_id: str
    prompt_hash: str
    text: str
    created_at: str


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


def _rows_of(dists: Iterable[PolarityDistribution]) -> np.ndarray:
    return np.array([d.probs for d in dists], dtype=np.float64).reshape(-1, 3)


@dataclass(frozen=True, eq=False)
class PredictionColumns:
    """A prediction set as columns, one row per sample: the column form of a list of PredictionRecord.

    base, with_context and fused are (n, 3) float64 rows. Where has_context
    or has_fused is False the record holds null there, and the row repeats
    the base row. delta is each base row's confidence gap and labels are the
    final labels' indices. An unfused set has strategy "base".
    """

    ids: tuple[str, ...]
    base: np.ndarray
    with_context: np.ndarray
    has_context: np.ndarray
    fused: np.ndarray
    has_fused: np.ndarray
    delta: np.ndarray
    is_hard: np.ndarray
    labels: np.ndarray
    strategy: tuple[str, ...]
    knowledge_type: tuple[str | None, ...]

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def js_weight(self) -> np.ndarray:
        """The js strategy's weight per row: each base row's divergence from uniform, through math.log2.

        np.log2 differs from math.log2 in the last bit on some inputs, which
        would change fused js rows, so the weight stays a per-row scalar
        computation, made once per set of columns.
        """
        uniform = PolarityDistribution.uniform().probs
        return np.array([_js(row, uniform) for row in self.base.tolist()], dtype=np.float64)

    @classmethod
    def from_records(cls, records: Sequence[PredictionRecord]) -> "PredictionColumns":
        return cls(
            ids=tuple(r.sample_id for r in records),
            base=_rows_of(r.base for r in records),
            with_context=_rows_of(r.base if r.with_context is None else r.with_context for r in records),
            has_context=np.array([r.with_context is not None for r in records], dtype=bool),
            fused=_rows_of(r.base if r.fused is None else r.fused for r in records),
            has_fused=np.array([r.fused is not None for r in records], dtype=bool),
            delta=np.array([r.delta for r in records], dtype=np.float64),
            is_hard=np.array([r.is_hard for r in records], dtype=bool),
            labels=np.array([r.final_label.index for r in records], dtype=np.int64),
            strategy=tuple(r.strategy for r in records),
            knowledge_type=tuple(r.knowledge_type for r in records),
        )

    def to_records(self) -> list[PredictionRecord]:
        def dists(rows: np.ndarray, present: np.ndarray) -> list[PolarityDistribution | None]:
            return [PolarityDistribution(tuple(row)) if p else None for row, p in zip(rows.tolist(), present.tolist())]

        everywhere = np.ones(len(self), dtype=bool)
        columns = (
            self.ids,
            dists(self.base, everywhere),
            dists(self.with_context, self.has_context),
            dists(self.fused, self.has_fused),
            self.delta.tolist(),
            self.is_hard.tolist(),
            [POLARITIES[i] for i in self.labels.tolist()],
            self.strategy,
            self.knowledge_type,
        )
        return [PredictionRecord(*row) for row in zip(*columns)]


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


def _float(value: Any) -> float:
    """A number as a float; true and false are not numbers, though Python would read them as 1 and 0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _dist_from_list(values: Any, where: str) -> PolarityDistribution:
    if not isinstance(values, (list, tuple)) or len(values) != 3:
        raise SchemaError(f"{where}: expected a 3-element probability array, got {values!r}")
    return PolarityDistribution(tuple(map(_float, values)))


def _text(row: Mapping[str, Any], key: str) -> str:
    """A required text field; a number becomes its string, since ids may be numeric."""
    value = row[key]
    if isinstance(value, str):
        return value
    if value is None:
        raise ValueError(f"field {key!r} must not be null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be text or a number, got {value!r}")
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
        delta=_float(row["delta"]),
        is_hard=row["is_hard"],
        final_label=Polarity.from_any(row["final_label"]),
        strategy=_text(row, "strategy"),
        knowledge_type=row.get("knowledge_type"),
    )


def _decode(
    numbered: Iterable[tuple[int, Any]], parse: Callable[[Any], Any], at: Callable[[int, str], ValueError], what: str = ""
) -> list[Any]:
    """Decode every (row number, row) pair with parse; the first bad row raises at(number, what + reason).

    parse raises KeyError for a missing field and IndexError, TypeError, ValueError or OverflowError for a bad value.
    """
    records = []
    for number, row in numbered:
        try:
            records.append(parse(row))
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            raise at(number, what + reason) from None
    return records


def _check_repeats(ids: Sequence[str], numbered: Iterable[tuple[int, Any]], at: Callable[[int, str], ValueError]) -> None:
    """Raise at(number, ...) for the first id that repeats an earlier row's; numbered is iterated only then."""
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for sample_id, (number, _) in zip(ids, numbered):
            if sample_id in seen:
                raise at(number, f"sample id {sample_id!r} repeats an earlier row")
            seen.add(sample_id)


def _at_line(path: str | Path) -> Callable[[int, str], SchemaError]:
    """A JSONL file's row errors: '<path>: line N: <message>'."""
    return lambda lineno, message: SchemaError(f"{path}: line {lineno}: {message}")


def _read_typed(
    path: str | Path, parse: Any, what: str, numbered: Iterable[tuple[int, dict[str, Any]]] | None = None
) -> list[Any]:
    """Decode every row of a JSONL file with parse; numbered holds its (line, row) pairs if already read.

    The first bad row raises a SchemaError naming file and line.
    """
    rows = read_jsonl(path) if numbered is None else numbered
    return _decode(rows, parse, _at_line(path), f"bad {what} record: ")


def write_samples(path: str | Path, samples: Iterable[Sample]) -> None:
    write_jsonl(path, (sample_to_dict(s) for s in samples))


def read_samples(path: str | Path) -> list[Sample]:
    samples = _read_typed(path, sample_from_dict, "sample")
    # The generator opens the file only if an id repeats, to find the line.
    _check_repeats([s.id for s in samples], read_jsonl(path), _at_line(path))
    return samples


def write_contexts(path: str | Path, records: Iterable[ContextRecord]) -> None:
    write_jsonl(path, (context_to_dict(r) for r in records))


def read_contexts(path: str | Path) -> list[ContextRecord]:
    records = _read_typed(path, context_from_dict, "context")
    _check_repeats([r.sample_id for r in records], read_jsonl(path), _at_line(path))
    return records


def _json_texts(values: np.ndarray) -> list[str]:
    """Each value, or each row of a 2-D array, as json.dumps writes it; json writes a finite float by repr."""
    items = values.tolist()
    return list(map(repr if np.isfinite(values).all() else json.dumps, items))


def _nullable(texts: list[str], present: np.ndarray) -> list[str]:
    return [text if p else "null" for text, p in zip(texts, present.tolist())]


_LABEL_JSON = tuple(json.dumps(label) for label in LABELS)
# One record's line, its keys in PredictionRecord's field order.
_PREDICTION_LINE = "{" + ", ".join(f'"{name}": %s' for name in _PREDICTION_FIELDS) + "}\n"


def write_predictions(path: str | Path, columns: PredictionColumns) -> None:
    """Write one JSON object per record, formatted from the columns.

    Each line equals json.dumps(prediction_to_dict(record), ensure_ascii=False).
    """
    encode = json.JSONEncoder(ensure_ascii=False).encode
    texts = {
        "sample_id": [encode(v) for v in columns.ids],
        "base": _json_texts(columns.base),
        "with_context": _nullable(_json_texts(columns.with_context), columns.has_context),
        "fused": _nullable(_json_texts(columns.fused), columns.has_fused),
        "delta": _json_texts(columns.delta),
        "is_hard": ["true" if h else "false" for h in columns.is_hard.tolist()],
        "final_label": [_LABEL_JSON[i] for i in columns.labels.tolist()],
        "strategy": [encode(v) for v in columns.strategy],
        "knowledge_type": [encode(v) for v in columns.knowledge_type],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_PREDICTION_LINE % row for row in zip(*(texts[name] for name in _PREDICTION_FIELDS)))


_LABEL_INDEX = {p.label: p.index for p in POLARITIES}


def _require(condition: bool) -> None:
    if not condition:
        raise ValueError("not a plain row")


def _of_types(values: Iterable[Any], types: set[type]) -> bool:
    """Whether every value's type is one of types; bool is not int here."""
    return set(map(type, values)) <= types


def _number_rows(values: list[Any]) -> np.ndarray:
    """(n, 3) float64 rows of lists of three JSON numbers; ValueError, TypeError or OverflowError for anything else."""
    rows = np.array(values, dtype=np.float64) if values else np.empty((0, 3))
    _require(rows.shape == (len(values), 3) and _of_types(chain.from_iterable(values), {int, float}))
    return rows


def _prediction_columns(rows: list[dict[str, Any]]) -> PredictionColumns:
    """Columns of fused-record rows in the plain form, every array built once and checked as a whole."""
    ids = [row["sample_id"] for row in rows]
    base_lists = [row["base"] for row in rows]
    context_lists = [row.get("with_context") for row in rows]
    fused_lists = [row.get("fused") for row in rows]
    delta = [row["delta"] for row in rows]
    is_hard = [row["is_hard"] for row in rows]
    strategy = [row["strategy"] for row in rows]
    _require(
        _of_types(ids, {str})
        and _of_types(delta, {int, float})
        and _of_types(is_hard, {bool})
        and _of_types(strategy, {str})
    )
    base = _number_rows(base_lists)
    with_context = _number_rows([b if c is None else c for b, c in zip(base_lists, context_lists)])
    fused = _number_rows([b if f is None else f for b, f in zip(base_lists, fused_lists)])
    _require(bool((_valid_rows(base) & _valid_rows(with_context) & _valid_rows(fused)).all()))
    return PredictionColumns(
        ids=tuple(ids),
        base=base,
        with_context=with_context,
        has_context=np.array([c is not None for c in context_lists], dtype=bool),
        fused=fused,
        has_fused=np.array([f is not None for f in fused_lists], dtype=bool),
        delta=np.array(delta, dtype=np.float64),
        is_hard=np.array(is_hard, dtype=bool),
        labels=np.array([_LABEL_INDEX[row["final_label"]] for row in rows], dtype=np.int64),
        strategy=tuple(strategy),
        knowledge_type=tuple(row.get("knowledge_type") for row in rows),
    )


def _read_columns(
    path: str | Path,
    from_rows: Callable[[list[dict[str, Any]]], Any],
    parse: Callable[[Mapping[str, Any]], Any],
    pack: Callable[[list[Any]], Any],
    what: str,
) -> Any:
    """Read a JSONL file of per-sample rows into columns with from_rows.

    from_rows gathers each field into a list and builds each array once; it
    raises KeyError, TypeError, ValueError or OverflowError for any row that
    is not in the plain form (JSON numbers, valid distributions, string
    ids). Then every row already read is decoded with parse from the top,
    as _read_typed does, so the first bad row raises the SchemaError it
    always did, and the decoded records are packed into columns. The file
    is parsed once either way. A sample id that repeats an earlier row's
    raises a SchemaError naming file, id and line.
    """
    numbered = list(read_jsonl(path))
    try:
        columns = from_rows([row for _, row in numbered])
    except (KeyError, TypeError, ValueError, OverflowError):
        columns = pack(_read_typed(path, parse, what, numbered))
    _check_repeats(columns.ids, numbered, _at_line(path))
    return columns


def read_predictions(path: str | Path) -> PredictionColumns:
    return _read_columns(path, _prediction_columns, prediction_from_dict, PredictionColumns.from_records, "prediction")


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

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
    if adapter not in _ADAPTERS:
        raise DatasetError(f"unknown adapter {adapter!r}; expected one of {ADAPTERS}")
    defaults, read, to_row = _ADAPTERS[adapter]
    unknown = set(column_map or ()) - set(defaults)
    if unknown:
        raise DatasetError(f"unknown column_map keys: {sorted(unknown)}; expected {sorted(defaults)}")
    keys = {**defaults, **(column_map or {})}

    def at(number: int, message: str) -> DatasetError:
        return DatasetError(f"{path}: row {number}: {message}")

    samples = _decode(read(path), lambda row: sample_from_dict(to_row(row, keys, split)), at)
    # A fresh reader opens the file again only if an id repeats, to find the row.
    _check_repeats([s.id for s in samples], read(path), at)
    return samples


def _canonical_row(row: dict[str, Any], keys: Mapping[str, str], split: str) -> dict[str, Any]:
    return {
        "id": row[keys["id"]],
        "split": row[keys["split"]],
        "sentence": row[keys["sentence"]],
        "image": row.get(keys["image"]),
        "aspect": row.get(keys["aspect"]),
        "label": row.get(keys["label"]),
    }


def _tsv_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if any(cell.strip() for cell in row):
                yield lineno, row


def _twitter_row(row: list[str], columns: Mapping[str, int], split: str) -> dict[str, Any]:
    needed = max(columns.values())
    if len(row) <= needed:
        raise ValueError(f"expected at least {needed + 1} columns, got {len(row)}")
    aspect = row[columns["aspect"]].strip()
    return {
        "id": row[columns["id"]].strip(),
        "split": split,
        "sentence": row[columns["sentence"]].strip().replace("$T$", aspect),
        "image": row[columns["image"]].strip() or None,
        "aspect": aspect or None,
        "label": row[columns["label"]].strip(),
    }


def _msed_rows(path: Path) -> Iterator[tuple[int, tuple[int, dict[str, Any]]]]:
    """Rows of a JSON array or JSONL file, each with its number, which _msed_row needs for a default id."""
    text = path.read_text(encoding="utf-8").strip()
    if text.startswith("["):
        try:
            numbered = enumerate(json.loads(text), start=1)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON array ({exc.msg})") from None
    else:
        numbered = read_jsonl(path)
    for rowno, row in numbered:
        if not isinstance(row, dict):
            raise DatasetError(f"{path}: row {rowno}: expected an object")
        yield rowno, (rowno, row)


def _msed_row(numbered: tuple[int, dict[str, Any]], keys: Mapping[str, str], split: str) -> dict[str, Any]:
    """A row whose id is missing, null or "" gets the id "<split>-<row number>"."""
    rowno, row = numbered
    raw_id = row.get(keys["id"])
    return {
        "id": f"{split}-{rowno}" if raw_id in (None, "") else raw_id,
        "split": split,
        "sentence": _text(row, keys["sentence"]),
        "image": row.get(keys["image"]),
        "aspect": None,
        "label": row.get(keys["label"]),
    }


# Per adapter: its default column_map, a reader of (row number, row) pairs, and a row's samples.jsonl form.
_ADAPTERS: dict[str, tuple[dict[str, Any], Callable[[Path], Iterator[tuple[int, Any]]], Callable[..., dict[str, Any]]]] = {
    "canonical-jsonl": (
        {"id": "id", "split": "split", "sentence": "sentence", "image": "image", "aspect": "aspect", "label": "label"},
        lambda path: read_jsonl(path),  # looked up per call, so a rebound read_jsonl (the tracer's) is used
        _canonical_row,
    ),
    "twitter-tsv": ({"id": 0, "label": 1, "image": 2, "sentence": 3, "aspect": 4}, _tsv_rows, _twitter_row),
    "msed": ({"id": "id", "sentence": "caption", "label": "sentiment", "image": "image"}, _msed_rows, _msed_row),
}
