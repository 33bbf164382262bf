import json
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import same_columns
from ctxsent import datamodel
from ctxsent.classifier import OutputColumns, _output_columns, output_from_dict, read_outputs, softmax
from ctxsent.datamodel import (
    POLARITIES,
    ContextRecord,
    DatasetError,
    Polarity,
    PolarityDistribution,
    PredictionColumns,
    PredictionRecord,
    Sample,
    SchemaError,
    _prediction_columns,
    _read_typed,
    argmax_label,
    ingest_dataset,
    read_contexts,
    read_predictions,
    read_samples,
    write_contexts,
    prediction_from_dict,
    prediction_to_dict,
    write_predictions,
    write_samples,
)


class TestPolarity:
    def test_round_trip_through_index(self):
        for polarity in POLARITIES:
            assert Polarity.from_index(polarity.index) is polarity

    def test_round_trip_through_name(self):
        for polarity in POLARITIES:
            assert Polarity.from_name(polarity.label) is polarity

    def test_canonical_order(self):
        assert [p.index for p in POLARITIES] == [0, 1, 2]
        assert [p.label for p in POLARITIES] == ["negative", "neutral", "positive"]

    def test_from_any(self):
        assert Polarity.from_any("2") is Polarity.POSITIVE
        assert Polarity.from_any(0) is Polarity.NEGATIVE
        assert Polarity.from_any("Neutral") is Polarity.NEUTRAL
        with pytest.raises(ValueError):
            Polarity.from_any("great")


class TestPolarityDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            PolarityDistribution((0.5, 0.5, 0.5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PolarityDistribution((-0.1, 0.6, 0.5))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PolarityDistribution((float("nan"), 0.5, 0.5))

    def test_tolerates_tiny_drift(self):
        PolarityDistribution((0.5, 0.3, 0.2 + 5e-10))

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=3, max_size=3))
    def test_normalized_vectors_are_valid(self, values):
        dist = PolarityDistribution.normalized(values)
        assert all(-1e-9 <= p <= 1 + 1e-9 for p in dist.probs)
        assert abs(sum(dist.probs) - 1.0) <= 1e-9


class TestArgmax:
    def test_unique_maximum(self):
        assert argmax_label(PolarityDistribution((0.1, 0.2, 0.7))) is Polarity.POSITIVE

    def test_three_way_tie_takes_lowest_index(self):
        assert argmax_label(PolarityDistribution.uniform()) is Polarity.NEGATIVE

    def test_two_way_tie_takes_lowest_index(self):
        assert argmax_label(PolarityDistribution((0.4, 0.4, 0.2))) is Polarity.NEGATIVE

    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=3), st.floats(min_value=0.1, max_value=10))
    def test_invariant_under_positive_scaling(self, values, factor):
        dist = PolarityDistribution.normalized(values)
        rescaled = PolarityDistribution.normalized([v * factor for v in dist.probs])
        assert argmax_label(dist) is argmax_label(rescaled)


class TestSample:
    def test_aspect_must_be_substring(self):
        with pytest.raises(DatasetError, match="aspect"):
            Sample(id="x", split="test", sentence="all quiet", aspect="storm")

    def test_split_validated(self):
        with pytest.raises(DatasetError, match="split"):
            Sample(id="x", split="validation", sentence="ok")


class TestCanonicalIngest:
    def test_direct_field_mapping(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id":"a","split":"test","sentence":"good day","label":"positive"}\n')
        samples = ingest_dataset(path, "canonical-jsonl")
        assert len(samples) == 1
        assert samples[0].gold is Polarity.POSITIVE
        assert samples[0].aspect is None

    def test_malformed_row_names_row(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id":"a","split":"test","sentence":"fine","label":"positive"}\n'
            '{"id":"b","split":"test","label":"positive"}\n'
        )
        with pytest.raises(DatasetError, match="row 2"):
            ingest_dataset(path, "canonical-jsonl")

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"sentence": None}, "field 'sentence' must not be null"),
            ({"id": None}, "field 'id' must not be null"),
            ({"aspect": 5}, "'in <string>' requires string as left operand, not int"),
        ],
    )
    def test_bad_value_names_row(self, tmp_path, changes, reason):
        path = tmp_path / "data.jsonl"
        good = {"id": "a", "split": "test", "sentence": "fine day", "aspect": "day"}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **changes}) + "\n")
        with pytest.raises(DatasetError) as info:
            ingest_dataset(path, "canonical-jsonl")
        assert str(info.value) == f"{path}: row 2: {reason}"

    def test_numeric_id_becomes_text(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id":7,"split":"test","sentence":"fine"}\n')
        assert ingest_dataset(path, "canonical-jsonl")[0].id == "7"

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        row = '{"id":"a","split":"test","sentence":"fine","label":1}\n'
        path.write_text(row + row)
        with pytest.raises(DatasetError) as info:
            ingest_dataset(path, "canonical-jsonl")
        assert str(info.value) == f"{path}: row 2: sample id 'a' repeats an earlier row"


class TestTwitterTsvIngest:
    def test_aspect_placeholder_substitution(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text(
            "17\t0\t599097.jpg\tRT @AHedengren : # $T$ before and after . # Syria .\tAleppo\n"
        )
        samples = ingest_dataset(path, "twitter-tsv", split="test")
        assert len(samples) == 1
        sample = samples[0]
        assert "Aleppo" in sample.sentence
        assert "$T$" not in sample.sentence
        assert sample.aspect == "Aleppo"
        assert sample.gold is Polarity.NEGATIVE
        assert sample.image == "599097.jpg"

    def test_full_split_row_count(self, tmp_path):
        path = tmp_path / "test.tsv"
        with open(path, "w") as fh:
            for i in range(1037):
                fh.write(f"{i}\t{i % 3}\timg{i}.jpg\tsample $T$ row {i} .\ttarget{i}\n")
        samples = ingest_dataset(path, "twitter-tsv", split="test")
        assert len(samples) == 1037

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t9\timg.jpg\thello $T$ .\tworld\n")
        with pytest.raises(DatasetError, match="row 1"):
            ingest_dataset(path, "twitter-tsv")

    def test_non_index_column_names_row(self, tmp_path):
        path = tmp_path / "alt.tsv"
        path.write_text("1\t0\timg.jpg\thello $T$ .\tworld\n")
        with pytest.raises(DatasetError, match="row 1"):
            ingest_dataset(path, "twitter-tsv", column_map={"sentence": "text"})

    def test_first_bad_aspect_names_its_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "1\t0\ta.jpg\thello $T$ .\tworld\n"
            "2\t1\tb.jpg\tno placeholder here .\tteam\n"
            "3\t2\tc.jpg\tnone here either .\tcity\n"
        )
        with pytest.raises(DatasetError) as info:
            ingest_dataset(path, "twitter-tsv")
        assert str(info.value) == f"{path}: row 2: sample '2': aspect 'team' not found in sentence"

    def test_column_map_override(self, tmp_path):
        path = tmp_path / "alt.tsv"
        path.write_text("hello $T$ .\tworld\t1\t42\timg.jpg\n")
        samples = ingest_dataset(
            path,
            "twitter-tsv",
            column_map={"sentence": 0, "aspect": 1, "label": 2, "id": 3, "image": 4},
        )
        assert samples[0].id == "42"
        assert samples[0].gold is Polarity.NEUTRAL


class TestMsedIngest:
    def test_json_array(self, tmp_path):
        path = tmp_path / "msed.json"
        path.write_text(json.dumps([
            {"id": "m1", "caption": "sunny park", "sentiment": "positive"},
            {"id": "m2", "caption": "long queue", "sentiment": 0, "image": "q.jpg"},
        ]))
        samples = ingest_dataset(path, "msed", split="dev")
        assert [s.gold for s in samples] == [Polarity.POSITIVE, Polarity.NEGATIVE]
        assert samples[0].split == "dev"
        assert samples[1].image == "q.jpg"

    def test_numeric_id_zero_is_kept(self, tmp_path):
        path = tmp_path / "msed.jsonl"
        path.write_text(
            '{"id": 0, "caption": "zero day", "sentiment": "neutral"}\n'
            '{"id": "test-1", "caption": "first", "sentiment": "positive"}\n'
            '{"id": "", "caption": "no id", "sentiment": "positive"}\n'
        )
        assert [s.id for s in ingest_dataset(path, "msed")] == ["0", "test-1", "test-3"]

    def test_missing_sentence_names_row(self, tmp_path):
        path = tmp_path / "msed.jsonl"
        path.write_text('{"id":"m1","sentiment":"positive"}\n')
        with pytest.raises(DatasetError, match="row 1"):
            ingest_dataset(path, "msed")

    def test_null_caption_names_row(self, tmp_path):
        path = tmp_path / "msed.jsonl"
        path.write_text('{"id":"m1","caption":null,"sentiment":"positive"}\n')
        with pytest.raises(DatasetError, match="row 1: field 'caption' must not be null"):
            ingest_dataset(path, "msed")


def _records():
    return [
        PredictionRecord(
            sample_id=f"r{i}",
            base=PolarityDistribution((0.5, 0.3, 0.2)),
            with_context=PolarityDistribution((0.2, 0.3, 0.5)) if i else None,
            fused=PolarityDistribution((0.35, 0.3, 0.35)) if i else None,
            delta=0.2,
            is_hard=True,
            final_label=Polarity.NEGATIVE,
            strategy="cf",
            knowledge_type="historical" if i else None,
        )
        for i in range(3)
    ]


class TestJsonl:
    def test_prediction_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        records = _records()
        write_predictions(path, PredictionColumns.from_records(records))
        assert read_predictions(path).to_records() == records

    def test_record_lines_are_pinned(self, tmp_path):
        # Keys follow the record dataclass's field order, so a field reorder fails here.
        context = ContextRecord(
            sample_id="s1", knowledge_type="historical", model_id="m", prompt_hash="ab12", text="Ctx.", created_at="t0"
        )
        write_contexts(tmp_path / "contexts.jsonl", [context])
        assert (tmp_path / "contexts.jsonl").read_text() == (
            '{"sample_id": "s1", "knowledge_type": "historical", "model_id": "m", "prompt_hash": "ab12", '
            '"text": "Ctx.", "created_at": "t0"}\n'
        )
        write_predictions(tmp_path / "preds.jsonl", PredictionColumns.from_records(_records()[:2]))
        assert (tmp_path / "preds.jsonl").read_text() == (
            '{"sample_id": "r0", "base": [0.5, 0.3, 0.2], "with_context": null, "fused": null, "delta": 0.2, '
            '"is_hard": true, "final_label": "negative", "strategy": "cf", "knowledge_type": null}\n'
            '{"sample_id": "r1", "base": [0.5, 0.3, 0.2], "with_context": [0.2, 0.3, 0.5], "fused": [0.35, 0.3, 0.35], '
            '"delta": 0.2, "is_hard": true, "final_label": "negative", "strategy": "cf", '
            '"knowledge_type": "historical"}\n'
        )

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_predictions(path, PredictionColumns.from_records([]))
        assert path.read_text() == ""
        assert read_predictions(path).to_records() == []

    def test_truncated_line_is_named(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        write_predictions(path, PredictionColumns.from_records(_records()))
        good = path.read_text().splitlines()
        bad = "\n".join(good + [good[0][: len(good[0]) // 2]])
        path.write_text(bad)
        with pytest.raises(SchemaError, match="line 4"):
            read_predictions(path)

    def test_ingest_write_read_identity(self, tmp_path, tiny30_path):
        samples = ingest_dataset(tiny30_path, "canonical-jsonl")
        out = tmp_path / "samples.jsonl"
        write_samples(out, samples)
        assert read_samples(out) == samples

    def test_twitter_tsv_round_trip(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text(
            "1\t0\ta.jpg\thello $T$ there .\tworld\n"
            "2\t2\tb.jpg\t$T$ wins again .\tteam\n"
        )
        samples = ingest_dataset(path, "twitter-tsv", split="dev")
        out = tmp_path / "samples.jsonl"
        write_samples(out, samples)
        assert read_samples(out) == samples

    def test_msed_round_trip(self, tmp_path):
        path = tmp_path / "msed.jsonl"
        path.write_text(
            '{"id":"m1","caption":"sunny day","sentiment":"positive"}\n'
            '{"id":"m2","caption":"grey sky","sentiment":"neutral","image":"g.jpg"}\n'
        )
        samples = ingest_dataset(path, "msed")
        out = tmp_path / "samples.jsonl"
        write_samples(out, samples)
        assert read_samples(out) == samples


_LOG_PROBS = [math.log(0.2), math.log(0.3), math.log(0.5)]

# Per reader: a good row, the reader, and the record kind its errors name.
_GOOD_ROWS = {
    "sample": ({"id": "s1", "split": "test", "sentence": "fine day", "label": "positive"}, read_samples, "sample"),
    "context": (
        {"sample_id": "s1", "knowledge_type": "historical", "model_id": "m", "prompt_hash": "ab", "text": "Ctx.",
         "created_at": "t0"},
        read_contexts,
        "context",
    ),
    "prediction": (
        {"sample_id": "s1", "base": [0.5, 0.3, 0.2], "with_context": [0.2, 0.3, 0.5], "fused": [0.35, 0.3, 0.35],
         "delta": 0.2, "is_hard": True, "final_label": "negative", "strategy": "cf", "knowledge_type": "historical"},
        read_predictions,
        "prediction",
    ),
    "output": (
        {"sample_id": "s1", "probs": [0.2, 0.3, 0.5], "conditioned_on": None, "raw_scores": _LOG_PROBS,
         "normalization_mode": "total"},
        read_outputs,
        "classifier output",
    ),
}
_DROP = object()


class TestReaderErrors:
    @pytest.mark.parametrize(
        "kind, changes, reason",
        [
            ("sample", {"sentence": _DROP}, "missing field 'sentence'"),
            ("sample", {"id": None}, "field 'id' must not be null"),
            ("sample", {"aspect": 5}, "'in <string>' requires string as left operand, not int"),
            ("context", {"text": _DROP}, "missing field 'text'"),
            ("context", {"model_id": None}, "field 'model_id' must not be null"),
            ("prediction", {"delta": _DROP}, "missing field 'delta'"),
            ("prediction", {"delta": None}, "float() argument must be a string or a real number, not 'NoneType'"),
            ("prediction", {"is_hard": None}, "field 'is_hard' must be true or false, got None"),
            ("prediction", {"strategy": None}, "field 'strategy' must not be null"),
            ("prediction", {"fused": [0.35, None, 0.35]}, "float() argument must be a string or a real number, not 'NoneType'"),
            ("prediction", {"base": 0.5}, "base: expected a 3-element probability array, got 0.5"),
            ("output", {"probs": _DROP}, "missing field 'probs'"),
            ("output", {"sample_id": None}, "field 'sample_id' must not be null"),
            ("output", {"probs": [0.2, None, 0.5]}, "float() argument must be a string or a real number, not 'NoneType'"),
            ("output", {"probs": {"negative": 0.2}}, "probs: expected a 3-element probability array, got {'negative': 0.2}"),
            ("output", {"raw_scores": [-1.6, "low", -0.7]}, "could not convert string to float: 'low'"),
            ("output", {"normalization_mode": "mean"}, "normalization_mode must be one of ('total', 'per-token')"),
            ("output", {"raw_scores": [0.0, 0.0, 0.0]}, "probs are not the softmax of raw_scores (max drift 1.67e-01)"),
            ("output", {"probs": [True, False, False]}, "expected a number, got True"),
            ("output", {"raw_scores": [True, -1.2, -0.7]}, "expected a number, got True"),
            ("prediction", {"delta": True}, "expected a number, got True"),
            ("output", {"sample_id": True}, "field 'sample_id' must be text or a number, got True"),
            ("sample", {"id": False}, "field 'id' must be text or a number, got False"),
            ("context", {"sample_id": ["s1"]}, "field 'sample_id' must be text or a number, got ['s1']"),
            ("output", {"probs": [10**400, 0, 0]}, "int too large to convert to float"),
            ("prediction", {"delta": 10**400}, "int too large to convert to float"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, kind, changes, reason):
        good, read, what = _GOOD_ROWS[kind]
        bad = {key: value for key, value in {**good, **changes}.items() if value is not _DROP}
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in (good, good, bad)))
        with pytest.raises(SchemaError) as info:
            read(path)
        assert str(info.value) == f"{path}: line 3: bad {what} record: {reason}"


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")


class TestRepeatedIds:
    @pytest.mark.parametrize("kind", ["prediction", "output", "context"])
    def test_repeated_id_names_file_id_and_line(self, tmp_path, kind):
        good, read, _ = _GOOD_ROWS[kind]
        key = "sample_id"
        rows = [{**good, key: "s000000"}, {**good, key: "s000002"}, {**good, key: "s000000"}]
        path = tmp_path / "rows.jsonl"
        _write_rows(path, rows)
        with pytest.raises(SchemaError) as info:
            read(path)
        assert str(info.value) == f"{path}: line 3: sample id 's000000' repeats an earlier row"

    def test_repeat_is_found_on_the_row_decoder_path_too(self, tmp_path):
        # A numeric id is not in the plain form, so the rows go through output_from_dict; 7 and "7" are one id.
        good = _GOOD_ROWS["output"][0]
        path = tmp_path / "rows.jsonl"
        _write_rows(path, [{**good, "sample_id": 7}, {**good, "sample_id": "8"}, {**good, "sample_id": "7"}])
        with pytest.raises(SchemaError, match=r"line 3: sample id '7' repeats an earlier row"):
            read_outputs(path)


    def test_repeated_sample_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        rows = [{"id": "t000", "split": "test", "sentence": "a"}, {"id": "t001", "split": "test", "sentence": "b"}]
        _write_rows(path, rows + [{**rows[1], "id": "t000"}])
        with pytest.raises(SchemaError) as info:
            read_samples(path)
        assert str(info.value) == f"{path}: line 3: sample id 't000' repeats an earlier row"

    @pytest.mark.parametrize(
        "adapter, text, message",
        [
            # The blank line is row 2, so the repeat is on row 4.
            ("twitter-tsv", "7\t0\ta.jpg\thi $T$\tyou\n\n8\t1\tb.jpg\tbye $T$\tyou\n7\t2\tc.jpg\tso $T$\tyou\n",
             "row 4: sample id '7' repeats an earlier row"),
            # Row 1 has no id and gets "test-1", which row 3 repeats.
            ("msed", json.dumps([{"caption": "a"}, {"id": "m1", "caption": "b"}, {"id": "test-1", "caption": "c"}]),
             "row 3: sample id 'test-1' repeats an earlier row"),
        ],
        ids=["twitter-tsv", "msed"],
    )
    def test_ingest_names_file_and_row(self, tmp_path, adapter, text, message):
        path = tmp_path / "data"
        path.write_text(text)
        with pytest.raises(DatasetError) as info:
            ingest_dataset(path, adapter)
        assert str(info.value) == f"{path}: {message}"


class TestReadOnce:
    @pytest.mark.parametrize("repeat, opens", [(False, 1), (True, 2)])
    def test_ingest_reads_the_dataset_again_only_for_a_repeated_id(self, tmp_path, monkeypatch, repeat, opens):
        path = tmp_path / "data.jsonl"
        rows = [{"id": f"t{i}", "split": "test", "sentence": "fine"} for i in range(3)]
        _write_rows(path, rows + [rows[0]] if repeat else rows)
        calls = []
        read = datamodel.read_jsonl

        def opening(*args):
            # A generator: the call is counted when iteration opens the file, not when the reader is made.
            calls.append(args)
            yield from read(*args)

        monkeypatch.setattr(datamodel, "read_jsonl", opening)
        if repeat:
            with pytest.raises(DatasetError, match="row 4: sample id 't0' repeats"):
                ingest_dataset(path, "canonical-jsonl")
        else:
            assert len(ingest_dataset(path, "canonical-jsonl")) == 3
        assert len(calls) == opens

    @pytest.mark.parametrize(
        "changes, error",
        [
            # A number written as a string sends the file to the row decoder, which reads it fine.
            ({"probs": ["0.2", 0.3, 0.5]}, None),
            ({"sample_id": "s1"}, "line 2: sample id 's1' repeats an earlier row"),
        ],
    )
    def test_a_prediction_file_is_parsed_once(self, tmp_path, monkeypatch, changes, error):
        good = _GOOD_ROWS["output"][0]
        path = tmp_path / "rows.jsonl"
        _write_rows(path, [good, {**good, "sample_id": "s2", **changes}])
        calls = []
        read = datamodel.read_jsonl
        monkeypatch.setattr(datamodel, "read_jsonl", lambda *args: calls.append(args) or read(*args))
        if error is None:
            assert len(read_outputs(path)) == 2
        else:
            with pytest.raises(SchemaError, match=error):
                read_outputs(path)
        assert len(calls) == 1


class TestColumnReaders:
    @pytest.mark.parametrize("kind", ["prediction", "output"])
    def test_bad_row_after_a_thousand_good_ones_names_line_1001(self, tmp_path, kind):
        good, read, what = _GOOD_ROWS[kind]
        rows = [{**good, "sample_id": f"s{i:06d}"} for i in range(1000)]
        rows.append({**good, "sample_id": "last", "probs" if kind == "output" else "base": [0.5, 0.5, 0.5]})
        path = tmp_path / "rows.jsonl"
        _write_rows(path, rows)
        with pytest.raises(SchemaError) as info:
            read(path)
        assert str(info.value) == f"{path}: line 1001: bad {what} record: probabilities sum to 1.5, expected 1"

    @pytest.mark.parametrize(
        "kind, changes",
        [
            ("output", {"sample_id": 12}),
            ("output", {"probs": ["0.2", 0.3, 0.5]}),
            ("output", {"raw_scores": [repr(v) for v in _LOG_PROBS]}),
            ("prediction", {"final_label": " Negative "}),
            ("prediction", {"final_label": 0}),
            ("prediction", {"delta": "0.2"}),
            ("prediction", {"strategy": 5}),
        ],
    )
    def test_rows_the_columns_decline_are_decoded_as_before(self, tmp_path, kind, changes):
        good, read, what = _GOOD_ROWS[kind]
        path = tmp_path / "rows.jsonl"
        _write_rows(path, [good, {**good, "sample_id": "s2", **changes}])
        records = _read_typed(path, output_from_dict if kind == "output" else prediction_from_dict, what)
        pack = OutputColumns.from_outputs if kind == "output" else PredictionColumns.from_records
        assert same_columns(read(path), pack(records))


_float = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e-300]),
)
_dist_values = st.one_of(
    st.sampled_from([[1, 0, 0], [0, 1, 0], [0.5, -0.0, 0.5], [1.0, 5e-324, 0.0], [0, 0.5, 0.5]]),
    st.lists(_float, min_size=3, max_size=3).filter(lambda v: sum(v) > 0).map(
        lambda v: list(PolarityDistribution.normalized(v).probs)
    ),
)
_ids = st.text(min_size=1, max_size=6)
_kinds = st.one_of(st.none(), st.text(max_size=8))


@st.composite
def _output_rows(draw):
    ids = draw(st.lists(_ids, min_size=0, max_size=12, unique=True))
    rows = []
    for sample_id in ids:
        row = {"sample_id": sample_id, "conditioned_on": draw(_kinds)}
        if draw(st.booleans()):
            scores = draw(st.lists(st.one_of(st.integers(-50, 5), st.floats(-50.0, 5.0)), min_size=3, max_size=3))
            row["probs"] = list(softmax(scores).probs)
            row["raw_scores"] = scores
            if draw(st.booleans()):
                row["normalization_mode"] = draw(st.sampled_from(["total", "per-token"]))
        else:
            row["probs"] = draw(_dist_values)
        rows.append(row)
    return rows


@st.composite
def _prediction_rows(draw):
    ids = draw(st.lists(_ids, min_size=0, max_size=12, unique=True))
    return [
        {
            "sample_id": sample_id,
            "base": draw(_dist_values),
            "with_context": draw(st.one_of(st.none(), _dist_values)),
            "fused": draw(st.one_of(st.none(), _dist_values)),
            "delta": draw(st.one_of(st.integers(-(2**70), 2**70), _float, st.floats(allow_nan=False))),
            "is_hard": draw(st.booleans()),
            "final_label": draw(st.sampled_from(["negative", "neutral", "positive"])),
            "strategy": draw(st.text(max_size=8)),
            "knowledge_type": draw(_kinds),
        }
        for sample_id in ids
    ]


def _through_json(rows):
    """The rows as read_jsonl gives them back: json.dumps, then json.loads, per line."""
    return [json.loads(json.dumps(row, ensure_ascii=False)) for row in rows]


@given(rows=_output_rows())
def test_output_columns_equal_the_row_decoder_bit_for_bit(rows):
    rows = _through_json(rows)
    assert same_columns(_output_columns(rows), OutputColumns.from_outputs([output_from_dict(r) for r in rows]))


@given(rows=_prediction_rows())
def test_prediction_columns_equal_the_row_decoder_bit_for_bit(rows):
    rows = _through_json(rows)
    want = PredictionColumns.from_records([prediction_from_dict(r) for r in rows])
    assert same_columns(_prediction_columns(rows), want)


@given(
    rows=_prediction_rows(),
    delta=st.sampled_from([None, float("nan"), float("inf"), -float("inf")]),
    odd=st.sampled_from(["", 'q"uote', "back\\slash", "tab\there", "é中文", " ", "\x00"]),
)
def test_written_lines_equal_json_dumps_of_each_record(tmp_path_factory, rows, delta, odd):
    records = [prediction_from_dict(r) for r in _through_json(rows)]
    if records:
        records[0] = replace(records[0], sample_id=odd + records[0].sample_id, knowledge_type=odd)
        if delta is not None:
            records[-1] = replace(records[-1], delta=delta)
    path = tmp_path_factory.mktemp("written") / "fused.jsonl"
    write_predictions(path, PredictionColumns.from_records(records))
    want = "".join(json.dumps(prediction_to_dict(r), ensure_ascii=False) + "\n" for r in records)
    assert path.read_bytes() == want.encode("utf-8")
