import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_mock_backend, make_samples, same_columns
from ctxsent.backend import BackendConfig, RemoteBackend, TransportError
from ctxsent.classifier import (
    OutputColumns,
    output_from_dict,
    output_to_dict,
    predict,
    predict_batch,
    read_outputs,
    softmax,
    write_outputs,
)
from ctxsent.datamodel import ContextRecord, Polarity, Sample, argmax_label
from stubserver import StubServer, scores_responder

finite_scores = st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3)


def _context(sample_id, knowledge_type="historical"):
    return ContextRecord(
        sample_id=sample_id,
        knowledge_type=knowledge_type,
        model_id="mock-generator",
        prompt_hash="deadbeef",
        text="Some generated background.",
        created_at="1970-01-01T00:00:00+00:00",
    )


class TestSoftmax:
    def test_symmetric_input(self):
        assert softmax((0.0, 0.0, 0.0)).probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_hand_computed_ln2(self):
        dist = softmax((math.log(2.0), 0.0, 0.0))
        assert dist.probs == pytest.approx((0.5, 0.25, 0.25), abs=1e-12)

    def test_large_scores_do_not_overflow(self):
        dist = softmax((1000.0, 0.0, 0.0))
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-9)
        assert dist.probs[1] == pytest.approx(0.0, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax((float("nan"), 0.0, 0.0))

    @given(st.lists(st.integers(min_value=-50_000_000, max_value=50_000_000), min_size=3, max_size=3))
    def test_argmax_consistent_with_raw(self, micro_scores):
        # Quantized scores: differences are either exactly zero or resolvable
        # through exp, so ties survive the transform bit for bit.
        scores = [s / 1e6 for s in micro_scores]
        dist = softmax(scores)
        best = 0
        for i in (1, 2):
            if scores[i] > scores[best]:
                best = i
        assert argmax_label(dist).index == best

    @given(finite_scores, st.floats(min_value=-20, max_value=20))
    def test_shift_invariance(self, scores, shift):
        base = softmax(scores)
        shifted = softmax([s + shift for s in scores])
        assert max(abs(a - b) for a, b in zip(base.probs, shifted.probs)) <= 1e-9


class TestClassifierOutput:
    def test_dist_must_match_raw(self):
        row = {"sample_id": "x", "probs": [0.8, 0.1, 0.1], "conditioned_on": None, "raw_scores": [0.0, 0.0, 0.0]}
        with pytest.raises(ValueError, match="softmax"):
            output_from_dict(row)
        row["raw_scores"] = [math.log(0.8), math.log(0.1), math.log(0.1)]
        assert output_from_dict(row).raw.scores == tuple(row["raw_scores"])


class TestPredict:
    def test_perfect_oracle_hits_gold(self):
        backend = make_mock_backend(seed=3, base_accuracy=1.0)
        sample = Sample(id="s1", split="test", sentence="a gloomy afternoon", gold=Polarity.NEGATIVE)
        output = predict(sample, "sentence", backend)
        assert argmax_label(output.dist) is Polarity.NEGATIVE
        assert output.conditioned_on is None

    def test_context_changes_distribution(self):
        backend = make_mock_backend(seed=3, hard_context_accuracy=0.95)
        sample = Sample(id="s1", split="test", sentence="a gloomy afternoon", gold=Polarity.NEGATIVE)
        base = predict(sample, "sentence", backend)
        conditioned = predict(sample, "sentence", backend, context=_context("s1"))
        assert conditioned.conditioned_on == "historical"
        assert base.dist.probs != conditioned.dist.probs

    def test_stub_logliks_softmaxed(self):
        with StubServer(scores_responder([-1.0, -2.0, -3.0])) as server:
            backend = RemoteBackend(
                BackendConfig(
                    kind="remote",
                    model_id="m",
                    base_url=server.base_url,
                    api_key_env="CTXSENT_TEST_KEY",
                )
            )
            import os

            os.environ["CTXSENT_TEST_KEY"] = "k"
            sample = Sample(id="s1", split="test", sentence="hello")
            output = predict(sample, "sentence", backend)
        assert output.dist.probs == pytest.approx((0.6652, 0.2447, 0.0900), abs=5e-5)

    def test_transport_error_keeps_status_and_names_sample(self, monkeypatch):
        monkeypatch.setenv("CTXSENT_TEST_KEY", "k")
        with StubServer(lambda body: (503, {"error": "busy"})) as server:
            backend = RemoteBackend(
                BackendConfig(
                    kind="remote",
                    model_id="m",
                    base_url=server.base_url,
                    api_key_env="CTXSENT_TEST_KEY",
                    max_retries=0,
                )
            )
            with pytest.raises(TransportError) as exc_info:
                predict(Sample(id="s1", split="test", sentence="hello"), "sentence", backend)
        assert exc_info.value.last_status == 503
        assert "'s1'" in str(exc_info.value)


class TestPredictBatch:
    def test_outputs_keep_input_order(self):
        backend = make_mock_backend(seed=3)
        samples = make_samples(7)
        result = predict_batch(samples, "sentence", backend)
        assert [o.sample_id for o in result.outputs] == [s.id for s in samples]
        assert result.failures == ()

    def test_empty_input(self):
        backend = make_mock_backend()
        result = predict_batch([], "sentence", backend)
        assert result.outputs == ()
        assert result.failures == ()

    def test_partial_failure_manifest(self, monkeypatch):
        def flaky(body):
            text = body["messages"][0]["content"][0]["text"]
            if "poisoned" in text:
                return 500, {"error": "boom"}
            return 200, {"choice_logprobs": [-1.0, -2.0, -3.0]}

        monkeypatch.setenv("CTXSENT_TEST_KEY", "k")
        samples = [
            Sample(id="ok1", split="test", sentence="fine one"),
            Sample(id="bad", split="test", sentence="poisoned row"),
            Sample(id="ok2", split="test", sentence="fine two"),
        ]
        with StubServer(flaky) as server:
            backend = RemoteBackend(
                BackendConfig(
                    kind="remote",
                    model_id="m",
                    base_url=server.base_url,
                    api_key_env="CTXSENT_TEST_KEY",
                    max_retries=0,
                )
            )
            result = predict_batch(samples, "sentence", backend)
        assert [o.sample_id for o in result.outputs] == ["ok1", "ok2"]
        assert len(result.failures) == 1
        assert result.failures[0].sample_id == "bad"
        assert "bad" in result.failures[0].error

    def test_batch_deterministic_across_backend_instances(self):
        samples = make_samples(12)
        first = predict_batch(samples, "sentence", make_mock_backend(seed=3))
        second = predict_batch(samples, "sentence", make_mock_backend(seed=3))
        assert first == second


class TestOutputsIO:
    def test_round_trip(self, tmp_path):
        backend = make_mock_backend(seed=3)
        outputs = predict_batch(make_samples(4), "sentence", backend).outputs
        path = tmp_path / "preds.jsonl"
        write_outputs(path, outputs)
        assert same_columns(read_outputs(path), OutputColumns.from_outputs(outputs))

    def test_minimal_import_schema(self):
        row = {"sample_id": "a", "probs": [0.2, 0.3, 0.5], "conditioned_on": None}
        output = output_from_dict(row)
        assert output.dist.probs == (0.2, 0.3, 0.5)
        assert output.raw is None
        assert output_to_dict(output) == row

    def test_import_handles_zero_probability(self):
        output = output_from_dict({"sample_id": "a", "probs": [1.0, 0.0, 0.0], "conditioned_on": None})
        assert argmax_label(output.dist) is Polarity.NEGATIVE
