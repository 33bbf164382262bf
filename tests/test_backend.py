import json
import math
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import make_mock_backend, make_samples
from ctxsent.backend import (
    BackendConfig,
    CapabilityError,
    CachingBackend,
    ChoiceScores,
    ConfigurationError,
    MockBackend,
    MockOracleParams,
    RemoteBackend,
    ResponseCache,
    ScoreHint,
    TransportError,
    backend_cache_key,
    make_backend,
    map_calls,
    scores_cache_key,
    text_cache_key,
)
from ctxsent.classifier import predict_batch
from ctxsent.datamodel import Polarity
from ctxsent.prompts import RenderedPrompt, get_template, render_context_prompt
from ctxsent.datamodel import Sample
from stubserver import StubServer, scores_responder, text_responder

CHOICES = ("negative", "neutral", "positive")


def _prompt(sentence="a test sentence"):
    sample = Sample(id="p1", split="test", sentence=sentence)
    return render_context_prompt(get_template("historical"), sample)


class TestBackendConfig:
    def test_remote_requires_base_url(self):
        with pytest.raises(ConfigurationError, match="base_url"):
            BackendConfig(kind="remote", model_id="m")

    def test_rejects_negative_temperature(self):
        with pytest.raises(ConfigurationError, match="temperature"):
            BackendConfig(kind="mock", model_id="m", temperature=-1.0)

    def test_rejects_zero_concurrency(self):
        with pytest.raises(ConfigurationError, match="concurrency"):
            BackendConfig(kind="mock", model_id="m", concurrency_limit=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            BackendConfig(kind="local", model_id="m")

    def test_oracle_params_bounds(self):
        with pytest.raises(ConfigurationError):
            MockOracleParams(base_accuracy=1.2)

    def test_oracle_spread_shrinks_at_extremes(self):
        params = MockOracleParams(base_accuracy=1.0)
        assert params.hard_base_accuracy == 1.0
        assert params.easy_base_accuracy == 1.0


class TestChoiceScores:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ChoiceScores(scores=(float("inf"), 0.0, 0.0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ChoiceScores(scores=(0.0, 0.0))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ChoiceScores(scores=(0.0, 0.0, 0.0), normalization_mode="mean")


class TestMockBackend:
    def test_generate_deterministic(self):
        backend = make_mock_backend(seed=5)
        prompt = _prompt()
        assert backend.generate(prompt) == backend.generate(prompt)

    def test_generate_starts_with_hash_prefix(self):
        backend = make_mock_backend(seed=5)
        prompt = _prompt()
        assert backend.generate(prompt).startswith(prompt.hash[:12])

    def test_generate_varies_with_prompt(self):
        backend = make_mock_backend(seed=5)
        assert backend.generate(_prompt("one")) != backend.generate(_prompt("two"))

    def test_perfect_oracle_tops_gold(self):
        backend = make_mock_backend(seed=5, base_accuracy=1.0)
        prompt = _prompt()
        scores = backend.score_choices(prompt, CHOICES, hint=ScoreHint(sample_id="s", gold=Polarity.POSITIVE))
        assert scores.scores[2] > max(scores.scores[0], scores.scores[1])

    def test_scores_deterministic_per_sample(self):
        backend = make_mock_backend(seed=5)
        prompt = _prompt()
        hint = ScoreHint(sample_id="s", gold=Polarity.NEUTRAL)
        assert backend.score_choices(prompt, CHOICES, hint=hint) == backend.score_choices(prompt, CHOICES, hint=hint)

    def test_conditioned_scores_differ_from_base(self):
        backend = make_mock_backend(seed=5, hard_context_accuracy=0.95)
        prompt = _prompt()
        base = backend.score_choices(prompt, CHOICES, hint=ScoreHint(sample_id="s", gold=Polarity.NEUTRAL))
        ctx = backend.score_choices(
            prompt, CHOICES, hint=ScoreHint(sample_id="s", gold=Polarity.NEUTRAL, conditioned=True)
        )
        assert base.scores != ctx.scores

    def test_requires_three_choices(self):
        backend = make_mock_backend()
        with pytest.raises(ValueError, match="3 choices"):
            backend.score_choices(_prompt(), ("yes", "no"))


def _within(hits, n, p):
    """Whether hits out of n is within five binomial standard deviations of the share p."""
    return abs(hits / n - p) <= 5 * math.sqrt(p * (1 - p) / n) + 1e-12


class TestMockOracleContract:
    """The mock's draws, over many ids, show the shares and ranges MockOracleParams promises."""

    N = 20_000

    @pytest.fixture(scope="class")
    def draws(self):
        backend = MockBackend(BackendConfig(kind="mock", model_id="m"), seed=21)
        prompt = RenderedPrompt(text="t", image_token=None, hash="h")
        rows = []
        for i in range(self.N):
            sample_id, gold = f"id{i}", Polarity(i % 3)
            row = [sample_id, gold]
            for conditioned in (False, True):
                hint = ScoreHint(sample_id, gold, conditioned=conditioned)
                probs = [math.exp(s) for s in backend.score_choices(prompt, CHOICES, hint=hint).scores]
                row.append(sorted(range(3), key=probs.__getitem__, reverse=True))
                row.append(probs)
            rows.append(row)
        return backend, rows

    def test_shares_match_params(self, draws):
        backend, rows = draws
        params = backend.params
        groups = {True: [], False: []}
        for sample_id, gold, base_order, base_probs, ctx_order, ctx_probs in rows:
            winner, runner, _ = base_order
            hard = base_probs[winner] - base_probs[runner] <= 0.25
            assert backend.is_hard_sample(sample_id) is hard
            groups[hard].append((base_order[0] == gold.index, ctx_order[0] == gold.index))
        assert _within(len(groups[True]), self.N, params.hard_fraction)
        expected = {
            True: (params.hard_base_accuracy, params.hard_context_accuracy),
            False: (params.easy_base_accuracy, params.effective_easy_context_accuracy),
        }
        for hard, outcomes in groups.items():
            base_accuracy, context_accuracy = expected[hard]
            n = len(outcomes)
            assert _within(sum(base for base, _ in outcomes), n, base_accuracy)
            assert _within(sum(ctx for _, ctx in outcomes), n, context_accuracy)
            # The conditioned draw is independent of the base one.
            after_right = [ctx for base, ctx in outcomes if base]
            after_wrong = [ctx for base, ctx in outcomes if not base]
            assert _within(sum(after_right), len(after_right), context_accuracy)
            assert _within(sum(after_wrong), len(after_wrong), context_accuracy)

    def test_margins_and_order(self, draws):
        _, rows = draws
        margins = {}
        other_first = {True: [], False: []}
        for _, gold, base_order, base_probs, ctx_order, ctx_probs in rows:
            for conditioned, order, probs in ((False, base_order, base_probs), (True, ctx_order, ctx_probs)):
                winner, runner, third = (probs[i] for i in order)
                assert winner >= runner >= third > 0
                assert abs(winner + runner + third - 1.0) <= 1e-12
                assert third <= (1.0 - (winner - runner)) / 3.0 + 1e-12
                correct = order[0] == gold.index
                margin = winner - runner
                if conditioned:
                    group = ("ctx", correct)
                else:
                    group = ("base", margin <= 0.25)
                margins.setdefault(group, []).append(margin)
                # The polarity besides gold among the top two is either other one, evenly, right or wrong.
                other = order[1] if correct else order[0]
                other_first[correct].append(other == min(i for i in range(3) if i != gold.index))
        ranges = {
            ("base", True): (0.01, 0.25),
            ("base", False): (0.45, 0.90),
            ("ctx", True): (0.30, 0.80),
            ("ctx", False): (0.60, 0.95),
        }
        for group, (lo, hi) in ranges.items():
            values = margins[group]
            least, most, width = min(values), max(values), hi - lo
            assert lo - 1e-12 <= least and most <= hi + 1e-12, group
            assert least - lo < 0.01 * width and hi - most < 0.01 * width, group
            # Drawn from 53 bits, not a byte: no two margins coincide.
            assert len(set(values)) == len(values), group
            # Uniform over the range: mean at the midpoint, within five standard errors.
            assert abs(sum(values) / len(values) - (lo + hi) / 2) <= 5 * width / math.sqrt(12 * len(values)), group
        for picks in other_first.values():
            assert _within(sum(picks), len(picks), 0.5)

    def test_generate_reaches_every_word_evenly(self):
        backend = MockBackend(BackendConfig(kind="mock", model_id="m"), seed=21)
        counts = dict.fromkeys(MockBackend._VOCAB, 0)
        for i in range(2_000):
            text = backend.generate(RenderedPrompt(text="t", image_token=None, hash=f"{i:032x}"))
            words = text.removesuffix(".").split()[1:]
            assert len(words) == 12
            for word in words:
                counts[word] += 1
        assert set(counts) == set(MockBackend._VOCAB)
        assert all(_within(count, 24_000, 1 / 12) for count in counts.values())


class TestCache:
    def test_put_then_get(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        cache.put("k1", "text", "hello", "m")
        entry = cache.get("k1")
        assert entry["value"] == "hello"

    def test_miss_on_empty(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        assert cache.get("nope") is None

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResponseCache(path).put("k1", "text", "hello", "m")
        assert ResponseCache(path).get("k1")["value"] == "hello"

    def test_last_write_wins_on_compaction(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        cache.put("k1", "text", "first", "m")
        cache.put("k1", "text", "second", "m")
        cache.compact()
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["value"] == "second"

    def test_corrupt_line_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        cache.put("k1", "text", "hello", "m")
        with open(path, "a") as fh:
            fh.write("{not json\n")
        reloaded = ResponseCache(path)
        assert reloaded.get("k1")["value"] == "hello"
        assert len(reloaded) == 1

    def test_older_schema_lines_are_not_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        old = {"key": "k0", "kind": "text", "value": "dead", "model_id": "m", "created_at": "2020-01-01"}
        path.write_text(json.dumps(old) + "\n" + json.dumps({**old, "schema": "2", "key": "k1"}) + "\n")
        with ResponseCache(path) as cache:
            cache.put("k2", "text", "live", "m")
            cache.put("k3", "text", "live", "m")
        reloaded = ResponseCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("k0") is None and reloaded.get("k1") is None
        reloaded.compact()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["key"] for l in lines] == ["k2", "k3"]

    def test_pure_hit_run_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as cache:
            cache.put("k1", "text", "hello", "m")
        before = path.stat()
        with ResponseCache(path) as cache:
            assert cache.get("k1")["value"] == "hello"
        assert (path.stat().st_mtime_ns, path.stat().st_size) == (before.st_mtime_ns, before.st_size)
        ResponseCache(tmp_path / "absent.jsonl").close()
        assert not (tmp_path / "absent.jsonl").exists()

    def test_two_processes_append_whole_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        context = multiprocessing.get_context("spawn")
        workers = [context.Process(target=_put_many, args=(path, tag)) for tag in ("a", "b")]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        _assert_whole_lines(path, ("a", "b"), 500)

    def test_threads_append_whole_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        tags = [f"t{n}-" for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ResponseCache(path) as cache:
                threads = [threading.Thread(target=_fill, args=(cache, tag, 200)) for tag in tags]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert len(cache) == 8 * 200
        finally:
            sys.setswitchinterval(interval)
        _assert_whole_lines(path, tags, 200)

    def test_caching_backend_transparent(self, tmp_path):
        prompt = _prompt()
        inner = make_mock_backend(seed=9)
        cache = ResponseCache(tmp_path / "cache.jsonl")
        cached = CachingBackend(inner, cache)
        hint = ScoreHint(sample_id="s", gold=Polarity.NEGATIVE)
        cold_scores = cached.score_choices(prompt, CHOICES, hint=hint)
        cold_text = cached.generate(prompt)
        warm = CachingBackend(make_mock_backend(seed=9), ResponseCache(tmp_path / "cache.jsonl"))
        assert warm.score_choices(prompt, CHOICES, hint=hint) == cold_scores
        assert warm.generate(prompt) == cold_text

    def test_key_covers_every_answer_input(self, tmp_path):
        total = scores_cache_key("b", "h", None, CHOICES, "total")
        assert total != scores_cache_key("b", "h", None, CHOICES, "per-token")
        assert text_cache_key("b", "h", None) != text_cache_key("b2", "h", None)
        # The same sentence with a different image.
        assert text_cache_key("b", "h", "one.jpg") != text_cache_key("b", "h", "two.jpg")
        assert scores_cache_key("b", "h", "one.jpg", CHOICES, "total") != scores_cache_key(
            "b", "h", "two.jpg", CHOICES, "total"
        )
        config = BackendConfig(kind="mock", model_id="m")
        sampled = BackendConfig(kind="mock", model_id="m", temperature=0.7)
        assert backend_cache_key(MockBackend(config)) != backend_cache_key(MockBackend(sampled))
        # A seed override against a shared cache file answers as the new seed.
        path = tmp_path / "cache.jsonl"
        hint = ScoreHint(sample_id="s")
        seed3 = make_backend(config, seed=3, cache=ResponseCache(path)).score_choices(_prompt(), CHOICES, hint=hint)
        seed4 = make_backend(config, seed=4, cache=ResponseCache(path)).score_choices(_prompt(), CHOICES, hint=hint)
        assert seed4 == MockBackend(config, seed=4).score_choices(_prompt(), CHOICES, hint=hint)
        assert seed4 != seed3
        # Two mock samples with the same prompt and image each keep their own answer.
        other = ScoreHint(sample_id="t", gold=Polarity.POSITIVE)
        fresh = MockBackend(config, seed=3).score_choices(_prompt(), CHOICES, hint=other)
        assert fresh != seed3
        shared = make_backend(config, seed=3, cache=ResponseCache(path))
        assert shared.score_choices(_prompt(), CHOICES, hint=other) == fresh


def _fill(cache, tag, n):
    for i in range(n):
        cache.put(f"{tag}{i}", "text", "x" * 300, "m")


def _put_many(path, tag):
    with ResponseCache(path) as cache:
        _fill(cache, tag, 500)


def _assert_whole_lines(path, tags, n):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(tags) * n
    assert all(json.loads(line)["value"] == "x" * 300 for line in lines)
    cache = ResponseCache(path)
    assert len(cache) == len(tags) * n
    assert all(cache.get(f"{tag}{i}") is not None for tag in tags for i in range(n))


class _ThreadRecorder:
    """Backend wrapper that notes the thread of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = set()

    @property
    def config(self):
        return self.inner.config

    def generate(self, prompt, image=None):
        self.threads.add(threading.get_ident())
        return self.inner.generate(prompt, image=image)

    def score_choices(self, *args, **kwargs):
        self.threads.add(threading.get_ident())
        return self.inner.score_choices(*args, **kwargs)


def _echo(body):
    return 200, {"choices": [{"message": {"content": body["messages"][0]["content"][0]["text"]}}]}


class TestMapCalls:
    def test_mock_calls_run_on_the_callers_thread(self, tmp_path):
        # CachingBackend forwards the inner config, so a cached mock dispatches as a mock.
        with ResponseCache(tmp_path / "cache.jsonl") as cache:
            backend = _ThreadRecorder(CachingBackend(make_mock_backend(seed=3), cache))
            result = predict_batch(make_samples(12), "sentence", backend)
            texts = map_calls(backend, lambda s: backend.generate(_prompt(s.sentence)), make_samples(5))
        assert (len(result.outputs), len(texts)) == (12, 5)
        assert backend.threads == {threading.get_ident()}

    def test_remote_keeps_order_and_cap(self):
        prompts = [_prompt(f"sentence {i:02d}") for i in range(20)]
        with StubServer(_echo, delay=0.02) as server:
            backend = RemoteBackend(_remote_config(server.base_url, concurrency_limit=3))
            texts = map_calls(backend, backend.generate, prompts)
        assert texts == [p.text for p in prompts]
        assert 1 < server.max_concurrent <= 3

    def test_threads_share_keep_alive_connections(self):
        # A connection handed to two threads at once would mix their responses up.
        prompts = [_prompt(f"sentence {i:03d}") for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with StubServer(_echo, keep_alive=True) as server:
                backend = RemoteBackend(_remote_config(server.base_url, max_retries=0, concurrency_limit=8))
                texts = map_calls(backend, backend.generate, prompts)
                backend.close()
        finally:
            sys.setswitchinterval(interval)
        assert texts == [p.text for p in prompts]
        assert len(server.requests) == 200
        assert server.connections <= 8

    def test_remote_first_failure_in_input_order_reraised_unchanged(self):
        def fail_some(body):
            text = body["messages"][0]["content"][0]["text"]
            if "bad-404" in text:
                return 404, {"error": "gone"}
            if "bad-503" in text:
                return 503, {"error": "busy"}
            return 200, {"choices": [{"message": {"content": "ok"}}]}

        names = ["ok", "bad-503", "ok", "bad-404"] + ["ok"] * 20
        with StubServer(fail_some) as server:
            backend = RemoteBackend(_remote_config(server.base_url, max_retries=0, concurrency_limit=2))
            with pytest.raises(TransportError) as exc_info:
                map_calls(backend, lambda name: backend.generate(_prompt(name)), names)
        assert exc_info.value.last_status == 503


def _remote_config(base_url, **kwargs):
    defaults = dict(
        kind="remote",
        model_id="stub-model",
        base_url=base_url,
        api_key_env="CTXSENT_TEST_KEY",
        max_retries=1,
        timeout=5.0,
    )
    defaults.update(kwargs)
    return BackendConfig(**defaults)


@pytest.fixture(autouse=True)
def _test_key(monkeypatch):
    monkeypatch.setenv("CTXSENT_TEST_KEY", "sekrit")


class TestRemoteBackend:
    def test_generate_passes_through_body(self):
        with StubServer(text_responder("fixed body")) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            assert backend.generate(_prompt()) == "fixed body"

    def test_request_shape_and_auth_header(self):
        with StubServer(text_responder("x")) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            backend.generate(_prompt(), image="path/to/img.jpg")
        request = server.requests[0]
        assert request["path"] == "/chat/completions"
        assert request["authorization"] == "Bearer sekrit"
        body = request["body"]
        assert body["model"] == "stub-model"
        content = body["messages"][0]["content"]
        assert content[0]["type"] == "text"
        assert content[1] == {"type": "image_url", "image_url": {"url": "path/to/img.jpg"}}

    def test_scores_pass_through_exactly(self):
        with StubServer(scores_responder([-1.0, -2.0, -3.0])) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            scores = backend.score_choices(_prompt(), CHOICES)
        assert scores.scores == (-1.0, -2.0, -3.0)

    def test_score_request_carries_choices(self):
        with StubServer(scores_responder([-1.0, -2.0, -3.0])) as server:
            RemoteBackend(_remote_config(server.base_url)).score_choices(_prompt(), CHOICES)
        assert server.requests[0]["body"]["echo_choices"] == list(CHOICES)

    def test_per_token_normalization(self):
        with StubServer(scores_responder([-2.0, -1.5, -4.0], token_counts=[2, 1, 4])) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            scores = backend.score_choices(_prompt(), CHOICES, normalization="per-token")
        assert scores.scores == (-1.0, -1.5, -1.0)
        assert scores.normalization_mode == "per-token"

    def test_per_token_without_counts_is_capability_error(self):
        with StubServer(scores_responder([-1.0, -2.0, -3.0])) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            with pytest.raises(CapabilityError, match="token"):
                backend.score_choices(_prompt(), CHOICES, normalization="per-token")

    def test_missing_logprobs_is_capability_error(self):
        with StubServer(text_responder("no scores here")) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            with pytest.raises(CapabilityError, match="choice_logprobs"):
                backend.score_choices(_prompt(), CHOICES)

    def test_retries_then_transport_error_with_status(self):
        def fail(body):
            return 500, {"error": "boom"}

        with StubServer(fail) as server:
            backend = RemoteBackend(_remote_config(server.base_url, max_retries=2))
            with pytest.raises(TransportError) as exc_info:
                backend.generate(_prompt())
        assert exc_info.value.last_status == 500
        assert len(server.requests) == 3

    def test_recovers_on_retry(self):
        state = {"calls": 0}

        def flaky(body):
            state["calls"] += 1
            if state["calls"] == 1:
                return 503, {"error": "warming up"}
            return 200, {"choices": [{"message": {"content": "ok"}}]}

        with StubServer(flaky) as server:
            backend = RemoteBackend(_remote_config(server.base_url, max_retries=2))
            assert backend.generate(_prompt()) == "ok"

    def test_missing_credential_is_configuration_error(self, monkeypatch):
        monkeypatch.delenv("CTXSENT_TEST_KEY", raising=False)
        with StubServer(text_responder("x")) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            with pytest.raises(ConfigurationError, match="CTXSENT_TEST_KEY"):
                backend.generate(_prompt())

    def test_request_bodies_are_pinned(self):
        prompt = RenderedPrompt(text="Caf\u00e9 \"menu\"", image_token=None, hash="h")
        answer = {"choices": [{"message": {"content": "x"}}], "choice_logprobs": [-1.0, -2.0, -3.0]}
        with StubServer(lambda body: (200, answer)) as server:
            backend = RemoteBackend(_remote_config(server.base_url, temperature=0.5))
            backend.generate(prompt, image="img/1.jpg")
            backend.score_choices(prompt, CHOICES)
        content = '[{"role": "user", "content": [{"type": "text", "text": "Caf\\u00e9 \\"menu\\""}'
        assert [r["raw"] for r in server.requests] == [
            (
                '{"model": "stub-model", "messages": ' + content + ', '
                '{"type": "image_url", "image_url": {"url": "img/1.jpg"}}]}], "temperature": 0.5}'
            ).encode(),
            (
                '{"model": "stub-model", "messages": ' + content + ']}], "temperature": 0.5, '
                '"echo_choices": ["negative", "neutral", "positive"]}'
            ).encode(),
        ]

    @pytest.mark.parametrize(
        "keep_alive, close_silently, connections",
        [(True, False, 1), (True, True, 5), (False, False, 5)],
        ids=["keep-alive", "keep-alive-server-closes", "http-1.0"],
    )
    def test_connection_reuse_costs_no_attempt(self, keep_alive, close_silently, connections):
        with StubServer(text_responder("x"), keep_alive=keep_alive, close_silently=close_silently) as server:
            backend = RemoteBackend(_remote_config(server.base_url, max_retries=0))
            for _ in range(5):
                assert backend.generate(_prompt()) == "x"
                # The next call starts only once the server has closed the idle connection.
                assert not close_silently or server.closed.acquire(timeout=5)
            backend.close()
        assert (len(server.requests), server.connections) == (5, connections)


class TestTransportErrors:
    def test_closed_port_fails_every_attempt(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        backend = RemoteBackend(_remote_config(f"http://127.0.0.1:{port}", max_retries=2))
        with pytest.raises(TransportError, match=r"^transport failure: .+ \(after 3 attempts\)$") as exc_info:
            backend.generate(_prompt())
        assert exc_info.value.last_status is None

    def test_non_json_body(self):
        with StubServer(lambda body: (200, b"<html>not json</html>")) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            with pytest.raises(TransportError, match="^response body is not JSON$") as exc_info:
                backend.generate(_prompt())
        assert exc_info.value.last_status == 200

    def test_error_status_carries_first_200_chars_of_body(self):
        with StubServer(lambda body: (404, b"y" * 150 + b"z" * 150)) as server:
            backend = RemoteBackend(_remote_config(server.base_url))
            with pytest.raises(TransportError) as exc_info:
                backend.generate(_prompt())
        assert str(exc_info.value) == "request failed with status 404: " + "y" * 150 + "z" * 50
        assert exc_info.value.last_status == 404

    def test_slow_server_is_retried_as_transport_failure(self):
        with StubServer(text_responder("late"), delay=0.5) as server:
            backend = RemoteBackend(_remote_config(server.base_url, timeout=0.1, max_retries=1))
            with pytest.raises(TransportError, match=r"^transport failure: timed out \(after 2 attempts\)$") as exc_info:
                backend.generate(_prompt())
        assert exc_info.value.last_status is None

    @pytest.mark.parametrize("base_url", ["ftp://x", "http://", "localhost:8000", "http://x:port"])
    def test_base_url_must_be_http_with_host(self, base_url):
        with pytest.raises(ConfigurationError, match="base_url"):
            RemoteBackend(_remote_config(base_url))


def test_import_loads_no_http_library():
    code = "import sys, ctxsent.cli; print([m for m in ('requests', 'urllib3', 'charset_normalizer', 'idna') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
