"""Model backends and the content-addressed response cache.

Two backend kinds share one call surface: a remote chat-completions-style HTTP
endpoint and a deterministic mock. The mock doubles as a synthetic oracle so
whole pipelines can run and be verified without any model server.
"""

from __future__ import annotations

import functools
import http.client
import json
import logging
import math
import os
import select
import socket
import ssl
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence, TypeVar

from .datamodel import Polarity
from .digest import derive_seed, digest_words, stable_digest
from .prompts import RenderedPrompt

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

KINDS = ("remote", "mock")

NORMALIZATION_MODES = ("total", "per-token")


class ConfigurationError(ValueError):
    """Invalid backend configuration or missing credential."""


class TransportError(RuntimeError):
    """Remote call failed after all retries."""

    def __init__(self, message: str, last_status: int | None = None):
        super().__init__(message)
        self.last_status = last_status


class CapabilityError(RuntimeError):
    """The backend cannot serve the requested operation (e.g. no likelihoods)."""


@dataclass(frozen=True)
class MockOracleParams:
    """Synthetic-oracle knobs for the mock backend.

    A fixed fraction of samples is generated as hard (top-two probabilities
    close); the rest are easy. Base accuracies on the two groups are spread
    around base_accuracy so the overall expectation matches it. Context
    answers hit hard_context_accuracy on hard samples; easy_context_accuracy
    defaults so that the overall context accuracy matches base_accuracy,
    i.e. context relocates competence toward hard samples instead of adding
    net accuracy. Wrong context answers are confidently wrong, modelling
    assertive but irrelevant background noise.
    """

    seed: int = 0
    base_accuracy: float = 0.7
    hard_context_accuracy: float = 0.85
    hard_fraction: float = 0.4
    hard_penalty: float = 0.25
    easy_context_accuracy: float | None = None

    def __post_init__(self) -> None:
        for name in ("base_accuracy", "hard_context_accuracy", "hard_fraction", "hard_penalty"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be within [0, 1], got {value}")
        easy = self.easy_context_accuracy
        if easy is not None and (isinstance(easy, bool) or not 0.0 <= easy <= 1.0):
            raise ConfigurationError(f"easy_context_accuracy must be within [0, 1], got {easy}")

    @property
    def _spread(self) -> float:
        # Largest penalty that keeps both group accuracies inside [0, 1] while
        # the hard_fraction-weighted mean stays exactly base_accuracy.
        limits = [self.hard_penalty]
        if self.hard_fraction < 1.0:
            limits.append(self.base_accuracy / (1.0 - self.hard_fraction))
        if self.hard_fraction > 0.0:
            limits.append((1.0 - self.base_accuracy) / self.hard_fraction)
        return min(limits)

    @property
    def hard_base_accuracy(self) -> float:
        return self.base_accuracy - (1.0 - self.hard_fraction) * self._spread

    @property
    def easy_base_accuracy(self) -> float:
        return self.base_accuracy + self.hard_fraction * self._spread

    @property
    def effective_easy_context_accuracy(self) -> float:
        if self.easy_context_accuracy is not None:
            return self.easy_context_accuracy
        if self.hard_fraction >= 1.0:
            return self.hard_context_accuracy
        balanced = (self.base_accuracy - self.hard_fraction * self.hard_context_accuracy) / (
            1.0 - self.hard_fraction
        )
        return min(1.0, max(0.0, balanced))


@dataclass(frozen=True)
class BackendConfig:
    """Connection and behaviour settings for one backend."""

    kind: str
    model_id: str
    base_url: str | None = None
    api_key_env: str | None = None
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 2
    concurrency_limit: int = 4
    mock: MockOracleParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"backend kind must be one of {KINDS}, got {self.kind!r}")
        if not self.model_id:
            raise ConfigurationError("model_id must be non-empty")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigurationError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ConfigurationError(f"timeout must be finite and > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.concurrency_limit < 1:
            raise ConfigurationError(f"concurrency_limit must be >= 1, got {self.concurrency_limit}")
        if self.kind == "remote" and not self.base_url:
            raise ConfigurationError("remote backend requires base_url")


@dataclass(frozen=True)
class ChoiceScores:
    """Per-choice log-likelihoods in canonical polarity order."""

    scores: tuple[float, float, float]
    normalization_mode: str = "total"

    def __post_init__(self) -> None:
        scores = tuple(float(s) for s in self.scores)
        if len(scores) != 3:
            raise ValueError(f"expected 3 choice scores, got {len(scores)}")
        if any(not math.isfinite(s) for s in scores):
            raise ValueError(f"choice scores must be finite: {scores!r}")
        if self.normalization_mode not in NORMALIZATION_MODES:
            raise ValueError(f"normalization_mode must be one of {NORMALIZATION_MODES}")
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class ScoreHint:
    """Sample-level metadata for scoring calls.

    The remote backend ignores it. The mock oracle draws a sample's scores
    from one digest keyed on the seed and sample_id, reading its base or its
    conditioned slice by the conditioned flag, and puts the winner or the
    runner-up on gold; without a gold label it derives a stable pseudo-gold
    instead.
    """

    sample_id: str
    gold: Polarity | None = None
    conditioned: bool = False


class Backend(Protocol):
    config: BackendConfig

    def generate(self, prompt: RenderedPrompt, image: str | None = None) -> str: ...

    def score_choices(
        self,
        prompt: RenderedPrompt,
        choices: Sequence[str],
        image: str | None = None,
        hint: ScoreHint | None = None,
        normalization: str = "total",
    ) -> ChoiceScores: ...


def _check_choices(choices: Sequence[str]) -> None:
    if len(choices) != 3:
        raise ValueError(f"score_choices requires exactly 3 choices, got {len(choices)}")


def _unit(word: int) -> float:
    """A uniform in [0, 1) from the top 53 bits of a 64-bit digest word."""
    return (word >> 11) * 2.0**-53


class MockBackend:
    """Deterministic stand-in for a model server.

    generate() returns text that starts with the first 12 hex characters of
    the prompt hash, so downstream artifacts are trivially traceable; its 12
    words come from one digest keyed on (seed, "generate", prompt hash,
    model id). Scores come from the synthetic oracle described on
    MockOracleParams, drawn from one digest keyed on (seed, "score", sample
    identity): word 0 sets hardness, shared by the base and the conditioned
    call, words 1-3 the base score and words 4-6 the conditioned one. The
    identity is the hint's sample_id, or the prompt hash without a hint.
    """

    _VOCAB = (
        "context", "background", "history", "detail", "scene", "figure",
        "event", "period", "culture", "record", "insight", "note",
    )
    _DIGITS = tuple(12**k for k in range(12))

    def __init__(self, config: BackendConfig, seed: int | None = None):
        self.config = config
        self.params = config.mock if config.mock is not None else MockOracleParams()
        if seed is not None:
            self.params = replace(self.params, seed=seed)

    def generate(self, prompt: RenderedPrompt, image: str | None = None) -> str:
        words = digest_words(self.params.seed, "generate", prompt.hash, self.config.model_id)
        # The 12 base-12 digits of a 128-bit number: the bias toward low digits is below 2**-80.
        number = words[0] << 64 | words[1]
        picks = [self._VOCAB[number // power % 12] for power in self._DIGITS]
        return f"{prompt.hash[:12]} " + " ".join(picks) + "."

    def _score_words(self, identity: str) -> tuple[int, ...]:
        return digest_words(self.params.seed, "score", identity)

    def is_hard_sample(self, identity: str) -> bool:
        return _unit(self._score_words(identity)[0]) < self.params.hard_fraction

    def score_choices(
        self,
        prompt: RenderedPrompt,
        choices: Sequence[str],
        image: str | None = None,
        hint: ScoreHint | None = None,
        normalization: str = "total",
    ) -> ChoiceScores:
        _check_choices(choices)
        identity = hint.sample_id if hint else prompt.hash
        conditioned = hint.conditioned if hint else False
        if hint and hint.gold is not None:
            gold = hint.gold.index
        else:
            gold = derive_seed(self.params.seed, "gold", identity) % 3

        params = self.params
        words = self._score_words(identity)
        hard = _unit(words[0]) < params.hard_fraction
        # Correctness (its lowest bit picks the other polarity), margin, third probability.
        correct_word, margin_word, third_word = words[4:7] if conditioned else words[1:4]
        if conditioned:
            accuracy = params.hard_context_accuracy if hard else params.effective_easy_context_accuracy
        else:
            accuracy = params.hard_base_accuracy if hard else params.easy_base_accuracy
        correct = _unit(correct_word) < accuracy
        if conditioned:
            # Wrong context reads as confidently wrong background noise.
            margin_lo, margin_hi = (0.30, 0.80) if correct else (0.60, 0.95)
        else:
            margin_lo, margin_hi = (0.01, 0.25) if hard else (0.45, 0.90)
        other = (gold + 1 + (correct_word & 1)) % 3
        winner, runner = (gold, other) if correct else (other, gold)

        margin = margin_lo + (margin_hi - margin_lo) * _unit(margin_word)
        # Third probability stays below (1 - margin) / 3 so the ordering
        # winner >= runner >= third holds by construction.
        p3_hi = (1.0 - margin) / 3.0
        p3_lo = min(0.02, p3_hi / 2.0)
        p3 = p3_lo + (p3_hi - p3_lo) * _unit(third_word)
        p1 = (1.0 - p3 + margin) / 2.0
        p2 = (1.0 - p3 - margin) / 2.0
        probs = [0.0, 0.0, 0.0]
        probs[winner], probs[runner], probs[3 - winner - runner] = p1, p2, p3
        return ChoiceScores(scores=tuple(map(math.log, probs)), normalization_mode=normalization)


class RemoteBackend:
    """HTTP client for a chat-completions-style endpoint.

    Requests go to POST {base_url}/chat/completions with a Bearer credential
    read from the environment variable named by api_key_env. Scoring requests
    add an echo_choices array and expect choice_logprobs (plus
    choice_token_counts for per-token normalization) in the response.
    map_calls fans a batch out over concurrency_limit worker threads, which
    is the only cap on in-flight requests: a direct caller that runs its own
    threads gets no cap.

    Requests go through http.client over keep-alive connections: a call takes
    an idle connection, or opens one, and puts it back once the response is
    read, so at most as many connections are open as calls run at once. An
    idle connection the server has closed is dropped before reuse; one that
    fails during a call is closed. Proxy variables and .netrc are not read,
    and https uses ssl's default context.
    """

    RETRY_STATUSES = frozenset({429, 500, 502, 503, 504})

    def __init__(self, config: BackendConfig):
        if config.kind != "remote":
            raise ConfigurationError(f"RemoteBackend requires kind=remote, got {config.kind!r}")
        self.config = config
        url = urllib.parse.urlsplit(config.base_url)
        try:
            port = url.port
        except ValueError as exc:
            raise ConfigurationError(f"base_url {config.base_url!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigurationError(f"base_url must be an http or https URL with a host, got {config.base_url!r}")
        if url.scheme == "https":
            # One context for every connection: building one loads the certificate store.
            connect = functools.partial(http.client.HTTPSConnection, context=ssl.create_default_context())
        else:
            connect = http.client.HTTPConnection
        self._connect = functools.partial(connect, url.hostname, port, timeout=config.timeout)
        self._path = url.path.rstrip("/") + "/chat/completions"
        # A stack of idle connections; list.append and list.pop are atomic, so threads share it without a lock.
        self._idle: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close the idle connections, while no call runs; a later call opens new ones."""
        while self._idle:
            self._idle.pop().close()

    def _api_key(self) -> str:
        env = self.config.api_key_env
        if not env:
            raise ConfigurationError("remote backend requires api_key_env naming the credential variable")
        value = os.environ.get(env, "")
        if not value:
            raise ConfigurationError(f"credential environment variable {env!r} is not set")
        return value

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, or a new one."""
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                return self._connect()
            # sock is None after a response that closed the connection; http.client then reconnects.
            if conn.sock is None or not _readable(conn.sock):
                return conn
            conn.close()

    def _exchange(self, body: bytes, headers: Mapping[str, str]) -> tuple[int, bytes]:
        """Send one POST and read the whole response; returns its status and body."""
        conn = self._connection()
        try:
            conn.request("POST", self._path, body=body, headers=headers)
            response = conn.getresponse()
            result = response.status, response.read()
        except BaseException:
            conn.close()
            raise
        self._idle.append(conn)
        return result

    def _post(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        headers = {"Authorization": f"Bearer {self._api_key()}", "Content-Type": "application/json"}
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        attempts = self.config.max_retries + 1
        last_status: int | None = None
        last_error = "no attempt made"
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(0.05 * 2**attempt, 2.0))
            try:
                status, data = self._exchange(body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport failure: {exc}"
                continue
            last_status = status
            if status in self.RETRY_STATUSES:
                last_error = f"server returned status {status}"
                continue
            if status != 200:
                text = data.decode("utf-8", errors="replace")
                raise TransportError(f"request failed with status {status}: {text[:200]}", last_status=status)
            try:
                return json.loads(data)
            except ValueError:
                raise TransportError("response body is not JSON", last_status=status) from None
        raise TransportError(f"{last_error} (after {attempts} attempts)", last_status=last_status)

    def _messages(self, prompt: RenderedPrompt, image: str | None) -> list[dict[str, Any]]:
        content: list[dict[str, Any]] = [{"type": "text", "text": prompt.text}]
        if image:
            content.append({"type": "image_url", "image_url": {"url": image}})
        return [{"role": "user", "content": content}]

    def generate(self, prompt: RenderedPrompt, image: str | None = None) -> str:
        payload = {
            "model": self.config.model_id,
            "messages": self._messages(prompt, image),
            "temperature": self.config.temperature,
        }
        body = self._post(payload)
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise TransportError(f"response carries no generated text: {json.dumps(body)[:200]}") from None
        if not isinstance(text, str):
            raise TransportError("generated content is not a string")
        return text

    def score_choices(
        self,
        prompt: RenderedPrompt,
        choices: Sequence[str],
        image: str | None = None,
        hint: ScoreHint | None = None,
        normalization: str = "total",
    ) -> ChoiceScores:
        _check_choices(choices)
        if normalization not in NORMALIZATION_MODES:
            raise ValueError(f"normalization must be one of {NORMALIZATION_MODES}")
        payload = {
            "model": self.config.model_id,
            "messages": self._messages(prompt, image),
            "temperature": self.config.temperature,
            "echo_choices": list(choices),
        }
        body = self._post(payload)
        logprobs = body.get("choice_logprobs")
        if not isinstance(logprobs, list) or len(logprobs) != 3:
            raise CapabilityError(
                f"backend {self.config.model_id!r} did not return choice_logprobs; "
                "likelihood scoring is unsupported by this endpoint"
            )
        scores = [float(v) for v in logprobs]
        if normalization == "per-token":
            counts = body.get("choice_token_counts")
            if not isinstance(counts, list) or len(counts) != 3 or any(int(c) <= 0 for c in counts):
                raise CapabilityError(
                    "per-token normalization requires choice_token_counts in the response"
                )
            scores = [s / int(c) for s, c in zip(scores, counts)]
        return ChoiceScores(scores=tuple(scores), normalization_mode=normalization)


def _readable(sock: socket.socket) -> bool:
    """Whether an idle socket has data or end-of-file waiting, i.e. the server closed it."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def map_calls(backend: Backend, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply fn, which calls backend, to every item; results keep input order.

    The dispatch follows backend.config.kind. An in-process mock runs in a
    plain loop on the caller's thread. A remote backend fans out over one
    pool of concurrency_limit workers; on the first failure in input order
    the calls not yet started are cancelled and that exception is re-raised
    unchanged, so e.g. TransportError.last_status survives.
    """
    if backend.config.kind != "remote":
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=backend.config.concurrency_limit) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------

# Bump when the key or the stored value changes meaning; lines written under
# another schema are skipped on load.
CACHE_SCHEMA = "4"


def backend_cache_key(backend: Backend) -> str:
    """Digest of what, besides the request, changes a backend's answers.

    That is the model id and temperature, plus the effective oracle params
    (seed included) for a mock.
    """
    params = json.dumps(asdict(backend.params), sort_keys=True) if isinstance(backend, MockBackend) else ""
    return stable_digest(backend.config.model_id, repr(backend.config.temperature), params)


def text_cache_key(backend_key: str, prompt_hash: str, image: str | None) -> str:
    return stable_digest("generate", backend_key, prompt_hash, image or "")


def scores_cache_key(
    backend_key: str,
    prompt_hash: str,
    image: str | None,
    choices: Sequence[str],
    normalization: str,
    hint_key: str = "",
) -> str:
    return stable_digest("score", backend_key, prompt_hash, image or "", *choices, normalization, hint_key)


class ResponseCache:
    """Append-only JSONL cache of backend responses, keyed by content digest.

    Lines are {schema, key, kind, value, model_id, created_at}. Loading
    indexes only lines of the current CACHE_SCHEMA and skips corrupt lines
    with a warning. Duplicate keys resolve last-write-wins, which compact()
    makes physical.

    put() appends each line with one unbuffered write to an O_APPEND
    descriptor, so lines from concurrent writers, threads or processes, never
    interleave. The descriptor opens on the first put, so a run that only
    hits never touches the file, and stays open until close().
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()
        self._fd: int | None = None
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        stale = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    if entry.get("schema") != CACHE_SCHEMA:
                        stale += 1
                        continue
                    key = entry["key"]
                    if entry["kind"] not in ("text", "scores"):
                        raise ValueError(f"bad kind {entry['kind']!r}")
                except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
                    logger.warning("skipping corrupt cache line %s:%d (%s)", self.path, lineno, exc)
                    continue
                self._entries[key] = entry
        if stale:
            logger.info("skipped %d cache lines of an older schema in %s", stale, self.path)

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "ResponseCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def get(self, key: str) -> dict[str, Any] | None:
        return self._entries.get(key)

    def put(self, key: str, kind: str, value: Any, model_id: str) -> None:
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "kind": kind,
            "value": value,
            "model_id": model_id,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        line = (json.dumps(entry, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            self._entries[key] = entry
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            written = os.write(self._fd, line)
        if written != len(line):
            raise OSError(f"short write to {self.path}: {written} of {len(line)} bytes")

    def compact(self) -> None:
        """Rewrite the file with one line per live key (last write wins)."""
        with self._lock:
            with open(self.path, "w", encoding="utf-8") as fh:
                for entry in self._entries.values():
                    fh.write(json.dumps(entry, ensure_ascii=False))
                    fh.write("\n")


class CachingBackend:
    """Wrap a backend with the response cache; hits skip the inner call."""

    def __init__(self, inner: Backend, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self._backend_key = backend_cache_key(inner)
        # A mock's scores also depend on the score hint, which a model server never sees.
        self._keys_hint = isinstance(inner, MockBackend)

    @property
    def config(self) -> BackendConfig:
        return self.inner.config

    def generate(self, prompt: RenderedPrompt, image: str | None = None) -> str:
        key = text_cache_key(self._backend_key, prompt.hash, image)
        entry = self.cache.get(key)
        if entry is not None and entry["kind"] == "text":
            return entry["value"]
        text = self.inner.generate(prompt, image=image)
        self.cache.put(key, "text", text, self.config.model_id)
        return text

    def score_choices(
        self,
        prompt: RenderedPrompt,
        choices: Sequence[str],
        image: str | None = None,
        hint: ScoreHint | None = None,
        normalization: str = "total",
    ) -> ChoiceScores:
        hint_key = repr(hint) if self._keys_hint else ""
        key = scores_cache_key(self._backend_key, prompt.hash, image, choices, normalization, hint_key)
        entry = self.cache.get(key)
        if entry is not None and entry["kind"] == "scores":
            value = entry["value"]
            return ChoiceScores(scores=tuple(value["scores"]), normalization_mode=value["normalization_mode"])
        scores = self.inner.score_choices(prompt, choices, image=image, hint=hint, normalization=normalization)
        self.cache.put(
            key,
            "scores",
            {"scores": list(scores.scores), "normalization_mode": scores.normalization_mode},
            self.config.model_id,
        )
        return scores


def make_backend(
    config: BackendConfig, seed: int | None = None, cache: ResponseCache | None = None
) -> Backend:
    """Build a backend from its config, optionally seeded (mock) and cached."""
    backend: Backend
    if config.kind == "mock":
        backend = MockBackend(config, seed=seed)
    else:
        backend = RemoteBackend(config)
    if cache is not None:
        backend = CachingBackend(backend, cache)
    return backend
