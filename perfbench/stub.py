"""Out-of-process chat-completions stub for the remote-stub workload.

Run as `python3 perfbench/stub.py`; it prints its port on the first line of
standard output and serves until it is terminated. Every POST takes a fixed
SERVICE_MS before it is answered.

Every answer is a pure function of the request, so the benchmark recomputes
it instead of trusting the program. A scoring request is answered with
answer_logprobs() of its image reference and of the text inside its context
block, if it has one; a generation request with answer_text() of its image
reference and of its instruction, the template's words before "Sentence:".
So a context sent with another sample's or another knowledge type's
scoring request, or a generation prompt built from the wrong template,
gives answers the checks do not expect.
Each response goes out in a single write on a keep-alive HTTP/1.1
connection with Nagle's algorithm off: writing headers and body separately
stalls every request on the client's delayed ACK.

The first attempt of every base scoring request whose sample index is a
multiple of RETRY_EVERY is answered 503, so the client's retry path runs a
fixed number of times per round. GET /stats returns the request, retry and
in-flight counts; GET /stats?reset=1 also starts a new round.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

CONTEXT_OPEN, CONTEXT_CLOSE = 'Context:\n"""\n', '\n"""\n'
INSTRUCTION_END = "Sentence:"
RETRY_EVERY = 50
SERVICE_MS = 5.0


def _image_index(image: str) -> int:
    return int(image.rsplit("/", 1)[1].split(".")[0])


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def answer_logprobs(image: str, context: str | None) -> list[float]:
    """Choice log-likelihoods served for a scoring request with this context, or none."""
    conditioned = "base" if context is None else _digest(context).hex()
    digest = _digest(f"{image}|{conditioned}")
    return [-0.05 - 4.0 * int.from_bytes(digest[4 * k:4 * k + 4], "big") / 2**32 for k in range(3)]


def instruction(text: str) -> str:
    """The template-specific words of a generation prompt: its last line up to "Sentence:"."""
    return text.split(INSTRUCTION_END, 1)[0].rsplit("\n", 1)[-1].strip()


def answer_text(image: str, instruction_text: str) -> str:
    """Generated context served for a generation request."""
    return f"Background for {image}: {_digest(f'{image}|{instruction_text}').hex()}"


def context_of(text: str) -> str | None:
    """The text inside a scoring prompt's context block, or None without one."""
    start = text.find(CONTEXT_OPEN)
    if start < 0:
        return None
    start += len(CONTEXT_OPEN)
    return text[start:text.index(CONTEXT_CLOSE, start)]


def fails_first_attempt(image: str, scoring: bool, context: str | None) -> bool:
    return scoring and context is None and _image_index(image) % RETRY_EVERY == 0


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.retries = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self.failed: set[str] = set()

    def snapshot(self) -> dict:
        return {"requests": self.requests, "retries": self.retries, "in_flight_max": self.in_flight_max}


def make_handler(stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True
        timeout = 120

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode()
            self.wfile.write(head + body)

        def do_GET(self):
            if not self.path.startswith("/stats"):
                self._send(404, {"error": "not found"})
                return
            with stats.lock:
                snapshot = stats.snapshot()
                if "reset=1" in self.path:
                    stats.reset()
            self._send(200, snapshot)

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            with stats.lock:
                stats.requests += 1
                stats.in_flight += 1
                stats.in_flight_max = max(stats.in_flight_max, stats.in_flight)
            try:
                time.sleep(SERVICE_MS / 1000.0)
                status, payload = self._answer(raw)
            finally:
                with stats.lock:
                    stats.in_flight -= 1
            self._send(status, payload)

        def _answer(self, raw: bytes) -> tuple[int, dict]:
            try:
                body = json.loads(raw)
                content = body["messages"][0]["content"]
                text = next(part["text"] for part in content if part["type"] == "text")
                image = next(part["image_url"]["url"] for part in content if part["type"] == "image_url")
                scoring = "echo_choices" in body
                context = context_of(text) if scoring else None
            except (ValueError, KeyError, IndexError, TypeError, StopIteration):
                return 400, {"error": "unrecognised request"}
            if fails_first_attempt(image, scoring, context):
                key = hashlib.sha256(raw).hexdigest()
                with stats.lock:
                    first = key not in stats.failed
                    if first:
                        stats.failed.add(key)
                    else:
                        stats.retries += 1
                if first:
                    return 503, {"error": "busy, retry"}
            if scoring:
                return 200, {"choice_logprobs": answer_logprobs(image, context)}
            return 200, {"choices": [{"message": {"content": answer_text(image, instruction(text))}}]}

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Stats()))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
