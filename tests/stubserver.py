"""Tiny in-process HTTP stub for exercising the remote backend wire protocol."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

Responder = Callable[[dict], tuple[int, dict]]


class StubServer:
    """Chat-completions stub with a programmable responder.

    Tracks the highest number of simultaneously open requests so tests can
    assert client-side concurrency limits.
    """

    def __init__(self, responder: Responder, delay: float = 0.0):
        self.responder = responder
        self.delay = delay
        self.requests: list[dict] = []
        self.max_concurrent = 0
        self._active = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                with stub._lock:
                    stub._active += 1
                    stub.max_concurrent = max(stub.max_concurrent, stub._active)
                try:
                    if stub.delay:
                        time.sleep(stub.delay)
                    length = int(self.headers.get("Content-Length", 0))
                    body = json.loads(self.rfile.read(length) or b"{}")
                    with stub._lock:
                        stub.requests.append(
                            {"path": self.path, "body": body, "authorization": self.headers.get("Authorization")}
                        )
                    status, payload = stub.responder(body)
                    data = json.dumps(payload).encode("utf-8")
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                finally:
                    with stub._lock:
                        stub._active -= 1

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll lets shutdown() return at once instead of after the default 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


def text_responder(text: str) -> Responder:
    def respond(body: dict) -> tuple[int, dict]:
        return 200, {"choices": [{"message": {"content": text}}]}

    return respond


def scores_responder(logprobs, token_counts=None) -> Responder:
    def respond(body: dict) -> tuple[int, dict]:
        payload: dict = {"choice_logprobs": list(logprobs)}
        if token_counts is not None:
            payload["choice_token_counts"] = list(token_counts)
        return 200, payload

    return respond
