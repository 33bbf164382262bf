"""Tiny in-process HTTP stub for exercising the remote backend wire protocol."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

# A bytes payload is sent as it is; anything else as JSON.
Responder = Callable[[dict], tuple[int, dict | bytes]]


class StubServer:
    """Chat-completions stub with a programmable responder.

    Tracks the highest number of simultaneously open requests so tests can
    assert client-side concurrency limits, and counts the connections it
    accepted. By default it speaks HTTP/1.0 and closes the connection after
    every response. With keep_alive it speaks HTTP/1.1 and keeps connections
    open; with close_silently as well, it shuts each connection down after
    the response without sending "Connection: close" and then releases the
    closed semaphore, as a server's idle timeout would.
    """

    def __init__(
        self, responder: Responder, delay: float = 0.0, keep_alive: bool = False, close_silently: bool = False
    ):
        self.responder = responder
        self.delay = delay
        self.requests: list[dict] = []
        self.max_concurrent = 0
        self.connections = 0
        self.closed = threading.Semaphore(0)
        self._active = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def setup(self):
                super().setup()
                with stub._lock:
                    stub.connections += 1

            def do_POST(self):
                with stub._lock:
                    stub._active += 1
                    stub.max_concurrent = max(stub.max_concurrent, stub._active)
                try:
                    if stub.delay:
                        time.sleep(stub.delay)
                    length = int(self.headers.get("Content-Length", 0))
                    raw = self.rfile.read(length)
                    body = json.loads(raw or b"{}")
                    with stub._lock:
                        stub.requests.append(
                            {
                                "path": self.path,
                                "body": body,
                                "raw": raw,
                                "authorization": self.headers.get("Authorization"),
                            }
                        )
                    status, payload = stub.responder(body)
                    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
                finally:
                    # Lowered before the response goes out: a client that has its
                    # response may send its next request at once.
                    with stub._lock:
                        stub._active -= 1
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    # The client stopped waiting, as a test of its timeout makes it do.
                    self.close_connection = True
                    return
                if close_silently:
                    self.connection.shutdown(socket.SHUT_RDWR)
                    self.close_connection = True
                    stub.closed.release()

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
