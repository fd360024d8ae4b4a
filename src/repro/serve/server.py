"""Stdlib HTTP transport for :class:`~repro.serve.service.PlanningService`.

A :class:`ThreadingHTTPServer` (one daemon thread per connection)
routing to the transport-independent service. Bodies are parsed with
``orjson.loads`` and written with :func:`~repro.serve.schemas.wire_json`:
a body that is not UTF-8, or that holds ``NaN``, ``Infinity`` or a
number that overflows a double, is a ``400 bad-json``. ``/v1/plan``
goes through :meth:`PlanningService.plan_body`, so a sync plan-cache
hit is written as the cache's stored bytes. Before a ``/v1/plan`` body
is parsed, its sha256 is looked up with
:meth:`PlanningService.plan_digest_hit`: the same bytes as a sync
request answered 200 before get that plan's hit without being parsed.

Routes::

    POST   /v1/plan         rtsp-plan-request/1 | rtsp-plan-batch-request/1
    POST   /v1/validate     rtsp-validate-request/1
    POST   /v1/repair       rtsp-repair-request/1
    GET    /v1/jobs/{id}    rtsp-job/1 (?since=N for incremental events)
    DELETE /v1/jobs/{id}    request cancellation
    GET    /healthz         rtsp-health/1
    GET    /metrics         Prometheus text exposition (repro.obs.export)

Every non-2xx body is an ``rtsp-error/1`` JSON object. Connection
handling is HTTP/1.1 with explicit ``Content-Length`` on every
response, so keep-alive clients (the bench harness's closed-loop
workers) can pipeline requests over one socket.
"""

from __future__ import annotations

import hashlib
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import orjson

from repro.serve.schemas import error_payload, wire_json
from repro.serve.service import PlanningService, ServeConfig

__all__ = ["PlanningHTTPServer", "ServerHandle", "make_server", "run_server"]


class PlanningHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a :class:`PlanningService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: PlanningService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "rtsp-serve/1"
    protocol_version = "HTTP/1.1"

    # `self.server` is always a PlanningHTTPServer here.
    @property
    def service(self) -> PlanningService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging; /metrics is the log."""

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_body(status, wire_json(payload))

    def _send_body(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self._send_json(status, error_payload(status, code, message))

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after an error response has
        already been sent."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            self._send_error_json(411, "length-required",
                                  "Content-Length header is required")
            return None
        try:
            length = int(length_header)
        except ValueError:
            self._send_error_json(400, "bad-request",
                                  f"bad Content-Length {length_header!r}")
            return None
        if length < 0 or length > self.service.config.max_body_bytes:
            self._send_error_json(
                413,
                "payload-too-large",
                f"body of {length} bytes exceeds the "
                f"{self.service.config.max_body_bytes}-byte limit",
            )
            return None
        return self.rfile.read(length)

    def _parse_json(self, raw: bytes) -> Optional[Any]:
        """``raw`` as parsed JSON, or ``None`` after an error response
        has already been sent."""
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError as exc:
            self._send_error_json(400, "bad-json",
                                  f"request body is not valid JSON: {exc}")
            return None

    def _job_route(self, path: str) -> Optional[str]:
        """The job id for ``/v1/jobs/{id}`` paths, else ``None``."""
        prefix = "/v1/jobs/"
        if path.startswith(prefix):
            job_id = path[len(prefix):]
            if job_id and "/" not in job_id:
                return job_id
        return None

    # ------------------------------------------------------------------
    # methods
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = urlsplit(self.path)
        path = parts.path
        if path == "/healthz":
            status, payload = self.service.healthz()
            self._send_json(status, payload)
            return
        if path == "/metrics":
            text = self.service.metrics_text()
            self._send_text(200, text, "text/plain; version=0.0.4")
            return
        job_id = self._job_route(path)
        if job_id is not None:
            since = 0
            raw_since = parse_qs(parts.query).get("since")
            if raw_since:
                try:
                    since = int(raw_since[0])
                except ValueError:
                    self._send_error_json(
                        400, "bad-request",
                        f"since must be an integer, got {raw_since[0]!r}",
                    )
                    return
            status, payload = self.service.job(job_id, since=since)
            self._send_json(status, payload)
            return
        self._send_error_json(404, "not-found", f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = urlsplit(self.path).path
        handlers = {
            "/v1/validate": self.service.validate,
            "/v1/repair": self.service.repair,
        }
        handler = handlers.get(path)
        if handler is None and path != "/v1/plan":
            if path in ("/healthz", "/metrics") or self._job_route(path):
                self._send_error_json(405, "method-not-allowed",
                                      f"POST not allowed for {path}")
            else:
                self._send_error_json(404, "not-found",
                                      f"no route for POST {path}")
            return
        raw = self._read_body()
        if raw is None:
            return
        digest = None
        if path == "/v1/plan":
            started = time.perf_counter()
            digest = hashlib.sha256(raw).digest()
            hit = self.service.plan_digest_hit(digest, started)
            if hit is not None:
                self._send_body(*hit)
                return
        data = self._parse_json(raw)
        del raw  # not held while the request is planned
        if data is None:
            return
        if path == "/v1/plan":
            # A sync plan-cache hit is written as its stored bytes.
            self._send_body(*self.service.plan_body(data, digest))
        elif handler is not None:
            self._send_json(*handler(data))

    def do_DELETE(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = urlsplit(self.path).path
        job_id = self._job_route(path)
        if job_id is None:
            self._send_error_json(404, "not-found",
                                  f"no route for DELETE {path}")
            return
        status, payload = self.service.cancel_job(job_id)
        self._send_json(status, payload)


class ServerHandle:
    """A running server plus the thread driving ``serve_forever``.

    Use as a context manager (the bench harness and the tests do)::

        with ServerHandle.start(service) as handle:
            client = ServeClient(handle.url)
    """

    def __init__(self, server: PlanningHTTPServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @classmethod
    def start(
        cls,
        service: Optional[PlanningService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServeConfig] = None,
    ) -> "ServerHandle":
        """Boot a server on ``host:port`` (0 picks a free port)."""
        if service is None:
            service = PlanningService(config)
        server = make_server(service, host=host, port=port)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="rtsp-serve",
            daemon=True,
        )
        thread.start()
        return cls(server, thread)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def service(self) -> PlanningService:
        return self.server.service

    def stop(self) -> None:
        """Stop serving, join the thread, shut the service down."""
        self.server.shutdown()
        self.thread.join(timeout=5.0)
        self.server.server_close()
        self.server.service.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def make_server(
    service: PlanningService, host: str = "127.0.0.1", port: int = 0
) -> PlanningHTTPServer:
    """Bind (but do not run) a planning server."""
    return PlanningHTTPServer((host, port), service)


def run_server(
    host: str = "127.0.0.1",
    port: int = 8323,
    config: Optional[ServeConfig] = None,
    quiet: bool = False,
) -> int:
    """Blocking entry point used by ``rtsp-tool serve``."""
    service = PlanningService(config)
    server = make_server(service, host=host, port=port)
    bound_host, bound_port = server.server_address[:2]
    if not quiet:
        print(f"rtsp-serve listening on http://{bound_host}:{bound_port}")
        print("endpoints: POST /v1/plan /v1/validate /v1/repair | "
              "GET /v1/jobs/{id} /healthz /metrics")
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        if not quiet:
            print("shutting down")
    finally:
        server.server_close()
        service.close()
    return 0
