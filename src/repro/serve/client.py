"""Minimal HTTP client for the planning service (urllib plus orjson).

Used by the serve test suite, the end-to-end benchmark
(``benchmarks/e2e``) and as a reference for external callers: every
method returns ``(status, payload)`` where the payload is the parsed JSON
body — including 4xx/5xx ``rtsp-error/1`` bodies, which are returned,
not raised, so callers can assert on them.
"""

from __future__ import annotations

import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

import orjson

from repro.io import instance_to_dict
from repro.model.instance import RtspInstance
from repro.serve.schemas import (
    BATCH_REQUEST_FORMAT,
    PLAN_REQUEST_FORMAT,
    REPAIR_REQUEST_FORMAT,
    VALIDATE_REQUEST_FORMAT,
    wire_json,
)

__all__ = ["ServeClient"]


class ServeClient:
    """Talk to one serve endpoint (``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Any] = None,
    ) -> Tuple[int, Any]:
        """One round trip; JSON bodies in, parsed JSON (or text) out."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = wire_json(payload)
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, self._decode(resp)
        except urllib.error.HTTPError as exc:
            return exc.code, self._decode(exc)

    @staticmethod
    def _decode(resp: Any) -> Any:
        raw = resp.read()
        content_type = resp.headers.get("Content-Type", "")
        if "json" in content_type:
            return orjson.loads(raw)
        return raw.decode("utf-8")

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def plan_raw(self, payload: Dict[str, Any]) -> Tuple[int, Any]:
        """POST an already-built plan (or batch) request payload."""
        return self.request("POST", "/v1/plan", payload)

    def plan(
        self,
        instance: Optional[RtspInstance] = None,
        pipeline: str = "GOLCF+H1+H2+OP1",
        seed: int = 0,
        mode: str = "sync",
        shards: Optional[int] = None,
        validate: Optional[str] = None,
        timeout_seconds: Optional[float] = None,
        delta: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Any]:
        """Build and POST one ``rtsp-plan-request/1``.

        Pass exactly one of ``instance`` (an in-memory
        :class:`RtspInstance`) or ``delta``. To reuse a pre-serialised
        request, send it with :meth:`plan_raw`.
        """
        payload: Dict[str, Any] = {
            "format": PLAN_REQUEST_FORMAT,
            "pipeline": pipeline,
            "seed": seed,
            "mode": mode,
        }
        if shards is not None:
            payload["shards"] = shards
        if validate is not None:
            payload["validate"] = validate
        if timeout_seconds is not None:
            payload["timeout_seconds"] = timeout_seconds
        if instance is not None:
            payload["instance"] = instance_to_dict(instance)
        if delta is not None:
            payload["delta"] = delta
        return self.plan_raw(payload)

    def plan_batch(self, requests: list) -> Tuple[int, Any]:
        """POST a ``rtsp-plan-batch-request/1`` of prebuilt entries."""
        return self.plan_raw(
            {"format": BATCH_REQUEST_FORMAT, "requests": requests}
        )

    def validate(
        self,
        instance: RtspInstance,
        schedule: Dict[str, Any],
        strict: bool = False,
    ) -> Tuple[int, Any]:
        return self.request(
            "POST",
            "/v1/validate",
            {
                "format": VALIDATE_REQUEST_FORMAT,
                "instance": instance_to_dict(instance),
                "schedule": schedule,
                "strict": strict,
            },
        )

    def repair(
        self,
        instance: RtspInstance,
        fault_plan: Dict[str, Any],
        pipeline: str = "GOLCF+H1+H2",
        seed: int = 0,
        validate: Optional[str] = "basic",
    ) -> Tuple[int, Any]:
        return self.request(
            "POST",
            "/v1/repair",
            {
                "format": REPAIR_REQUEST_FORMAT,
                "instance": instance_to_dict(instance),
                "fault_plan": fault_plan,
                "pipeline": pipeline,
                "seed": seed,
                "validate": validate,
            },
        )

    def job(self, job_id: str, since: int = 0) -> Tuple[int, Any]:
        suffix = f"?since={since}" if since else ""
        return self.request("GET", f"/v1/jobs/{job_id}{suffix}")

    def cancel(self, job_id: str) -> Tuple[int, Any]:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def healthz(self) -> Tuple[int, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> Tuple[int, str]:
        status, text = self.request("GET", "/metrics")
        return status, text

    def metrics_parsed(self) -> Dict[str, Any]:
        """The /metrics exposition parsed back into snapshot layout."""
        from repro.obs.export import parse_prometheus_text

        status, text = self.metrics()
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        return parse_prometheus_text(text)
