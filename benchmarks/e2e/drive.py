"""Boot the planning service as a child process and drive it closed-loop.

Each round boots a fresh ``python -m repro.tools serve`` (default flags
apart from ``--port 0``), so the plan cache starts cold, sends the
stream's warm-up requests, then lets every client send its requests one
after another, each waiting for the previous reply. Only the requests
after warm-up are measured. Every reply is checked for its status,
response schema and the cache-hit flag the workload expects. Warm-up
and first-round plans are replayed against the instances the requests
described; cache replays must repeat the warm-up plan byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.io import schedule_from_dict
from repro.serve.client import ServeClient
from repro.serve.schemas import (
    PLAN_RESPONSE_FORMAT,
    SchemaError,
    canonical_json,
    check_response_format,
)

from inputs import Request, Workload, nearest_source_cost

#: Seconds a single request may take before it counts as a transport error.
REQUEST_TIMEOUT = 60.0
#: Seconds the server may take to start listening.
BOOT_TIMEOUT = 30.0
_BANNER = re.compile(r"listening on (http://\S+)")


class BenchError(RuntimeError):
    """The run cannot produce a measurement (server or warm-up failed)."""


def server_env(root: str) -> Dict[str, str]:
    """The child's environment, with the checkout's ``src`` importable."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One ``repro.tools serve`` child, stopped with SIGINT and reaped."""

    def __init__(self, root: str) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serve", "--port", "0"],
            cwd=root,
            env=server_env(root),
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(BOOT_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            banner = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = _BANNER.search(banner)
        if match is None:
            self.stop()
            raise BenchError(
                f"server exited with {self.proc.returncode} before listening"
            )
        self.url = match.group(1)
        self.client = ServeClient(self.url, timeout=REQUEST_TIMEOUT)

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def plan_cache_counts(self) -> Tuple[float, float]:
        """``(hits, misses)`` of the server's plan cache, from /metrics."""
        counters = self.client.metrics_parsed()["counters"]

        def read(suffix: str) -> float:
            return sum(v for k, v in counters.items() if k.endswith(suffix))

        return read("serve_cache_plan_hits"), read("serve_cache_plan_misses")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def response_error(
    status: Optional[int], payload: Any, request: Request, expect_hit: bool
) -> Optional[str]:
    """Why a reply fails the workload's contract, or ``None``."""
    if status != 200:
        detail = payload.get("error") if isinstance(payload, dict) else payload
        return f"status {status}: {detail}"
    try:
        check_response_format(payload, PLAN_RESPONSE_FORMAT)
    except SchemaError as exc:
        return f"schema: {exc}"
    if payload["cache_hit"] is not expect_hit:
        return f"cache_hit is {payload['cache_hit']}, expected {expect_hit}"
    sent = request.payload
    if payload["pipeline"] != sent["pipeline"] or payload["seed"] != sent["seed"]:
        return "pipeline or seed echoed back differs from the request"
    return None


def schedule_error(payload: Dict[str, Any], request: Request) -> Optional[str]:
    """Replay the served schedule; its totals must match the reply's."""
    schedule = schedule_from_dict(payload["schedule"])
    report = schedule.validate(request.instance)
    if not report.ok:
        return f"served schedule is invalid: {report.message}"
    if (
        len(schedule) != payload["num_actions"]
        or report.dummy_transfers != payload["dummy_transfers"]
        or not math.isclose(report.cost, payload["cost"], rel_tol=1e-12)
    ):
        return "reply's cost, dummies or action count disagree with a replay"
    return None


Reply = Tuple[Request, Optional[int], Any, float]


def _client_loop(url: str, requests: List[Request], out: List[Reply]) -> None:
    client = ServeClient(url, timeout=REQUEST_TIMEOUT)
    for request in requests:
        started = time.perf_counter()
        try:
            status, payload = client.plan_raw(request.payload)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            status, payload = None, f"transport: {exc!r}"
        out.append((request, status, payload, time.perf_counter() - started))


@dataclass
class Round:
    """What one boot-to-shutdown round observed."""

    setup_s: float
    window_s: float
    replies: List[List[Reply]]
    warmup: List[Dict[str, Any]]
    cache_hits: float
    cache_misses: float
    rss_mb: float


def run_round(
    root: str, workload: Workload, stream: Any, requests: List[List[Request]]
) -> Round:
    """Boot a server, warm it up, drive every client list, shut it down."""
    server = ServerProcess(root)
    try:
        status, _ = server.client.healthz()
        if status != 200:
            raise BenchError(f"/healthz returned {status}")
        sent = [server.client.plan_raw(r.payload) for r in stream.warmup]
        setup_s = time.perf_counter() - server.started
        warmup = []
        for request, (status, payload) in zip(stream.warmup, sent):
            problem = response_error(status, payload, request, expect_hit=False)
            if problem is None:
                problem = schedule_error(payload, request)
            if problem is not None:
                raise BenchError(f"warm-up request failed: {problem}")
            warmup.append(payload)
        hits0, misses0 = server.plan_cache_counts()
        replies: List[List[Reply]] = [[] for _ in requests]
        threads = [
            threading.Thread(target=_client_loop, args=(server.url, reqs, out))
            for reqs, out in zip(requests, replies)
        ]
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window_s = time.perf_counter() - started
        finally:
            gc.enable()
        hits1, misses1 = server.plan_cache_counts()
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return Round(
        setup_s, window_s, replies, warmup, hits1 - hits0, misses1 - misses0, rss_mb
    )


@dataclass
class Tally:
    """End-to-end observations of a workload's rounds."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    overheads: List[float] = field(default_factory=list)
    cost_ratios: List[float] = field(default_factory=list)
    transfers: int = 0
    dummies: int = 0
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    plans: Any = field(default_factory=hashlib.sha256)
    #: Per round: set-up and window seconds, peak RSS, latencies (ms).
    rounds: List[Dict[str, Any]] = field(default_factory=list)

    def add_round(self, workload: Workload, stream: Any, rnd: Round) -> None:
        first = not self.rounds
        if first:
            # Every distinct plan the server made: warm-up plans once,
            # then each measured cold plan in send order.
            for payload in rnd.warmup:
                self.plans.update(canonical_json(payload["schedule"]).encode())
        self.cache_hits += rnd.cache_hits
        self.cache_misses += rnd.cache_misses
        primed = {id(req): reply for req, reply in zip(stream.warmup, rnd.warmup)}
        latencies = []
        for client in rnd.replies:
            for request, status, payload, latency in client:
                self.attempted += 1
                problem = response_error(status, payload, request, workload.cache_hit)
                if problem is None and workload.cache_hit:
                    # Warm-up replies were replayed against their instances.
                    if payload["schedule"] != primed[id(request)]["schedule"]:
                        problem = "replayed schedule differs from the planned one"
                elif problem is None and first:
                    # Replaying every cold reply would double the run; the
                    # first round's replies stand for the rest.
                    problem = schedule_error(payload, request)
                if problem is not None:
                    self.failures.append(problem)
                    continue
                latencies.append(latency * 1e3)
                self.overheads.append(latency - payload["elapsed_seconds"])
                self.cost_ratios.append(
                    payload["cost"] / nearest_source_cost(request.instance)
                )
                self.dummies += payload["dummy_transfers"]
                self.transfers += sum(
                    1 for row in payload["schedule"]["actions"] if row[0] == "T"
                )
                if not workload.cache_hit:
                    self.plans.update(canonical_json(payload["schedule"]).encode())
        self.rounds.append(
            {
                "setup_s": rnd.setup_s,
                "window_s": rnd.window_s,
                "rss_mb": rnd.rss_mb,
                "latencies_ms": latencies,
            }
        )

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def latencies_ms(self) -> List[float]:
        """Every successful request's latency, pooled over rounds."""
        return [ms for rnd in self.rounds for ms in rnd["latencies_ms"]]


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, linearly interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally: Tally) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics, in BENCHMARK.json order."""
    rounds = tally.rounds
    rates = [len(r["latencies_ms"]) / r["window_s"] for r in rounds]
    return {
        "plans_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "latency_p50_ms": {"value": percentile(tally.latencies_ms, 50), "unit": "ms"},
        "setup_s": {
            "value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"
        },
        "server_rss_mb": {
            "value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MiB"
        },
        "plan_cost_ratio": {
            "value": statistics.fmean(tally.cost_ratios), "unit": "ratio"
        },
    }
