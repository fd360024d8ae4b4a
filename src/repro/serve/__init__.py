"""Planning-as-a-service: the RTSP planner over HTTP (``repro.serve``).

The library solves one X_old → X_new step in-process; a production
deployment re-plans continuously, concurrently and over the wire. This
package is that serving layer, built on the standard library's HTTP
modules, with request and response bodies parsed and written by orjson:

* :mod:`repro.serve.schemas` — versioned JSON request/response formats
  (``rtsp-plan-request/1`` ... ``rtsp-error/1``), strictly parsed;
* :mod:`repro.serve.jobs` — the async job queue: bounded worker
  threads, per-job timeout, cooperative cancellation, per-job
  progress events (``rtsp-trace/2`` event records);
* :mod:`repro.serve.cache` — topology-hash keyed cost-matrix reuse
  (placement deltas re-plan without re-uploading the ``O(M^2)``
  matrix; large matrices spill via
  :class:`~repro.shard.mmapcost.CostMatrixStore`) and a plan-response
  LRU that replays deterministic results byte-identically;
* :mod:`repro.serve.service` — the endpoints as transport-free
  methods, wired to :mod:`repro.core` (plan), :mod:`repro.exact`
  (validate) and :mod:`repro.robust` (repair);
* :mod:`repro.serve.server` — the stdlib ``ThreadingHTTPServer``
  transport (``rtsp-tool serve``);
* :mod:`repro.serve.client` — a urllib client used by the tests and
  the end-to-end benchmark (``benchmarks/e2e``).

Served schedules are byte-identical to the in-process library path for
the same ``(instance, pipeline, seed)`` — see ``tests/serve/``.
"""

from repro.serve.cache import (
    PlanCache,
    TopologyStore,
    instance_fingerprint,
    topology_hash,
)
from repro.serve.client import ServeClient
from repro.serve.jobs import (
    Job,
    JobCancelled,
    JobContext,
    JobNotFound,
    JobQueue,
    JobTimeout,
    QueueFull,
)
from repro.serve.schemas import (
    PLAN_REQUEST_FORMAT,
    PLAN_RESPONSE_FORMAT,
    PlanRequest,
    SchemaError,
    canonical_json,
    check_response_format,
    plan_request_from_dict,
)
from repro.serve.server import (
    PlanningHTTPServer,
    ServerHandle,
    make_server,
    run_server,
)
from repro.serve.service import (
    PlanningService,
    ServeConfig,
    UnknownTopologyError,
)

__all__ = [
    # cache
    "PlanCache",
    "TopologyStore",
    "instance_fingerprint",
    "topology_hash",
    # jobs
    "Job",
    "JobContext",
    "JobQueue",
    "JobCancelled",
    "JobTimeout",
    "JobNotFound",
    "QueueFull",
    # schemas
    "PLAN_REQUEST_FORMAT",
    "PLAN_RESPONSE_FORMAT",
    "PlanRequest",
    "SchemaError",
    "canonical_json",
    "check_response_format",
    "plan_request_from_dict",
    # service + transport
    "PlanningService",
    "ServeConfig",
    "UnknownTopologyError",
    "PlanningHTTPServer",
    "ServerHandle",
    "make_server",
    "run_server",
    "ServeClient",
]
