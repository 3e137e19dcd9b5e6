"""Simulation-as-a-service: the asyncio experiment server.

``repro.serve`` turns the job executor (:mod:`repro.serve.scheduler`,
which :mod:`repro.analysis.parallel` also runs batches through) and the
checksummed result cache (:mod:`repro.analysis.runner`) into a
long-running service:

* :mod:`repro.serve.protocol` — the NDJSON wire protocol: experiment-matrix
  requests, typed error codes, and the normalization that maps a request
  onto exactly the cache keys ``runner.py`` would use;
* :mod:`repro.serve.scheduler` — the async scheduler: one priority
  queue drained by restartable worker slots, per-request priority and
  cancellation, cross-client single-flight, retry-with-backoff, per-job
  timeouts, and worker-crash quarantine;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the asyncio
  front door (``repro serve``) and the matching async client;
* :mod:`repro.serve.eviction` / :mod:`repro.serve.snapshot` — cache
  lifecycle for service life: byte/entry-bounded LRU eviction and the
  warm-start index snapshot.

See ``docs/SERVICE.md`` for the protocol and failure semantics.
"""

from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.protocol import PROTOCOL_VERSION, ServeError
from repro.serve.scheduler import Scheduler
from repro.serve.server import ExperimentServer

__all__ = [
    "PROTOCOL_VERSION",
    "ExperimentServer",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "ServeRequestError",
]
