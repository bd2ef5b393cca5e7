"""Sweep service: durable jobs, an HTTP daemon and its client.

The serving layer over the experiment engine (see ``docs/service.md``):

* :mod:`repro.service.jobs` -- journalled job store with idempotent
  keys and crash recovery.
* :mod:`repro.service.scheduler` -- dedups submitted cells against the
  cache and in-flight work, runs each job through the parallel
  runner's process pool, fans progress out to subscribers.
* :mod:`repro.service.server` -- the stdlib asyncio HTTP daemon
  (``rampage-sim serve``).
* :mod:`repro.service.client` -- typed client with jittered-backoff
  retries (``rampage-sim submit | status | watch | fetch``).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobSpec, JobStore, job_key, plan_cells
from repro.service.scheduler import BackpressureError, SweepScheduler
from repro.service.server import ServiceThread, SweepService, serve

__all__ = [
    "BackpressureError",
    "Job",
    "JobSpec",
    "JobStore",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "SweepService",
    "SweepScheduler",
    "job_key",
    "plan_cells",
    "serve",
]
