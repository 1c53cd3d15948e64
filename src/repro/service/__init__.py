"""Routing service: job-queue daemon + SQLite result repository.

The architecture step from a one-shot CLI to concurrent many-user
traffic: ``locusroute serve`` runs a daemon that accepts routing /
simulation / experiment jobs over JSON/HTTP, deduplicates identical
work by content-addressed fingerprint, executes on the harness's
salvage process pool, and persists every run into a queryable SQLite
repository that supersedes the file cache as the canonical store
(executions still run through the file cache).  See docs/SERVICE.md.
"""

from .client import ServiceClient
from .daemon import DEFAULT_PORT, RoutingService, ServiceServer, serve
from .jobs import JOB_KINDS, JobSpec, execute_job, job_fingerprint, job_key
from .repository import REPOSITORY_SCHEMA, Repository

__all__ = [
    "DEFAULT_PORT",
    "JOB_KINDS",
    "JobSpec",
    "REPOSITORY_SCHEMA",
    "Repository",
    "RoutingService",
    "ServiceClient",
    "ServiceServer",
    "execute_job",
    "job_fingerprint",
    "job_key",
    "serve",
]
