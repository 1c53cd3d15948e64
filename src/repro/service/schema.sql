-- SQLite schema of the routing service repository (docs/SERVICE.md).
--
-- Two tables:
--
--   results: the canonical content-addressed store.  One row per
--            *distinct* configuration ever executed, keyed by the
--            stable_hash fingerprint of everything that determines the
--            output.
--   jobs:    the submission history.  One row per *submission*, so
--            deduplicated submissions of the same configuration each
--            keep their own audit row (status, timestamps, which
--            execution they shared via dedup_of).

CREATE TABLE IF NOT EXISTS results (
    fingerprint    TEXT PRIMARY KEY,   -- stable_hash of the job fingerprint
    kind           TEXT NOT NULL,      -- route | mp | sm | experiment
    config         TEXT NOT NULL,      -- canonical JSON of the job params
    payload        TEXT NOT NULL,      -- JSON result payload
    telemetry      TEXT NOT NULL DEFAULT '{}',  -- counters/spans snapshot
    schema_version INTEGER NOT NULL,   -- repository payload format
    wall_s         REAL,               -- execution wall time
    created_unix   REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS jobs (
    job_id         TEXT PRIMARY KEY,
    fingerprint    TEXT NOT NULL,
    kind           TEXT NOT NULL,
    config         TEXT NOT NULL,
    status         TEXT NOT NULL,      -- queued | running | done | failed
    source         TEXT NOT NULL DEFAULT 'executed',
                                       -- executed | repository | dedup
    error          TEXT,               -- final error of a failed job
    dedup_of       TEXT,               -- job_id whose execution this shares
    submitted_unix REAL NOT NULL,
    started_unix   REAL,
    finished_unix  REAL
);

CREATE INDEX IF NOT EXISTS idx_jobs_fingerprint ON jobs (fingerprint);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs (status);
CREATE INDEX IF NOT EXISTS idx_results_kind ON results (kind);
