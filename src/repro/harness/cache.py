"""Content-addressed result cache for the experiment harness.

Every cacheable unit of work — a whole experiment, or one simulation row
inside a sweep — is identified by a *fingerprint*: a plain dict of every
input that determines its output (experiment id, circuit parameters,
schedule fields, processor count, iteration count, cost-model fields,
and a digest of the package source).  :func:`stable_hash` canonicalises
the fingerprint to JSON and hashes it, so the same configuration always
maps to the same cache entry and *any* single field change maps to a
different one.

Entries are rows of one table in ``<directory>/results.sqlite``, keyed
by namespace and fingerprint:

- ``experiment`` — rendered :class:`ExperimentResult` payloads (rows,
  checks, notes) as JSON text, readable with ``sqlite3``;
- ``sim`` — pickled :class:`~repro.parallel.results.ParallelRunResult`
  objects for the per-row simulation cache (they carry numpy arrays and
  routed paths, which JSON cannot round-trip).

The file is opened by :func:`open_sqlite`, the same code that opens the
service's repository: WAL mode, a busy timeout for writers racing from
other processes, and a corrupt file moved aside.  The cache commits under
``PRAGMA synchronous=FULL``, so a committed entry survives power loss; a
truncated or undecodable value is treated as a miss and overwritten on
the next run.  Hits and misses are counted in the global telemetry
(``cache.experiment.hits`` etc.) so ``BENCH_harness.json`` can report
them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import re
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from .. import __version__
from ..errors import ExperimentError
from ..obs import telemetry as obs
from ..parallel.timing import DEFAULT_COST_MODEL, CostModel

__all__ = [
    "ResultCache",
    "stable_hash",
    "jsonify",
    "open_sqlite",
    "code_fingerprint",
    "circuit_fingerprint",
    "cost_model_fingerprint",
]

PathLike = Union[str, Path]

#: Bump to invalidate every existing cache entry on a format change.
#: 2: type-tagged non-string dict keys in :func:`jsonify` (an ``int`` key
#: and its string spelling used to canonicalise identically, so two
#: different fingerprints could share a cache key).
CACHE_SCHEMA = 2


# ----------------------------------------------------------------------
# canonicalisation and hashing
# ----------------------------------------------------------------------
#: String keys that *look* like a type tag must themselves be tagged,
#: otherwise the string key ``"int:1"`` would collide with the int key 1.
#: A tag is ``<type name>:<repr>`` and no key's repr starts with a space,
#: so prose such as the check name ``"bnrE: locality ..."`` cannot collide
#: and passes through — payloads get canonicalised more than once on their
#: way into a store, and a ``str:`` prefix per pass renamed the checks.
_TAGGED_KEY = re.compile(r"^\w+:(?!\s)")


def _jsonify_key(key: Any) -> str:
    """Canonical string form of a dict key, collision-free across types.

    Non-string keys are type-tagged (``1`` -> ``"int:1"``, ``True`` ->
    ``"bool:True"``, ``(2, 10)`` -> ``"tuple:(2, 10)"``) so distinct keys
    that share a spelling — ``{1: x}`` vs ``{"1": x}``, ``{True: x}`` vs
    ``{1: x}`` — canonicalise differently instead of silently merging
    into one cache key.  Plain string keys pass through untouched unless
    they match the tag shape themselves (:data:`_TAGGED_KEY`), in which
    case they get an explicit ``str:`` tag.
    """
    if isinstance(key, str):
        return f"str:{key}" if _TAGGED_KEY.match(key) else key
    if isinstance(key, np.generic):
        # numpy scalar reprs differ across numpy versions; the unwrapped
        # Python value is the stable spelling.
        return f"{type(key).__name__}:{key.item()!r}"
    return f"{type(key).__name__}:{key!r}"


def jsonify(obj: Any) -> Any:
    """Recursively convert *obj* into JSON-serialisable plain data.

    Handles numpy scalars/arrays, tuples, sets, enums, dataclasses, and
    dicts with non-string keys (type-tagged, see :func:`_jsonify_key`) —
    everything that appears in experiment rows, extras, and configuration
    fingerprints.
    """
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {_jsonify_key(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(v) for v in obj)
    return repr(obj)


def stable_hash(fingerprint: Dict[str, Any]) -> str:
    """The cache key of a fingerprint dict: sha256 of its canonical JSON."""
    canonical = json.dumps(
        jsonify(fingerprint), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# fingerprint ingredients
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file plus the package version.

    Any code change invalidates cached results — simulation outputs
    depend on the whole simulator stack, not just the harness.
    """
    digest = hashlib.sha256()
    digest.update(__version__.encode())
    root = Path(__file__).resolve().parent.parent
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def circuit_fingerprint(circuit) -> str:
    """Digest of a circuit's full netlist (dimensions, wires, pin coords)."""
    digest = hashlib.sha256()
    digest.update(
        f"{circuit.name}|{circuit.n_channels}|{circuit.n_grids}|"
        f"{circuit.n_wires}".encode()
    )
    pins = [f"{x},{c};" for x, c in zip(circuit.pin_x.tolist(), circuit.pin_channel.tolist())]
    ptr = circuit.pin_ptr.tolist()
    for name, lo, hi in zip(circuit.wire_names(), ptr, ptr[1:]):
        digest.update((name + "".join(pins[lo:hi])).encode())
    return digest.hexdigest()


def cost_model_fingerprint(cost_model: CostModel = DEFAULT_COST_MODEL) -> Dict[str, float]:
    """The cost-model fields that shape every simulated time."""
    return asdict(cost_model)


# ----------------------------------------------------------------------
# one SQLite file (shared with service.repository)
# ----------------------------------------------------------------------
def open_sqlite(
    path: PathLike, schema: str, synchronous: str, recovered_counter: str,
    timeout_s: float = 30.0,
) -> sqlite3.Connection:
    """Connect to the SQLite file *path* (created, with its directory, on
    first use) in WAL mode with a busy timeout, and apply *schema*.

    A file that is not a database (garbage, truncated) is moved aside to
    ``<name>.corrupt.<n>``, recreated empty and counted in
    *recovered_counter*: a store degrades to a miss, not a crash loop.  A
    busy or unopenable file is not corrupt: its ``OperationalError``
    surfaces and the file is left alone.
    """
    path = str(path)
    if path != ":memory:":
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + timeout_s
    aside = None  # the corrupt file's new name, once it has been moved
    while True:
        try:
            conn = sqlite3.connect(path, timeout=timeout_s, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA synchronous={synchronous}")
            conn.executescript(schema)
            return conn
        except sqlite3.OperationalError as exc:
            # Processes creating one file at once can deadlock on the
            # switch to WAL, and SQLite then answers "locked" without
            # waiting: the busy timeout is served here instead.
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
            time.sleep(0.01)
        except sqlite3.DatabaseError:
            if path == ":memory:" or aside is not None:
                raise
            target = Path(path)
            for n in itertools.count():
                aside = target.with_name(f"{target.name}.corrupt.{n}")
                if not aside.exists():
                    break
            target.replace(aside)
            obs.incr(recovered_counter)


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
#: One row per entry: a pickle (``sim``) or JSON text (``experiment``).
#: A 256 KiB page cache: an entry is read once, and the OS caches the file.
_CACHE_SQL = """
PRAGMA cache_size = -256;
CREATE TABLE IF NOT EXISTS entries (
    namespace TEXT NOT NULL,
    key       TEXT NOT NULL,
    value     BLOB NOT NULL,
    PRIMARY KEY (namespace, key)
);
"""

#: What a truncated, garbage or unreachable entry raises on its way in.
_UNREADABLE = (sqlite3.DatabaseError, ValueError, EOFError, pickle.UnpicklingError,
               AttributeError, ImportError, IndexError, TypeError)


def _experiment_payload(value: Any) -> Optional[dict]:
    payload = json.loads(value)
    current = isinstance(payload, dict) and payload.get("schema") == CACHE_SCHEMA
    return payload if current else None


def _sim_result(value: Any) -> Optional[object]:
    schema, obj = pickle.loads(value)
    return obj if schema == CACHE_SCHEMA else None


#: This process's one open cache connection, by absolute file path;
#: opening another file closes it.  The lock serialises threads.
_OPEN: Dict[str, sqlite3.Connection] = {}
_LOCK = threading.Lock()
#: Connections a forked child inherited: SQLite forbids using them there,
#: and closing them too, so the child keeps them and opens its own.
_INHERITED: List[sqlite3.Connection] = []


def _after_fork_in_child() -> None:
    global _LOCK
    _INHERITED.extend(_OPEN.values())
    _OPEN.clear()
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


class ResultCache:
    """Content-addressed cache in ``directory/results.sqlite``, created on
    first use (see module docstring).

    The cache holds only its directory, so it pickles into pool tasks;
    its connection is the process's (:data:`_OPEN`).
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)

    @property
    def path(self) -> Path:
        """The SQLite file holding every entry."""
        return self.directory / "results.sqlite"

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """This process's connection to the cache file, opened on first use
        (``synchronous=FULL``: a committed entry survives power loss)."""
        path = os.path.abspath(self.path)
        with _LOCK:
            if path not in _OPEN:
                for conn in _OPEN.values():
                    conn.close()
                _OPEN.clear()
                _OPEN[path] = open_sqlite(path, _CACHE_SQL, "FULL", "cache.recovered")
            yield _OPEN[path]

    def _get(self, namespace: str, key: str, decode: Callable[[Any], Any]) -> Any:
        """The decoded entry, or ``None`` when absent, unreadable or of
        another schema; counted as a hit or a miss."""
        entry = None
        try:
            with self._connect() as conn:
                for (value,) in conn.execute(
                    "SELECT value FROM entries WHERE namespace = ? AND key = ?",
                    (namespace, key),
                ):
                    entry = decode(value)
        except _UNREADABLE:
            pass
        obs.incr(f"cache.{namespace}.{'misses' if entry is None else 'hits'}")
        return entry

    def _put(self, namespace: str, key: str, value: Any) -> None:
        with self._connect() as conn, conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries (namespace, key, value) VALUES (?, ?, ?)",
                (namespace, key, value),
            )

    def get_experiment(self, key: str) -> Optional[dict]:
        """Cached experiment payload, or ``None`` on miss/corruption."""
        return self._get("experiment", key, _experiment_payload)

    def put_experiment(self, key: str, payload: dict) -> None:
        """Store an experiment payload (adds the schema tag).

        ``"schema"`` is reserved for the cache's own format tag: a caller
        payload carrying it would silently override the tag (its entry
        could then never be invalidated by a schema bump, or would poison
        every read), so it is rejected loudly instead.
        """
        if "schema" in payload:
            raise ExperimentError(
                "experiment payloads may not carry the reserved 'schema' "
                "key (it is the cache's format tag)"
            )
        self._put("experiment", key, json.dumps({"schema": CACHE_SCHEMA, **payload}))

    def get_sim(self, key: str) -> Optional[object]:
        """Cached simulation result, or ``None`` on miss/corruption."""
        return self._get("sim", key, _sim_result)

    def put_sim(self, key: str, obj: object) -> None:
        """Store a simulation result."""
        self._put("sim", key, pickle.dumps((CACHE_SCHEMA, obj), pickle.HIGHEST_PROTOCOL))
