"""Content-addressed result cache for the experiment harness.

Every cacheable unit of work — a whole experiment, or one simulation row
inside a sweep — is identified by a *fingerprint*: a plain dict of every
input that determines its output (experiment id, circuit parameters,
schedule fields, processor count, iteration count, cost-model fields,
and a digest of the package source).  :func:`stable_hash` canonicalises
the fingerprint to JSON and hashes it, so the same configuration always
maps to the same cache file and *any* single field change maps to a
different one.

Two storage namespaces share one directory:

- ``experiments/<key>.json`` — rendered :class:`ExperimentResult`
  payloads (rows, checks, notes), human-inspectable JSON;
- ``sims/<key>.pkl`` — pickled
  :class:`~repro.parallel.results.ParallelRunResult` objects for the
  per-row simulation cache (they carry numpy arrays and routed paths,
  which JSON cannot round-trip).

All writes are atomic *and durable* (tmp file + fsync + ``os.replace``
in the same directory, then a directory fsync), so a reader can never
observe a half-written entry and a committed entry survives power loss;
a corrupted or truncated entry is treated as a miss and overwritten on
the next run.  Hits and misses are counted in the global telemetry
(``cache.experiment.hits`` etc.) so ``BENCH_harness.json`` can report
them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
from dataclasses import asdict, is_dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from .. import __version__
from ..errors import ExperimentError
from ..obs import telemetry as obs
from ..parallel.timing import DEFAULT_COST_MODEL, CostModel

__all__ = [
    "ResultCache",
    "stable_hash",
    "jsonify",
    "atomic_write_text",
    "atomic_write_bytes",
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
# atomic writes (shared with runner.save_result)
# ----------------------------------------------------------------------
def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: platforms/filesystems that cannot open or fsync a
    directory (e.g. Windows) keep the rename's atomicity and lose only
    the durability guarantee, exactly like the pre-fsync behaviour.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write *data* to *path* atomically and durably.

    tmp file + fsync + rename + directory fsync: the rename makes the
    write atomic for concurrent readers, the file fsync makes the *data*
    durable before the name points at it, and the directory fsync makes
    the *name* durable — without it the commit-log entries and cache
    files "written atomically" could still vanish wholesale on power
    loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Write *text* (UTF-8) to *path* atomically."""
    return atomic_write_bytes(path, text.encode("utf-8"))


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed cache over one directory (see module docstring).

    Parameters
    ----------
    directory:
        Cache root; created lazily on the first write.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)

    # -- paths ---------------------------------------------------------
    def experiment_path(self, key: str) -> Path:
        """Cache file for an experiment-level JSON payload."""
        return self.directory / "experiments" / f"{key}.json"

    def sim_path(self, key: str) -> Path:
        """Cache file for a pickled simulation result."""
        return self.directory / "sims" / f"{key}.pkl"

    # -- experiment-level (JSON) ---------------------------------------
    def get_experiment(self, key: str) -> Optional[dict]:
        """Cached experiment payload, or ``None`` on miss/corruption."""
        path = self.experiment_path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            obs.incr("cache.experiment.misses")
            return None
        if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
            obs.incr("cache.experiment.misses")
            return None
        obs.incr("cache.experiment.hits")
        return payload

    def put_experiment(self, key: str, payload: dict) -> Path:
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
        payload = {"schema": CACHE_SCHEMA, **payload}
        return atomic_write_text(
            self.experiment_path(key), json.dumps(payload, indent=1)
        )

    # -- simulation-level (pickle) -------------------------------------
    def get_sim(self, key: str) -> Optional[object]:
        """Cached simulation result, or ``None`` on miss/corruption."""
        path = self.sim_path(key)
        try:
            with path.open("rb") as handle:
                schema, obj = pickle.load(handle)
        except (OSError, ValueError, EOFError, pickle.UnpicklingError,
                AttributeError, ImportError, IndexError, TypeError):
            obs.incr("cache.sim.misses")
            return None
        if schema != CACHE_SCHEMA:
            obs.incr("cache.sim.misses")
            return None
        obs.incr("cache.sim.hits")
        return obj

    def put_sim(self, key: str, obj: object) -> Path:
        """Store a simulation result."""
        data = pickle.dumps((CACHE_SCHEMA, obj), protocol=pickle.HIGHEST_PROTOCOL)
        return atomic_write_bytes(self.sim_path(key), data)
