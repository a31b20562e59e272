"""Content-addressed run and trace caches for the sweep engines.

Every simulated run is deterministic, and SafeDM is purely
observational — so a run's inputs split into two layers:

* the **simulation key**: program image, platform configuration *minus*
  the signature section, staggering, late core, arbiter start, cycle
  budget.  Everything the cores/bus/memory ever see.
* the **monitor key** layered on top: the signature geometry
  (:class:`~repro.core.signatures.SignatureConfig`), reporting mode,
  and episode threshold.  None of it can perturb the simulation.

A :class:`RunResult` is cached under :func:`monitor_key` layered on
:func:`simulation_key`, while a raw signature-stream
:class:`~repro.trace.stream_trace.StreamTrace` is cached under the
simulation key alone — one captured simulation serves every monitor
configuration via :mod:`repro.replay`.

Entries never go stale silently: any input change changes the key, and
``CACHE_SCHEMA_VERSION`` is baked into every key so behavioural changes
to the simulator can invalidate old entries wholesale.  Entries that
*do* turn out dead on read (corrupt JSON, old schema) are evicted from
disk immediately instead of missing forever.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Optional

from ..core.signatures import SignatureConfig
from ..isa.program import Program
from ..soc.config import SocConfig
from ..soc.experiment import RunResult
from ..trace.stream_trace import StreamTrace

#: Bump to invalidate every previously cached run (e.g. after a change
#: that alters simulated behaviour rather than just the API).
#: 2: the key split into simulation + monitor layers.
#: 3: checkpoint snapshots and checkpoint indexes join the store.
CACHE_SCHEMA_VERSION = 3

#: Default persistent location, per the repo layout: benchmark outputs
#: live under benchmarks/out/.
DEFAULT_CACHE_DIR = (pathlib.Path(__file__).resolve().parents[3]
                     / "benchmarks" / "out" / ".runcache")


def _canonical(obj):
    """Recursively reduce ``obj`` to JSON-serializable canonical form."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: _canonical(getattr(obj, field.name))
                for field in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _canonical(value)
                for key, value in sorted(obj.items())}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError("cannot canonicalize %r for cache digest" % (obj,))


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _digest_payload(obj) -> str:
    return _sha256(json.dumps(_canonical(obj), sort_keys=True,
                              separators=(",", ":")).encode("utf-8"))


def sim_config_digest(config: Optional[SocConfig]) -> str:
    """Digest of the platform configuration the *simulation* sees.

    The ``signature`` section is excluded: SafeDM only observes, so the
    signature geometry cannot change a single simulated cycle.  It is
    keyed separately by :func:`signature_digest` / :func:`monitor_key`.
    """
    resolved = config if config is not None else SocConfig()
    return _digest_payload({
        field.name: _canonical(getattr(resolved, field.name))
        for field in dataclasses.fields(resolved)
        if field.name != "signature"
    })


def signature_digest(signature: Optional[SignatureConfig]) -> str:
    """Stable digest of a signature-unit geometry."""
    return _digest_payload(signature if signature is not None
                           else SignatureConfig())


def program_digest(program: Program) -> str:
    """Digest of the bytes that actually reach simulated memory."""
    hasher = hashlib.sha256()
    hasher.update(b"base:%d;entry:%d;" % (program.base, program.entry))
    for start, blob in sorted(program.image.items()):
        hasher.update(b"@%d:" % start)
        hasher.update(blob)
    return hasher.hexdigest()


def simulation_key(program_dig: str, sim_cfg_dig: str, *, benchmark: str,
                   stagger_nops: int, late_core: int, rr_start: int,
                   max_cycles: int) -> str:
    """Cache key for one simulation (monitor-independent).

    Stream traces are content-addressed by this key: any monitor
    configuration replayed over the same simulation shares it.
    """
    payload = json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "simulation",
        "program": program_dig,
        "config": sim_cfg_dig,
        "benchmark": benchmark,
        "stagger_nops": stagger_nops,
        "late_core": late_core,
        "rr_start": rr_start,
        "max_cycles": max_cycles,
    }, sort_keys=True, separators=(",", ":"))
    return _sha256(payload.encode("utf-8"))


def monitor_key(sim_key: str, *, signature_dig: str, mode_value: str,
                threshold: int) -> str:
    """Monitor-configuration key layered on a simulation key."""
    payload = json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "monitor",
        "simulation": sim_key,
        "signature": signature_dig,
        "mode": mode_value,
        "threshold": threshold,
    }, sort_keys=True, separators=(",", ":"))
    return _sha256(payload.encode("utf-8"))


def checkpoint_key(sim_key: str, *, cycle: int, every: int) -> str:
    """Cache key for one mid-run snapshot of a simulation.

    Keyed by (simulation, cycle, cadence): a simulation's state at
    cycle ``c`` is deterministic, and including the cadence keeps
    differently-spaced checkpoint sets from shadowing each other's
    indexes.
    """
    payload = json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "checkpoint",
        "simulation": sim_key,
        "cycle": cycle,
        "every": every,
    }, sort_keys=True, separators=(",", ":"))
    return _sha256(payload.encode("utf-8"))


def checkpoint_index_key(sim_key: str, *, every: int) -> str:
    """Cache key for the checkpoint index of one (simulation, cadence)."""
    payload = json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "checkpoint_index",
        "simulation": sim_key,
        "every": every,
    }, sort_keys=True, separators=(",", ":"))
    return _sha256(payload.encode("utf-8"))


def _json_entry(raw: bytes, field: str):
    """``field`` of a JSON store entry; anything but a current-schema
    object is a dead entry."""
    payload = json.loads(raw)
    if not isinstance(payload, dict) \
            or payload.get("schema") != CACHE_SCHEMA_VERSION:
        raise ValueError("schema mismatch")
    return payload[field]


class _DiskStore:
    """Shared plumbing: atomic one-file-per-key stores under ``root``.

    Writes are atomic (tempfile + rename), so concurrent sweeps sharing
    a cache directory at worst redo a run — they never corrupt it.
    Entries that fail to decode are *evicted* (unlinked) rather than
    left to miss forever.
    """

    SUFFIX = ".json"

    def __init__(self, root=None):
        self.root = pathlib.Path(root) if root is not None \
            else DEFAULT_CACHE_DIR
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / (key + self.SUFFIX)

    def get(self, key: str):
        """The entry under ``key``, or None (counted as a miss).

        Corrupt or stale-schema entries — whatever the store's
        :meth:`_decode` rejects — are deleted on the spot and counted
        in :attr:`evictions` (surfaced as the
        ``repro_runner_cache_evictions_total`` telemetry counter).
        """
        return self._load(key, self._decode)

    def _load(self, key: str, decode):
        """The one read path: read, ``decode``, evict on failure, and
        count a hit or a miss."""
        try:
            raw = self._path(key).read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = decode(raw)
        except (ValueError, TypeError, KeyError, EOFError):
            self._evict(key)
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def _decode(self, raw: bytes):
        """The cached value encoded in ``raw``; raises ValueError,
        TypeError, KeyError or EOFError for a dead entry."""
        raise NotImplementedError

    def _evict(self, key: str):
        """Drop a dead entry so it cannot keep missing forever."""
        try:
            self._path(key).unlink()
        except OSError:
            pass
        self.evictions += 1

    def _store(self, key: str, payload: bytes):
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1

    def clear(self):
        """Delete every cached entry."""
        if not self.root.is_dir():
            return
        for path in self.root.glob("*" + self.SUFFIX):
            try:
                path.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*" + self.SUFFIX))


class RunCache(_DiskStore):
    """Persistent full-key -> :class:`RunResult` store (JSON files)."""

    SUFFIX = ".json"

    def _decode(self, raw: bytes) -> RunResult:
        return RunResult(**_json_entry(raw, "result"))

    def put(self, key: str, result: RunResult):
        """Persist ``result`` under ``key`` (atomic)."""
        payload = json.dumps({
            "schema": CACHE_SCHEMA_VERSION,
            "result": dataclasses.asdict(result),
        }, sort_keys=True)
        self._store(key, payload.encode("utf-8"))


class TraceCache(_DiskStore):
    """Persistent simulation-key -> :class:`StreamTrace` store.

    Lives alongside the run cache (same directory, ``.trace`` files).
    The trace carries its own schema version in its binary header, so
    decode failures — including format bumps — evict like the run
    cache's.
    """

    SUFFIX = ".trace"

    def _decode(self, raw: bytes) -> StreamTrace:
        return StreamTrace.decode(raw)

    def get_sized(self, sim_key: str):
        """Like :meth:`get`, but return ``(trace, encoded size in
        bytes)``: the size of the entry as stored, with no re-encode."""
        return self._load(sim_key,
                          lambda raw: (StreamTrace.decode(raw), len(raw)))

    def put(self, sim_key: str, trace: StreamTrace) -> int:
        """Persist ``trace`` under its simulation key (atomic) and
        return its encoded size in bytes."""
        payload = trace.encode()
        self._store(sim_key, payload)
        return len(payload)


class CheckpointStore(_DiskStore):
    """Persistent checkpoint-key -> :class:`Snapshot` store.

    Lives alongside the run cache (same directory, ``.ckpt`` files).
    Snapshots carry their own schema version in the binary header
    (:data:`repro.checkpoint.CHECKPOINT_SCHEMA_VERSION`), so format
    bumps evict on read like the other stores.
    """

    SUFFIX = ".ckpt"

    def __init__(self, root=None):
        super().__init__(root)
        self.bytes_written = 0

    def _decode(self, raw: bytes):
        from ..checkpoint import Snapshot
        return Snapshot.decode(raw)

    def get_blob(self, key: str) -> Optional[bytes]:
        """Like :meth:`get`, but return the validated encoded form.

        Used by consumers that decode lazily (e.g. the fork engine,
        which ships encoded snapshots to pool workers).
        """
        return self._load(key, self._validated)

    def _validated(self, raw: bytes) -> bytes:
        self._decode(raw)
        return raw

    def put(self, key: str, snapshot):
        """Persist ``snapshot`` under ``key`` (atomic)."""
        self.put_blob(key, snapshot.encode())

    def put_blob(self, key: str, blob: bytes):
        """Persist an already-encoded snapshot under ``key`` (atomic)."""
        self._store(key, blob)
        self.bytes_written += len(blob)


class CheckpointIndexStore(_DiskStore):
    """Persistent index of one simulation's checkpoint set.

    The index (a small JSON payload: checkpoint cycles, golden-run
    summary, liveness masks) is what makes a checkpointed campaign
    warm-startable: if the index is present, the golden simulation can
    be skipped and the snapshots fetched lazily by key.
    """

    SUFFIX = ".ckidx"

    def _decode(self, raw: bytes) -> dict:
        return _json_entry(raw, "index")

    def put(self, key: str, index: dict):
        """Persist ``index`` under ``key`` (atomic)."""
        payload = json.dumps({
            "schema": CACHE_SCHEMA_VERSION,
            "index": index,
        }, sort_keys=True)
        self._store(key, payload.encode("utf-8"))
