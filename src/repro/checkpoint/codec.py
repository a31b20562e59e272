"""Binary snapshot codec (the serialization half of the protocol).

A :class:`Snapshot` wraps one component tree's ``state_dict()`` output
plus a small :class:`CheckpointMeta` header.  The wire format mirrors
:mod:`repro.trace.stream_trace`: magic, LEB128 schema version, JSON
meta header, zlib-compressed canonical-JSON body.  Decoding rejects
unknown magic/versions with :class:`ValueError`, so stale cache
entries evict instead of deserializing garbage.

Canonical JSON makes snapshots *content-addressable*: two state dicts
describing the same machine state always encode to the same body
bytes (sorted keys, tuples flattened to lists, ``bytes`` tagged as
base64), so :meth:`Snapshot.digest` is a stable identity.
``load_state_dict`` implementations therefore accept both native
Python state (tuples, int dict keys, raw bytes) and its JSON image
(lists, string keys, tagged bytes) — the codec round trip is lossless
up to that normalization.

:func:`dynamic_view` strips the pure-accumulator subtrees (every
``"stats"`` key, by protocol convention) from a state dict; the
resulting :meth:`Snapshot.dynamic_digest` identifies the *forward-
evolving* machine state only.  Two runs whose dynamic views coincide
are bisimulation-equivalent from that cycle on even when their
cumulative counters differ — the property the fork-from-checkpoint
fault engine's convergence early-exit rests on.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import zlib
from dataclasses import dataclass

#: Bump when the snapshot layout changes; decoding rejects other
#: versions (and the stores evict such entries on read).
CHECKPOINT_SCHEMA_VERSION = 1

_MAGIC = b"SDCK"

_BYTES_TAG = "__bytes__"

#: State-dict keys holding pure accumulators (counters that never feed
#: back into simulated behaviour).  Every component keeps them under
#: this key so :func:`dynamic_view` can prune uniformly.
ACCUMULATOR_KEY = "stats"


#: Exact types :func:`jsonable` returns as they are; containers skip the
#: recursive call for them (most of a state dict is plain ints).
_PLAIN = frozenset((str, int, float, bool, type(None)))


def jsonable(obj):
    """Reduce a state dict to a canonical JSON-serializable form.

    Tuples become lists, dict keys become strings, ``bytes`` become
    ``{"__bytes__": <base64>}`` tags.  Only the types state dicts are
    allowed to contain are accepted.
    """
    if isinstance(obj, dict):
        return {str(key): value if type(value) in _PLAIN
                else jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [item if type(item) in _PLAIN else jsonable(item)
                for item in obj]
    if isinstance(obj, (bytes, bytearray)):
        return {_BYTES_TAG: base64.b64encode(bytes(obj)).decode("ascii")}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError("cannot serialize %r in a snapshot" % (obj,))


def from_jsonable(obj):
    """Reverse the ``bytes`` tagging of :func:`jsonable`.

    Containers stay in JSON shape (lists, string keys); loaders
    normalize those themselves.
    """
    if isinstance(obj, dict):
        if len(obj) == 1 and _BYTES_TAG in obj:
            return base64.b64decode(obj[_BYTES_TAG])
        return {key: from_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(item) for item in obj]
    return obj


def dynamic_view(obj):
    """Deep copy of a state dict with accumulator subtrees removed.

    Drops every dict entry keyed :data:`ACCUMULATOR_KEY`; what remains
    is exactly the state that determines future evolution.
    """
    if isinstance(obj, dict):
        return {key: dynamic_view(value) for key, value in obj.items()
                if key != ACCUMULATOR_KEY}
    if isinstance(obj, (list, tuple)):
        return [dynamic_view(item) for item in obj]
    return obj


def _canonical_bytes(state) -> bytes:
    return json.dumps(jsonable(state), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _write_varint(out: bytearray, value: int):
    if value < 0:
        raise ValueError("varint values must be non-negative: %d" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int):
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated snapshot varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


@dataclass
class CheckpointMeta:
    """Context a snapshot cannot recompute from its state alone."""

    benchmark: str = "program"
    #: SoC cycle the snapshot was taken at.
    cycle: int = 0
    #: Checkpoint cadence of the run that produced it (0 = one-off).
    checkpoint_every: int = 0
    #: Simulation cache key the snapshot is content-addressed under
    #: ("" when taken outside the cache machinery).
    sim_key: str = ""


class Snapshot:
    """One serializable machine state: ``state_dict()`` plus meta."""

    __slots__ = ("state", "meta")

    def __init__(self, state, meta: CheckpointMeta = None):
        self.state = state
        self.meta = meta if meta is not None else CheckpointMeta()

    # -- identity ---------------------------------------------------------

    def digest(self) -> str:
        """Content address: SHA-256 of the canonical state body."""
        return hashlib.sha256(_canonical_bytes(self.state)).hexdigest()

    def dynamic_digest(self) -> str:
        """Digest of the accumulator-free :func:`dynamic_view`."""
        return hashlib.sha256(
            _canonical_bytes(dynamic_view(self.state))).hexdigest()

    # -- codec ------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to the binary wire format."""
        out = bytearray(_MAGIC)
        _write_varint(out, CHECKPOINT_SCHEMA_VERSION)
        meta_blob = json.dumps(dataclasses.asdict(self.meta),
                               sort_keys=True).encode("utf-8")
        _write_varint(out, len(meta_blob))
        out += meta_blob
        body = zlib.compress(_canonical_bytes(self.state), 6)
        _write_varint(out, len(body))
        out += body
        return bytes(out)

    @classmethod
    def decode(cls, blob: bytes) -> "Snapshot":
        """Parse the wire format; raises :class:`ValueError` on garbage."""
        if blob[:len(_MAGIC)] != _MAGIC:
            raise ValueError("not a snapshot (bad magic)")
        version, pos = _read_varint(blob, len(_MAGIC))
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError("unsupported snapshot schema %d" % version)
        meta_len, pos = _read_varint(blob, pos)
        if pos + meta_len > len(blob):
            raise ValueError("truncated snapshot header")
        meta = CheckpointMeta(**json.loads(blob[pos:pos + meta_len]))
        pos += meta_len
        body_len, pos = _read_varint(blob, pos)
        if pos + body_len > len(blob):
            raise ValueError("truncated snapshot body")
        try:
            body = zlib.decompress(blob[pos:pos + body_len])
        except zlib.error as exc:
            raise ValueError("corrupt snapshot body: %s" % exc)
        return cls(from_jsonable(json.loads(body)), meta)

    # -- files ------------------------------------------------------------

    def save(self, path):
        with open(path, "wb") as handle:
            handle.write(self.encode())

    @classmethod
    def load(cls, path) -> "Snapshot":
        with open(path, "rb") as handle:
            return cls.decode(handle.read())

    def byte_size(self) -> int:
        """Size of the encoded snapshot in bytes."""
        return len(self.encode())
