"""Content-addressed artifact cache for the execution runtime.

Sweeps across (backend, app, graph) cells recompute the same expensive
artifacts over and over: generated proxy graphs, ON1 occurrence-rank
permutations, and whole :class:`~repro.runtime.spec.JobResult`\\ s.  This
module memoizes all three behind one interface:

* every artifact is addressed by a **stable content hash** of the fields
  that determine it (:func:`stable_hash` — canonical JSON, SHA-256), never
  by object identity or insertion order;
* values live in an **in-process LRU** first and a **disk store** second
  (``~/.cache/gramer-repro/<kind>/<hash>.pkl`` by default, overridable via
  the ``GRAMER_CACHE_DIR`` environment variable), so repeated calls inside
  one process are free and repeated runs across processes — including
  the :class:`~repro.runtime.executor.Executor`'s sweep workers — skip
  regeneration entirely;
* disk failures are never fatal: the cache degrades to recomputing.

Integrity (docs/resilience.md): every disk entry is an **envelope** —
``{"cache_version", "sha256", "payload"}`` where ``payload`` is the
pickled value and ``sha256`` its content checksum — and the checksum is
verified on every read.  An entry that is truncated, bit-flipped, or
written by a different ``CACHE_VERSION`` is **quarantined**: moved to
``<root>/quarantine/`` for post-mortem, counted in
:attr:`CacheStats.quarantined`, and reported as a miss so the artifact is
recomputed.  Corruption can therefore never surface as an exception *or*
as silently wrong data.

Values are serialized with :mod:`pickle`; the disk store is a private
memo, not an interchange format.  Keys must be built from JSON-canonical
scalars/containers so the hash is stable across processes and sessions.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .atomicio import atomic_write_bytes

__all__ = [
    "CACHE_VERSION",
    "JOB_KIND",
    "ArtifactCache",
    "CacheStats",
    "default_cache",
    "default_cache_root",
    "reset_default_cache",
    "stable_hash",
]

# Bump to invalidate every stored artifact when serialized layouts change.
# v2: checksummed envelope entries + JobResult.retries field.
CACHE_VERSION = 2

#: Cache kind under which completed ``JobResult`` artifacts live — shared
#: by the executor (store/lookup), the distributed sweep workers, and the
#: manifest sealer/verifier, which all address the same entries.
JOB_KIND = "job"

_ENV_CACHE_DIR = "GRAMER_CACHE_DIR"
_DEFAULT_ROOT = Path("~/.cache/gramer-repro")
_QUARANTINE_DIR = "quarantine"

# Exceptions that mark an unreadable/undecodable entry (as opposed to an
# OSError reaching the file at all).
_DECODE_ERRORS = (
    pickle.PickleError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
)


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serializable form."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (set, frozenset)):
        return sorted(str(item) for item in obj)
    # numpy scalars and other number-likes.
    if hasattr(obj, "item") and callable(obj.item):
        return _canonical(obj.item())
    raise TypeError(
        f"cache keys must be JSON-canonical; got {type(obj).__name__}"
    )


def stable_hash(obj: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``obj``."""
    payload = json.dumps(
        _canonical(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_cache_root() -> Path:
    """Resolve the disk root: ``$GRAMER_CACHE_DIR`` or ``~/.cache/gramer-repro``."""
    # gramer: ignore[GRM201] -- process-startup config: picks where the
    # cache lives, never what any cached value contains.
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return _DEFAULT_ROOT.expanduser()


@dataclass
class CacheStats:
    """Hit/miss counters, split by tier (diagnostics and tests).

    ``quarantined`` counts disk entries that failed integrity
    verification (bad checksum, truncation, version skew) and were moved
    to ``<root>/quarantine/``; each also counts as a miss, never as an
    error surfaced to the caller.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    disk_errors: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "disk_errors": self.disk_errors,
            "quarantined": self.quarantined,
        }


def _encode_entry(value: Any) -> bytes:
    """Wrap ``value`` in the checksummed on-disk envelope."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "cache_version": CACHE_VERSION,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload": payload,
    }
    return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)


class _IntegrityError(Exception):
    """Internal: entry failed envelope/checksum verification."""


def _verify_envelope(data: bytes) -> tuple[str, bytes]:
    """Validate one on-disk envelope; return ``(sha256, payload)``.

    Checks the envelope shape, the cache version, and the payload
    checksum — everything short of unpickling the payload itself, so
    integrity audits (manifest verification, resume validation) can run
    without paying deserialization.
    """
    try:
        envelope = pickle.loads(data)
    except _DECODE_ERRORS as exc:
        raise _IntegrityError(f"undecodable envelope: {exc}") from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise _IntegrityError("not an envelope (version skew?)")
    if envelope.get("cache_version") != CACHE_VERSION:
        raise _IntegrityError(
            f"cache version skew: entry v{envelope.get('cache_version')!r} "
            f"vs runtime v{CACHE_VERSION}"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, bytes):
        raise _IntegrityError("envelope payload is not bytes")
    sha = hashlib.sha256(payload).hexdigest()
    if sha != envelope.get("sha256"):
        raise _IntegrityError("payload checksum mismatch")
    return sha, payload


def _decode_entry(data: bytes) -> Any:
    """Verify and unwrap one on-disk envelope; raise on any defect."""
    _, payload = _verify_envelope(data)
    try:
        return pickle.loads(payload)
    except _DECODE_ERRORS as exc:
        raise _IntegrityError(f"undecodable payload: {exc}") from exc


@dataclass
class ArtifactCache:
    """Two-tier (LRU memory + pickle disk) content-addressed store.

    ``use_disk=False`` keeps the cache purely in-process (used by
    ``--no-cache`` flows that still want per-run memoization).
    """

    root: Path = field(default_factory=default_cache_root)
    memory_items: int = 128
    use_disk: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._memory: OrderedDict[tuple[str, str], Any] = OrderedDict()

    # -- key/path plumbing --------------------------------------------------

    def digest(self, key: Any) -> str:
        """Content address of ``key`` (version-salted stable hash)."""
        return stable_hash({"key": key, "version": CACHE_VERSION})

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / kind / f"{digest}.pkl"

    def entry_path(self, kind: str, key: Any) -> Path:
        """Disk location of ``(kind, key)`` (whether or not it exists)."""
        return self._path(kind, self.digest(key))

    def _remember(self, slot: tuple[str, str], value: Any) -> None:
        self._memory[slot] = value
        self._memory.move_to_end(slot)
        while len(self._memory) > self.memory_items:
            self._memory.popitem(last=False)

    def _quarantine(self, kind: str, digest: str, path: Path) -> None:
        """Move a failed-verification entry aside and count it."""
        self.stats.quarantined += 1
        target = self.root / _QUARANTINE_DIR / f"{kind}-{digest}.pkl"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Out of moves too?  Best effort: drop the bad entry so the
            # recomputed value can take its slot.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                self.stats.disk_errors += 1

    # -- public API ---------------------------------------------------------

    def lookup(self, kind: str, key: Any) -> tuple[bool, Any]:
        """Return ``(hit, value)`` without computing anything.

        Disk entries are checksum-verified before deserialization; a
        corrupt, truncated, or version-skewed entry is quarantined and
        reported as a miss — never an exception, never garbage data.
        """
        digest = self.digest(key)
        slot = (kind, digest)
        if slot in self._memory:
            self._memory.move_to_end(slot)
            self.stats.memory_hits += 1
            return True, self._memory[slot]
        if self.use_disk:
            path = self._path(kind, digest)
            try:
                data = path.read_bytes() if path.exists() else None
            except OSError:
                self.stats.disk_errors += 1
                data = None
            if data is not None:
                try:
                    value = _decode_entry(data)
                except _IntegrityError:
                    self._quarantine(kind, digest, path)
                else:
                    self.stats.disk_hits += 1
                    self._remember(slot, value)
                    return True, value
        self.stats.misses += 1
        return False, None

    def remember(self, kind: str, key: Any, value: Any) -> None:
        """Keep ``value`` in the memory tier only (disk is untouched)."""
        self._remember((kind, self.digest(key)), value)

    def store(self, kind: str, key: Any, value: Any) -> None:
        """Remember ``value`` in memory and (best-effort) on disk."""
        digest = self.digest(key)
        self._remember((kind, digest), value)
        if not self.use_disk:
            return
        try:
            # Publish through the blessed tmp+fsync+rename helper: entries
            # land whole or not at all under concurrent sweep workers.
            atomic_write_bytes(self._path(kind, digest), _encode_entry(value))
        except OSError:
            self.stats.disk_errors += 1

    def entry_checksum(self, kind: str, key: Any) -> str | None:
        """Verify ``(kind, key)``'s disk entry; return its payload sha256.

        This is the integrity primitive behind manifest sealing and
        verification and ``--resume`` artifact validation: it reads the
        envelope straight from disk (never the memory tier), checks the
        version and payload checksum, and returns the content hash —
        *without* unpickling the payload.  A missing entry returns
        ``None``; a corrupt or version-skewed one is quarantined (same
        path as :meth:`lookup`) and also returns ``None``.
        """
        if not self.use_disk:
            return None
        digest = self.digest(key)
        path = self._path(kind, digest)
        try:
            data = path.read_bytes() if path.exists() else None
        except OSError:
            self.stats.disk_errors += 1
            return None
        if data is None:
            return None
        try:
            sha, _ = _verify_envelope(data)
        except _IntegrityError:
            self._quarantine(kind, digest, path)
            self._memory.pop((kind, digest), None)
            return None
        return sha

    def get_or_create(
        self, kind: str, key: Any, producer: Callable[[], Any]
    ) -> Any:
        """Memoized ``producer()`` keyed by ``(kind, stable_hash(key))``."""
        hit, value = self.lookup(kind, key)
        if hit:
            return value
        value = producer()
        self.store(kind, key, value)
        return value

    def evict_memory(self, kind: str, key: Any) -> None:
        """Drop one entry from the in-process tier (disk is untouched)."""
        self._memory.pop((kind, self.digest(key)), None)

    def clear_memory(self) -> None:
        """Drop the in-process tier (disk entries survive)."""
        self._memory.clear()


_default: ArtifactCache | None = None


def default_cache() -> ArtifactCache:
    """The process-wide cache singleton (created lazily from the env)."""
    global _default
    if _default is None:
        _default = ArtifactCache()
    return _default


def reset_default_cache() -> None:
    """Forget the singleton (tests re-point ``GRAMER_CACHE_DIR``)."""
    global _default
    _default = None
