"""Content-addressed result cache for the experiment engine.

Every engine job is a pure function of picklable inputs (a scenario spec,
counter readings, model names, each of which fixes its model's ILP
configuration), so its result can be cached under a *stable content
hash* of those inputs.  Repeated sweeps and figure regenerations then
skip re-simulation entirely: the second identical run performs zero
simulator or solver work (asserted by the engine test-suite via the
runner's execution counter).

The hash is structural, not ``repr``-based: dataclasses, enums, mappings,
sets and plain objects are canonicalised into a JSON document whose SHA-256
digest is the cache key.  Two values hash equal iff their canonical forms
are equal, independent of dict ordering or object identity.

Because the hash is process-stable, the cache can also **persist to
disk**: construct ``ResultCache(directory=...)`` (or pass
``--cache-dir`` to the CLI) and every stored result is additionally
pickled under ``<directory>/v<version>/<key>.pkl`` (namespaced per
library version, since keys hash job *inputs*, not code).  A later
process — a second CLI invocation, a CI run — reuses those entries,
making figure regeneration incremental across invocations.  Unpicklable
results (e.g. carrying closure-backed programs) simply stay in-memory;
corrupt or truncated files are dropped and recomputed.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections.abc import Mapping, Set
from pathlib import Path
from typing import Any

from repro.errors import EngineError

#: Sentinel distinguishing "cached None" from "not cached".
_MISS = object()


def _process_umask() -> int:
    """The process umask (os offers no read-only accessor)."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def canonicalise(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable canonical form.

    Supported inputs: JSON scalars, floats, enums, dataclasses, mappings,
    sequences, sets/frozensets, callables (identified by their dotted
    name) and plain objects with a ``__dict__``.  Anything else raises
    :class:`~repro.errors.EngineError` — silent fallback to ``id()`` or
    ``repr()`` would make cache keys unstable across processes.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() round-trips floats exactly; JSON's float encoding does
        # not distinguish 1.0 from 1, which would merge distinct keys.
        return ["float", repr(obj)]
    if isinstance(obj, bytes):
        return ["bytes", obj.hex()]
    if isinstance(obj, enum.Enum):
        return ["enum", _type_tag(obj), canonicalise(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dataclass",
            _type_tag(obj),
            [
                [field.name, canonicalise(getattr(obj, field.name))]
                for field in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, Mapping):
        items = [
            [_key_token(key), canonicalise(value)]
            for key, value in obj.items()
        ]
        items.sort(key=lambda item: item[0])
        return ["mapping", items]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonicalise(item) for item in obj]]
    if isinstance(obj, Set):
        return ["set", sorted(_key_token(item) for item in obj)]
    if callable(obj):
        module = getattr(obj, "__module__", None)
        qualname = getattr(obj, "__qualname__", None)
        if not module or not qualname or "<locals>" in qualname:
            raise EngineError(
                f"cannot derive a stable cache key from {obj!r}: only "
                "module-level callables are addressable"
            )
        return ["callable", module, qualname]
    attributes = getattr(obj, "__dict__", None)
    if attributes is not None:
        return [
            "object",
            _type_tag(obj),
            canonicalise(attributes),
        ]
    raise EngineError(
        f"cannot derive a stable cache key from {type(obj).__qualname__!r}"
    )


def _type_tag(obj: Any) -> str:
    """Fully-qualified type name; same-named types in different modules
    must not collide in the key space."""
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _key_token(key: Any) -> str:
    """Serialise a mapping key / set element into a sortable string."""
    return json.dumps(canonicalise(key), sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical form.

    Deterministic across processes and interpreter runs (no reliance on
    ``hash()`` randomisation), so cached results survive process-pool
    round-trips and, in principle, on-disk persistence.
    """
    payload = json.dumps(
        canonicalise(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of completed job results.

    Thread-safe (the engine's thread mode shares one instance across
    workers).  Keys are the stable hashes produced by
    :func:`stable_hash`; values are whatever the job returned.

    Args:
        directory: optional persistence directory.  When given, stored
            values are additionally pickled under a per-library-version
            subdirectory (``<directory>/v<repro.__version__>/<key>.pkl``)
            and misses fall back to it, so a fresh process (another CLI
            invocation, a CI job) reuses earlier results.  The version
            namespace keeps results from leaking across releases — job
            keys hash inputs, not code, so a model fix must not be
            answered with a pre-fix pickle.  The directory is created if
            needed.  Values that cannot be pickled stay purely
            in-memory; unreadable entries are discarded and recomputed.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._store: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._directory: Path | None = None
        if directory is not None:
            from repro import __version__  # deferred: package-init cycle

            self._directory = Path(directory) / f"v{__version__}"
            self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path | None:
        """The persistence directory (``None`` for in-memory only)."""
        return self._directory

    def _path(self, key: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{key}.pkl"

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._store:
                return True
            return (
                self._directory is not None and self._path(key).is_file()
            )

    def lookup(self, key: str) -> Any:
        """Return the cached value or the module's miss sentinel.

        Use :func:`is_miss` on the result; ``None`` is a legitimate cached
        value.
        """
        with self._lock:
            value = self._store.get(key, _MISS)
            if value is _MISS and self._directory is not None:
                value = self._load(key)
                if value is not _MISS:
                    self._store[key] = value
            return value

    def _load(self, key: str) -> Any:
        """Read one persisted entry; corrupt files are dropped silently."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return _MISS
        except Exception:  # repro: ignore[broad-except] unpickling a corrupt/foreign file can raise anything; drop and treat as a miss
            try:
                path.unlink()
            except OSError:
                pass
            return _MISS

    def store(self, key: str, value: Any) -> None:
        """Record ``value`` under ``key`` (last write wins)."""
        with self._lock:
            self._store[key] = value
            if self._directory is not None:
                self._persist(key, value)

    def _persist(self, key: str, value: Any) -> None:
        """Write one entry atomically (tmp + rename); best-effort only.

        The tmp file comes from :func:`tempfile.mkstemp`, which
        guarantees a *fresh* name — a pid-suffixed name is not enough:
        two cache instances in one process (an engine plus a worker, two
        engines sharing ``--cache-dir``) share a pid, and pids collide
        across hosts on a shared mount, so concurrent writers of the
        same key could interleave writes into one tmp file and rename a
        torn pickle into place.  With unique tmp names every rename
        publishes a complete pickle; last write wins, as documented.
        """
        path = self._path(key)
        fd: int | None = None
        tmp: str | None = None
        try:
            fd, tmp = tempfile.mkstemp(
                dir=str(self._directory), prefix=f".{key}.", suffix=".tmp"
            )
            # mkstemp creates 0600; restore open()'s umask-derived mode
            # so other *users* of a shared cache mount (a worker fleet)
            # can read published entries.  Best-effort: a failure here
            # must not abort the persist itself.
            try:
                os.fchmod(fd, 0o666 & ~_process_umask())
            except (AttributeError, OSError):
                pass
            with os.fdopen(fd, "wb") as handle:
                fd = None  # fdopen owns (and closes) the descriptor now
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            tmp = None
        except Exception:  # repro: ignore[broad-except] persistence is best-effort by contract
            # Unpicklable value or unwritable directory: the entry simply
            # stays in-memory for this process.
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def clear(self) -> None:
        """Drop every entry, in memory and (when persistent) on disk."""
        with self._lock:
            self._store.clear()
            if self._directory is not None:
                for path in self._directory.glob("*.pkl"):
                    try:
                        path.unlink()
                    except OSError:
                        pass


def is_miss(value: Any) -> bool:
    """Whether a :meth:`ResultCache.lookup` result was a miss."""
    return value is _MISS


def cache_namespaces(directory: str | os.PathLike) -> list[tuple[str, Path]]:
    """The ``(version, path)`` namespaces under one cache directory."""
    root = Path(directory)
    found = []
    for path in sorted(root.glob("v*")):
        if path.is_dir() and len(path.name) > 1:
            found.append((path.name[1:], path))
    return found


def prune_stale_versions(
    directory: str | os.PathLike, *, active: str | None = None
) -> list[str]:
    """Delete stale ``v<version>/`` cache namespaces; never the active one.

    Version namespaces accumulate forever across library upgrades —
    nothing ever reads a ``v1.0.0/`` entry once the library is at 1.1 —
    so pruning reclaims the disk.  ``active`` defaults to the running
    library version.  Returns the pruned version strings.

    Safe against concurrent writers in the *active* namespace by
    construction: that directory is never touched.  A writer racing
    inside a stale namespace (an old-version process still running) at
    worst re-creates files; deletion is best-effort per entry and
    missing files are ignored.
    """
    if active is None:
        from repro import __version__  # deferred: package-init cycle

        active = __version__
    pruned: list[str] = []
    for version, path in cache_namespaces(directory):
        if version == active:
            continue
        _remove_tree(path)
        pruned.append(version)
    return pruned


def _remove_tree(root: Path) -> None:
    """Best-effort recursive delete (races with writers tolerated)."""
    for path in sorted(root.rglob("*"), reverse=True):
        try:
            if path.is_dir() and not path.is_symlink():
                path.rmdir()
            else:
                path.unlink()
        except OSError:
            pass
    try:
        root.rmdir()
    except OSError:
        pass
