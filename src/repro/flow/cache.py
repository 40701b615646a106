"""Content-addressed artifact cache for flow stage results.

Every stage of a :class:`repro.flow.flow.Flow` run produces one artifact
(collapsed faults, the selected ``U``, the ADI data, a permutation, a
test set, a curve report).  Each artifact is keyed by a *stable* SHA-256
hash of

* the stage name and a format version,
* the JSON form of the config subtree the stage consumes, and
* the keys of its upstream artifacts,

so a key names the full provenance of a result: change any knob and
every downstream key changes with it, while untouched upstream stages
keep their keys — re-running an experiment with one knob changed
recomputes only the stages below the change.  This is the scaling
primitive for sweeping many circuits × orders × models: the sweep pays
for each distinct sub-pipeline once.

Artifacts persist as JSON files under ``results/cache/<stage>/<key>.json``
(override with ``REPRO_FLOW_CACHE_DIR`` or an explicit root).  Writes are
atomic (temp file + rename) and serialized through one on-disk lock per
stage directory (``<stage>/.lock``), so any number of threads or
processes can hammer one key and the payload is written exactly once
(:meth:`ArtifactCache.put` is put-if-absent by default), while a put
creates no file but its artifact; corrupt or truncated files — a killed
run, a full disk — are detected on read, deleted, and transparently
recomputed.
Keys are pure content hashes, so the cache is safe to share between
processes and to prune at any time (``repro cache prune``).

Recency lives in the artifact files themselves: every hit and every
written put stamps its artifact's mtime with the wall clock
(``os.utime``), and :meth:`ArtifactCache.prune` accepts a byte budget
(``max_bytes``) that evicts the oldest stamps first until the cache
fits — LRU pruning for long-running services
(:mod:`repro.flow.server`) with no per-access record and no shared lock
on the read path.

Degradation: a cache that cannot write — ``ENOSPC``, a read-only
filesystem, a permission flip under a running server — must never turn
into request failures.  Any ``OSError`` on the artifact write path flips
the instance into a sticky *pass-through* mode: subsequent puts
short-circuit (counted under ``repro_cache_puts_total{outcome="degraded"}``),
reads keep working against whatever is already on disk, and the flow
recomputes what it cannot persist.  Recency stamps and prunes absorb
``OSError`` the same way without flipping the sticky flag (a stamp only
orders eviction).  Every absorbed error increments
``repro_cache_degraded_total{op=...}`` and logs one structured line per
op; :meth:`ArtifactCache.reset_degraded` re-arms writes after the
operator fixes the disk.  The ``cache.write.enospc`` and
``cache.read.corrupt`` chaos sites (:mod:`repro.resilience.chaos`)
inject exactly these failures for tests and CI smoke runs.

Telemetry: every cache instance records into a
:class:`repro.telemetry.MetricsRegistry` (private by default, injectable
for aggregation) — hit/miss and put outcomes as counters
(``repro_cache_requests_total``, ``repro_cache_puts_total``), get/put/
prune latencies as histograms (``repro_cache_op_seconds``), and bytes on
disk as a gauge (``repro_cache_disk_bytes``, refreshed by
:meth:`ArtifactCache.stats` — i.e. on every ``/stats`` or ``/metrics``
scrape).  The registry is the only home of these counters; the flow
server renders it on ``GET /metrics``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.resilience import chaos as _chaos
from repro.telemetry import MetricsRegistry, log_event

try:  # POSIX advisory locks; per open-file-description, so threads contend too
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None  # type: ignore[assignment]

#: Bump when any artifact's JSON layout changes; part of every key.
CACHE_FORMAT_VERSION = 1

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "REPRO_FLOW_CACHE_DIR"

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_ROOT = os.path.join("results", "cache")

#: The one lock file of each stage directory; not ``*.json``, so stats
#: and prune never count it, and prune never removes it.
LOCK_NAME = ".lock"

#: Per-key lock files (``.<key>.lock``) that older versions left behind,
#: one per key ever written; :meth:`ArtifactCache.prune` removes them.
_LEGACY_LOCK = re.compile(r"\.[0-9a-f]{64}\.lock")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for hashing: sorted keys, tight separators.

    Raises ``TypeError`` for values JSON cannot represent — hashing must
    never silently coerce (that is how two different configs end up with
    one key).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON form.

    Independent of process, platform and ``PYTHONHASHSEED`` — the
    property the whole cache rests on (tested by hashing in a
    subprocess).
    """
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def stage_key(stage: str, config_part: Any,
              upstream: Sequence[str] = ()) -> str:
    """The content-address of one stage result.

    ``config_part`` is the JSON-ready config subtree the stage consumes;
    ``upstream`` the keys of the artifacts it builds on (order matters
    and is fixed per stage).
    """
    return stable_hash({
        "stage": stage,
        "format": CACHE_FORMAT_VERSION,
        "config": config_part,
        "upstream": list(upstream),
    })


def default_cache_root() -> Path:
    """``$REPRO_FLOW_CACHE_DIR`` or ``results/cache``."""
    override = os.environ.get(CACHE_ENV_VAR, "").strip()
    return Path(override) if override else Path(DEFAULT_CACHE_ROOT)


class _FileLock:
    """An exclusive on-disk lock: ``flock`` where available, else a
    spin on ``O_CREAT|O_EXCL``.

    ``flock`` locks attach to the open file description, so two threads
    of one process contend exactly like two processes do — one primitive
    covers both the threaded server and parallel CLI runs sharing a
    cache directory.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fd: Optional[int] = None

    def __enter__(self) -> "_FileLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        else:  # pragma: no cover - exercised only on non-POSIX hosts
            while True:
                try:
                    self._fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                    )
                    break
                except FileExistsError:
                    time.sleep(0.005)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            else:  # pragma: no cover
                os.unlink(self.path)
        finally:
            os.close(self._fd)
            self._fd = None


class ArtifactCache:
    """A directory of content-addressed JSON artifacts, one per stage result.

    The cache never interprets payloads — (de)serialization belongs to
    :mod:`repro.flow.serialize` — it only guarantees that what
    :meth:`get` returns is exactly what :meth:`put` stored under the same
    key, or ``None``.  Safe for concurrent use from threads and
    processes: writes are locked per stage and atomic, reads never
    observe a torn file.

    ``registry`` injects the telemetry registry the cache records into
    (the flow server aggregates its cache's registry into ``/metrics``);
    by default each cache gets a private one, so independent caches in
    one process never mix counters.
    """

    def __init__(self, root: Union[str, Path, None] = None, *,
                 registry: Optional[MetricsRegistry] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_cache_requests_total",
            "Artifact cache reads by result (hit/miss).")
        self._puts = self.registry.counter(
            "repro_cache_puts_total",
            "Artifact cache writes by outcome (written/deduped).")
        self._op_seconds = self.registry.histogram(
            "repro_cache_op_seconds",
            "Artifact cache operation latency by op (get/put/prune).")
        self._disk_bytes = self.registry.gauge(
            "repro_cache_disk_bytes",
            "Artifact bytes on disk (refreshed by stats()/scrapes).")
        self._degraded_counter = self.registry.counter(
            "repro_cache_degraded_total",
            "OSErrors absorbed by the cache write path, by op.")
        self._degraded = False
        self._degraded_logged: set = set()
        self._degraded_lock = threading.Lock()

    @property
    def degraded(self) -> bool:
        """Whether the write path is in sticky pass-through mode."""
        return self._degraded

    def reset_degraded(self) -> None:
        """Re-arm the write path after the underlying disk is fixed."""
        with self._degraded_lock:
            self._degraded = False
            self._degraded_logged.clear()

    def _note_write_error(self, op: str, exc: OSError, *,
                          sticky: bool = False) -> None:
        """Count (and once per op, log) an absorbed write-path OSError.

        ``sticky=True`` additionally flips the cache into pass-through
        mode: further puts short-circuit until :meth:`reset_degraded`.
        """
        self._degraded_counter.labels(op=op).inc()
        with self._degraded_lock:
            first = op not in self._degraded_logged
            if first:
                self._degraded_logged.add(op)
            if sticky:
                self._degraded = True
        if first:
            name = errno.errorcode.get(exc.errno, "") if exc.errno else ""
            log_event("cache_degraded", level="warning", op=op,
                      sticky=sticky, errno=name or exc.errno,
                      error=str(exc), root=str(self.root))

    def _path(self, stage: str, key: str) -> Path:
        return self.root / stage / f"{key}.json"

    def _lock_path(self, stage: str) -> Path:
        # Writers of every key of a stage share one lock: a put creates
        # only its artifact, and the directory gains no file per key.
        return self.root / stage / LOCK_NAME

    def _observe_op(self, op: str, started: float) -> None:
        self._op_seconds.labels(op=op).observe(time.perf_counter() - started)

    def _touch(self, path: Path) -> None:
        """Stamp ``path``'s mtime with the wall clock: the recency
        :meth:`prune` evicts by, one clock for puts and hits.

        Skipped in pass-through mode.  A file pruned since it was read
        needs no stamp; any other ``OSError`` is counted and logged but
        never sticky — a stamp only orders eviction, so it must never
        fail the hit or put it follows.
        """
        if self._degraded:
            return
        now = time.time_ns()
        try:
            os.utime(path, ns=(now, now))
        except FileNotFoundError:
            pass
        except OSError as exc:
            self._note_write_error("touch", exc)

    # -- artifact I/O --------------------------------------------------------

    def get(self, stage: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for (stage, key), or ``None``.

        A corrupt or truncated file (interrupted writer, bad disk) is
        removed so the caller recomputes and overwrites it.
        """
        started = time.perf_counter()
        try:
            return self._get(stage, key)
        finally:
            self._observe_op("get", started)

    def _get(self, stage: str, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(stage, key)
        try:
            text = path.read_text()
        except (FileNotFoundError, OSError):
            self._requests.labels(result="miss").inc()
            return None
        if _chaos.fire("cache.read.corrupt", stage=stage):
            text = text[: len(text) // 2]  # simulate a torn/garbled file
        try:
            document = json.loads(text)
            if (not isinstance(document, dict)
                    or document.get("key") != key
                    or "payload" not in document):
                raise ValueError("artifact document malformed")
        except (ValueError, TypeError):
            # Corrupt cache entry: recover by deleting, caller recomputes.
            # Taking the stage lock keeps the unlink from racing a
            # concurrent writer's rename (we would delete the fresh
            # artifact).
            try:
                with _FileLock(self._lock_path(stage)):
                    if self._read_valid(path, key) is None:
                        try:
                            path.unlink()
                        except OSError:
                            pass
            except OSError as exc:
                # Even taking the lock can fail (read-only filesystem);
                # a corrupt entry we cannot delete is still just a miss.
                self._note_write_error("recover", exc)
            self._requests.labels(result="miss").inc()
            return None
        self._requests.labels(result="hit").inc()
        self._touch(path)
        return document["payload"]

    @staticmethod
    def _read_valid(path: Path, key: str) -> Optional[Dict[str, Any]]:
        """The document's payload if ``path`` holds a well-formed artifact
        for ``key``, else ``None`` (no side effects)."""
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError, TypeError):
            return None
        if (not isinstance(document, dict) or document.get("key") != key
                or "payload" not in document):
            return None
        return document["payload"]

    def put(self, stage: str, key: str, payload: Dict[str, Any]) -> Path:
        """Persist a payload atomically; returns the artifact path.

        Writes are serialized per stage: when several threads or
        processes race a put of the same key, exactly one writes and the
        rest observe the existing artifact and skip (keys are content
        addresses — same key means same payload).  A caller replacing an
        artifact it knows to be stale deletes it first.
        """
        started = time.perf_counter()
        try:
            return self._put(stage, key, payload)
        finally:
            self._observe_op("put", started)

    def _put(self, stage: str, key: str, payload: Dict[str, Any]) -> Path:
        path = self._path(stage, key)
        if self._degraded:
            # Pass-through mode: the disk is unwritable; skip cheaply and
            # let the flow keep its computed result in memory.
            self._puts.labels(outcome="degraded").inc()
            return path
        try:
            if _chaos.fire("cache.write.enospc", stage=stage):
                raise OSError(errno.ENOSPC, "chaos: injected ENOSPC")
            # Encoded before taking the lock, which every writer of the
            # stage shares.  json.dumps runs the C encoder; json.dump
            # never does.  Both write the same text.
            text = json.dumps({
                "format": CACHE_FORMAT_VERSION,
                "stage": stage,
                "key": key,
                "payload": payload,
            })
            with _FileLock(self._lock_path(stage)):
                if self._read_valid(path, key) is not None:
                    self._puts.labels(outcome="deduped").inc()
                    return path
                fd, tmp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=f".{key[:16]}-", suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "w") as handle:
                        handle.write(text)
                    os.replace(tmp_name, path)
                except BaseException:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                    raise
        except OSError as exc:
            # ENOSPC / EROFS / EACCES anywhere on the write path — the
            # mkdir, the lock, the temp file, the rename: flip to
            # pass-through instead of failing the caller's flow.
            self._note_write_error("put", exc, sticky=True)
            self._puts.labels(outcome="degraded").inc()
            return path
        self._puts.labels(outcome="written").inc()
        self._touch(path)
        return path

    def delete(self, stage: str, key: str) -> bool:
        """Remove one artifact (e.g. one that failed validation);
        returns whether a file was removed."""
        with _FileLock(self._lock_path(stage)):
            try:
                self._path(stage, key).unlink()
                return True
            except OSError:
                return False

    # -- maintenance ---------------------------------------------------------

    def _stage_dirs(self, stage: Optional[str] = None) -> List[Path]:
        if stage is not None:
            roots = [self.root / stage]
        elif self.root.is_dir():
            roots = [p for p in self.root.iterdir() if p.is_dir()]
        else:
            roots = []
        return [directory for directory in roots if directory.is_dir()]

    def _artifact_files(self, stage: Optional[str] = None) -> Iterable[Path]:
        for directory in self._stage_dirs(stage):
            yield from sorted(directory.glob("*.json"))

    def stats(self) -> Dict[str, Any]:
        """Per-stage artifact counts and total size, for ``repro cache``."""
        stages: Dict[str, Dict[str, int]] = {}
        total_files = 0
        total_bytes = 0
        for path in self._artifact_files():
            try:
                size = path.stat().st_size
            except OSError:
                continue  # unlinked by a concurrent prune between glob/stat
            stage = path.parent.name
            entry = stages.setdefault(stage, {"files": 0, "bytes": 0})
            entry["files"] += 1
            entry["bytes"] += size
            total_files += 1
            total_bytes += size
        self._disk_bytes.labels().set(total_bytes)
        return {
            "root": str(self.root),
            "stages": stages,
            "total_files": total_files,
            "total_bytes": total_bytes,
            "degraded": self._degraded,
        }

    def prune(self, stage: Optional[str] = None,
              max_bytes: Optional[int] = None) -> int:
        """Delete artifacts; returns how many were removed.

        Without ``max_bytes`` this clears everything (of one stage, or
        the whole cache) — the historical behaviour.  With ``max_bytes``
        it enforces an LRU size bound instead: least-recently-used
        artifacts (oldest mtime stamp first, ties broken by path) are
        evicted until the cache's total size is within the budget.
        Pruning to a budget is idempotent — a second call with the same
        budget removes nothing.

        Either way it also removes the per-key lock files older versions
        left behind (not counted).  It never removes a stage's live
        ``.lock``: two writers would then lock different inodes.
        """
        started = time.perf_counter()
        try:
            return self._prune(stage, max_bytes)
        except OSError as exc:
            # A prune that cannot list or rewrite (dying disk, revoked
            # permissions) removes nothing; it must not fail the caller
            # mid-request.
            self._note_write_error("prune", exc)
            return 0
        finally:
            self._observe_op("prune", started)

    def _prune(self, stage: Optional[str],
               max_bytes: Optional[int]) -> int:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        for directory in self._stage_dirs(stage):
            for path in directory.glob(".*.lock"):
                if _LEGACY_LOCK.fullmatch(path.name):
                    try:
                        path.unlink()
                    except OSError:
                        pass
        if max_bytes is None:
            removed = 0
            for path in self._artifact_files(stage):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            return removed
        entries = []  # (last access, path, size)
        total = 0
        for path in self._artifact_files(stage):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, path, stat.st_size))
            total += stat.st_size
        removed = 0
        for _, path, size in sorted(entries,
                                    key=lambda e: (e[0], str(e[1]))):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        return removed
