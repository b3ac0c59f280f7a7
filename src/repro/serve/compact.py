"""Online compaction: fold delta stores into a live sharded store.

A serving index must absorb new mining runs without downtime.
:class:`StoreCompactor` runs the streaming merge of
:mod:`repro.serve.writer` *in place*: new shard files are written next
to the live generation under generation-tagged names, then the manifest
is swapped atomically (``os.replace``).  At no point does a reader see a
torn index:

* a :class:`~repro.serve.sharded.ShardedPatternStore` opened before the
  swap keeps serving the old shard files — the outgoing generation is
  kept on disk until the *following* compaction (so even its lazily
  not-yet-opened shards stay reachable), and open mmaps pin the inodes
  beyond that;
* a store opened after the swap sees only the new generation;
* a crash anywhere mid-compaction leaves the old manifest pointing at
  the old (untouched) files; orphaned new-generation files are cleaned
  up on failure, and a crashed run's leftovers are simply overwritten
  by the next attempt.

:class:`CompactionDaemon` is the opt-in background thread behind
``lash serve --compact-spool``: it watches a spool directory for delta
stores, has them compacted in by its fold worker — this module run as
``python -m repro.serve.compact``, a :class:`StoreCompactor` in a
process of its own — reopens the store at the new generation and swaps
it into the live :class:`~repro.serve.service.QueryService`, also
picking up generation bumps made by an *external* ``lash index
compact`` run against the same directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from typing import Sequence

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import EncodingError, ReproError
from repro.serve.format import (
    MANIFEST_NAME,
    SHARD_FILE_RE,
    delta_watermark,
    is_sharded_store,
    read_manifest,
    shard_filename,
    write_manifest,
)
from repro.serve.sharded import open_store
from repro.serve.writer import _ShardStreamWriter, fold_stores


#: folded-delta signatures retained in the manifest (enough to cover
#: any realistic crash-recovery window without growing unboundedly)
FOLDED_LOG_LIMIT = 64


def delta_signature(path: str | Path) -> dict:
    """Identity of a delta store for the manifest's folded log: name
    plus size/mtime of the file (or of a shard set's manifest).  Lets a
    spool scanner recognize a delta that was already folded in by a
    cycle that crashed before archiving it — re-folding would silently
    double every frequency it contributed."""
    path = Path(path)
    probe = path / MANIFEST_NAME if path.is_dir() else path
    stat = probe.stat()
    return {
        "name": path.name,
        "size": stat.st_size,
        "mtime_ns": stat.st_mtime_ns,
    }


def _signature_key(signature: dict) -> tuple:
    return (
        signature.get("name"),
        signature.get("size"),
        signature.get("mtime_ns"),
    )


def _fold_watermarks(current: dict, update: dict) -> dict:
    """``current`` with each watermark of ``update`` folded in as a
    monotonic maximum, so the served watermark can never move backwards
    no matter what order deltas are applied in."""
    folded = dict(current)
    for field, value in update.items():
        folded[field] = max(folded.get(field, 0), value)
    return folded


class StoreCompactor:
    """Fold delta stores into a sharded store directory, atomically.

    Parameters
    ----------
    path:
        A sharded store directory (must carry a manifest).

    The base store and the deltas are CRC-verified before they are
    folded in (corrupt input fails the compaction, never the store).
    Every sort of the fold (merge and postings alike) runs
    :data:`~repro.io.runs.DEFAULT_SORT_BUFFER` records per in-memory
    run.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        if not is_sharded_store(self._path):
            raise EncodingError(
                f"{self._path}: not a sharded store directory; only shard "
                "sets support online compaction (build with --shards)"
            )

    @property
    def path(self) -> Path:
        return self._path

    def generation(self) -> int:
        """Current on-disk manifest generation."""
        return read_manifest(self._path)["generation"]

    def _sweep_stale(self, keep: set[str]) -> None:
        """Delete every shard file (or its crashed ``.tmp``) not in
        ``keep`` — the new generation plus the one it just replaced.
        Sweeping the directory instead of trusting one manifest's
        snapshot also reclaims generations orphaned by a crash between
        an earlier manifest swap and its unlink loop.  Runs under the
        compaction lock, so no concurrent build can be mid-write."""
        for entry in self._path.iterdir():
            name = entry.name
            if name in keep:
                continue
            bare = name[:-4] if name.endswith(".tmp") else name
            if SHARD_FILE_RE.fullmatch(bare):
                entry.unlink(missing_ok=True)

    @contextlib.contextmanager
    def _exclusive(self):
        """Serialize compactions of one store directory across
        processes: a daemon-driven compact and an operator's ``lash
        index compact`` racing each other would both build the same
        next generation and the losing manifest write would silently
        discard the winner's deltas.  The flock is held from manifest
        read to manifest write, so the second compactor starts from the
        first one's result instead."""
        lock_path = self._path / ".compact.lock"
        handle = open(lock_path, "a+b")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            handle.close()  # releases the flock

    def compact(
        self,
        deltas: Sequence[str | Path] = (),
        shards: int | None = None,
    ) -> dict:
        """Merge the live store with ``deltas`` into the next generation.

        ``shards=None`` keeps the current shard count; ``shards=M``
        re-routes the merged stream across ``M`` shards (rebalancing —
        also useful with no deltas at all).  Returns a stats dict
        (generation, shard/pattern counts, seconds).  Compactions of
        one store are serialized by an advisory lock in the store
        directory, so concurrent callers queue instead of fighting over
        the same next generation.
        """
        with self._exclusive():
            return self._compact_locked(deltas, shards)

    def stamp_watermarks(self, ingest: dict) -> None:
        """Fold ``ingest`` watermarks into the manifest without a
        compaction, under the compaction lock, so a concurrent
        compactor's manifest write cannot be lost."""
        with self._exclusive():
            manifest = read_manifest(self._path)
            manifest["ingest"] = _fold_watermarks(
                manifest.get("ingest") or {}, ingest
            )
            files = manifest.pop("shard_files")
            for fixed in ("format", "version", "partitioner", "shards"):
                manifest.pop(fixed, None)
            write_manifest(self._path, files, manifest)

    def _compact_locked(
        self,
        deltas: Sequence[str | Path],
        shards: int | None,
    ) -> dict:
        manifest = read_manifest(self._path)
        old_files = list(manifest["shard_files"])
        generation = manifest["generation"] + 1
        num_shards = manifest["shards"] if shards is None else shards
        if num_shards < 1:
            raise EncodingError(
                f"shard count must be >= 1, got {num_shards}"
            )
        # the already-folded filter must run HERE, under the lock, on
        # the manifest just read: a caller that classified a delta as
        # fresh before a concurrent compactor folded it would otherwise
        # fold it twice and double its frequencies
        folded_keys = {
            _signature_key(entry)
            for entry in manifest.get("folded_log", ())
        }
        skipped: list[str] = []
        fresh: list[str | Path] = []
        for delta in deltas:
            if _signature_key(delta_signature(delta)) in folded_keys:
                skipped.append(Path(delta).name)
            else:
                fresh.append(delta)
        if deltas and not fresh and shards is None:
            # every delta was already folded by an earlier (possibly
            # crashed-before-archiving) compaction: nothing to rewrite
            return {
                "path": str(self._path),
                "generation": manifest["generation"],
                "shards": manifest["shards"],
                "items": manifest["items"],
                "patterns": manifest["patterns"],
                "total_frequency": manifest["total_frequency"],
                "deltas": 0,
                "skipped_deltas": skipped,
                "seconds": 0.0,
                "noop": True,
            }
        deltas = fresh
        new_files = [
            shard_filename(i, num_shards, generation)
            for i in range(num_shards)
        ]
        # signatures go into the manifest's folded log so a spool
        # scanner can tell an applied delta from a pending one even if
        # the archiving step after this compaction never ran
        folded_log = list(manifest.get("folded_log", ())) + [
            {**delta_signature(delta), "generation": generation}
            for delta in deltas
        ]
        # never truncate away this batch: a crash before archiving must
        # find every one of these signatures, or the deltas re-fold and
        # double their frequencies
        folded_log = folded_log[-max(FOLDED_LOG_LIMIT, len(deltas)):]

        # freshness bookkeeping: an ingest delta's name is the sequence
        # range it covers, and so the watermark it moves
        ingest = manifest.get("ingest") or {}
        for delta in deltas:
            ingest = _fold_watermarks(
                ingest, delta_watermark(Path(delta).name)
            )

        start = time.perf_counter()
        try:
            # delta decrements may cancel a pattern partially or fully;
            # anything below one supporting sequence would not exist in
            # a re-mine of the retained corpus (fold_stores drops them)
            vocabulary, writer = fold_stores(
                (self._path, *deltas),
                lambda vocabulary: _ShardStreamWriter(
                    self._path, new_files, vocabulary
                ),
                spill_dir=self._path,
            )
            meta = {
                "items": len(vocabulary),
                "patterns": writer.count,
                "total_frequency": writer.total_frequency,
                "generation": generation,
                # the outgoing generation stays on disk until the
                # *next* compaction: a reader opened against the old
                # manifest may not have lazily opened every shard
                # yet, and those late opens must still find their
                # files.  One swap later every such reader has
                # reopened (or answers from already-pinned inodes).
                "previous_files": [
                    name for name in old_files if name not in new_files
                ],
                "folded_log": folded_log,
            }
            if ingest:
                meta["ingest"] = ingest
            # the swap: readers opened before this line keep the old
            # files (their mmaps pin the inodes); readers opened after
            # see only the new generation
            write_manifest(self._path, new_files, meta)
        except BaseException:
            # the fold aborted its writer; shards it had already
            # published are unreferenced by any manifest
            for name in new_files:
                (self._path / name).unlink(missing_ok=True)
            raise
        self._sweep_stale(keep=set(new_files) | set(old_files))
        stats = {
            "path": str(self._path),
            "generation": generation,
            "shards": num_shards,
            "items": len(vocabulary),
            "patterns": writer.count,
            "total_frequency": writer.total_frequency,
            "deltas": len(deltas),
            "skipped_deltas": skipped,
            "seconds": round(time.perf_counter() - start, 3),
        }
        if ingest:
            stats["ingest"] = ingest
        return stats


#: spool subdirectory applied deltas are moved into (never rescanned)
APPLIED_DIR = "applied"

#: applied deltas kept in ``spool/applied/`` before the retention sweep
#: reclaims the oldest — enough history for post-mortems and for the
#: ingestor's publish-idempotency probe, without the archive growing
#: with corpus lifetime
APPLIED_RETAIN = 256

#: seconds :meth:`CompactionDaemon.stop` lets the fold worker take to
#: exit on end-of-input (it finishes a fold it is running) before it is
#: killed — a killed fold leaves the store as a crashed one does
WORKER_EXIT_S = 5.0

#: how far the fold worker lowers its own scheduling priority: when it
#: and the serving process want the same core, reads go first.  On
#: ``ingest_live`` (2 vCPUs) this takes read p50 from ≈ 48 ms to the
#: 44 ms of the quiet lead-in, for folds ≈ 0.2 s longer
WORKER_NICENESS = 10


class _FoldFailed(Exception):
    """A fold that did not happen: the worker reported an error or died."""


def _worker_env() -> dict[str, str]:
    """The server's environment, with this package importable the way
    the server found it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[2])]
        + [path for path in [env.get("PYTHONPATH")] if path]
    )
    return env


def _shut_down(process: subprocess.Popen, timeout: float) -> None:
    """End-of-input asks the worker to exit; one still busy after
    ``timeout`` is killed.  Waits either way, so no zombie is left."""
    with contextlib.suppress(OSError):
        process.stdin.close()
    try:
        process.wait(timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


class _FoldWorker:
    """One ``python -m repro.serve.compact`` child: a fold request goes
    in as one JSON line on its stdin, the reply comes back as one JSON
    line on its stdout, and end-of-input makes it exit — so the serving
    process neither pickles nor forks itself, and a server killed
    outright takes its worker with it."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.compact"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_worker_env(),
            text=True,
        )
        self.pid = self._process.pid
        # a daemon dropped without stop() still ends its worker
        self._finalizer = weakref.finalize(
            self, _shut_down, self._process, WORKER_EXIT_S
        )

    def fold(self, request: dict) -> dict:
        """The worker's reply; :class:`_FoldFailed` when it died (it is
        reaped first)."""
        try:
            self._process.stdin.write(json.dumps(request) + "\n")
            self._process.stdin.flush()
            line = self._process.stdout.readline()
        except (OSError, ValueError):  # broken pipe, or closed by stop()
            line = ""
        if not line:
            self.close()
            raise _FoldFailed(
                f"fold worker {self.pid} died "
                f"(exit code {self._process.returncode})"
            )
        return json.loads(line)

    def close(self) -> None:
        self._finalizer()


class CompactionDaemon:
    """Background re-merge thread for a serving process.

    The daemon scans ``spool`` for delta stores (``*.store`` files or
    sharded directories), folds any it finds into the served store,
    moves the consumed deltas into ``spool/applied/``, reopens the store
    at the new generation and swaps it into the
    :class:`~repro.serve.service.QueryService`.  A generation bump made
    by an external ``lash index compact`` is detected the same way and
    triggers a reopen without a local merge.  A scan that changed the
    store is followed by the next one at once: ``interval`` is how long
    the daemon waits after a scan that found nothing to do.

    The fold itself — :meth:`StoreCompactor.compact`, with its lock,
    folded log and atomic manifest swap — runs in one long-lived worker
    process (``python -m repro.serve.compact``) that the daemon starts
    for its first fold, so the merge's CPU and memory stay out of the
    process that answers queries, and the worker yields a shared core to
    it (:data:`WORKER_NICENESS`); the thread only waits for the reply.
    ``/stats`` names the worker (``worker_pid``) and the peak resident
    memory it reported with its last fold (``worker_peak_rss_mb``).
    Validation, quarantine, archiving, reopening and the swap stay on
    the thread.  A fold that fails or a worker that dies is one failed
    cycle: the error goes to ``/stats`` as ``last_error``, the deltas
    stay pending, the served generation is untouched, and the next scan
    starts a fresh worker when the old one is gone.

    A generation replaced by the swap is the service's to close: its
    last in-flight reader closes it
    (:meth:`~repro.serve.service.QueryService.swap_backend`).

    Each delta is validated on its own before a batch is folded: one
    unreadable file (a crashed copy, bit rot) is quarantined by its
    signature — the healthy deltas around it keep folding, the bad one
    is skipped until its file changes, and the error is published via
    ``/stats``.
    """

    def __init__(
        self,
        service,
        store_path: str | Path,
        spool: str | Path,
        interval: float = 30.0,
    ) -> None:
        self._service = service
        self._store_path = Path(store_path)
        # refuses a single-file store here, in the serving process
        self._compactor = StoreCompactor(store_path)
        self._spool = Path(spool)
        self._spool.mkdir(parents=True, exist_ok=True)
        self._interval = interval
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._worker: _FoldWorker | None = None
        self._worker_peak_rss_mb: float | None = None
        #: signature → error of deltas that failed validation; skipped
        #: until the file changes (new signature) or leaves the spool
        self._rejected: dict[tuple, str] = {}
        self._compactions = 0
        self._last_error: str | None = None
        #: ingest-facing counters surfaced on /stats and /metrics
        self._applied_deltas = 0
        self._pending_count = 0
        self._lag_seconds = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="lash-compactor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = 10.0) -> None:
        self._stop_event.set()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=timeout)
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.close()

    def _run(self) -> None:  # pragma: no cover - exercised via poll_once
        changed = True  # deltas spooled before the start fold at once
        while not self._stop_event.wait(0 if changed else self._interval):
            try:
                changed = self.poll_once()
            except Exception as exc:  # noqa: BLE001 - the loop must
                # outlive any single failed cycle: a dead compactor
                # thread looks like a healthy server that silently
                # stopped folding deltas.  The error is surfaced on
                # /stats instead.
                changed = False
                self._note(error=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # one scan (also the test surface)
    # ------------------------------------------------------------------

    def pending_deltas(self) -> list[Path]:
        """Delta stores currently waiting in the spool."""
        deltas = []
        for entry in sorted(self._spool.iterdir()):
            if entry.name.startswith(".") or entry.name == APPLIED_DIR:
                continue
            if entry.is_dir() and is_sharded_store(entry):
                deltas.append(entry)
            elif entry.is_file() and entry.suffix == ".store":
                deltas.append(entry)
        return deltas

    def poll_once(self) -> bool:
        """One spool scan; returns True when the served store changed."""
        pending = self.pending_deltas()
        self._observe_spool(pending)
        usable = self._usable_deltas(pending)
        if usable:
            # compact() re-checks the manifest's folded log *under the
            # compaction lock*, so a delta folded meanwhile by another
            # compactor (or by a cycle that crashed before archiving)
            # is skipped there, never folded twice
            try:
                stats = self._fold(usable)
            except _FoldFailed as exc:
                self._note(error=str(exc))
                return False
            self._archive(usable)
            self._applied_deltas += len(usable)
            self._observe_spool(self.pending_deltas())
            if not stats.get("noop"):
                self._compactions += 1
                self._swap()
                self._note(stats=stats)
                return True
        with self._service.lease() as backend:
            served = getattr(backend, "generation", None)
        if served is not None and self._compactor.generation() != served:
            # an external `lash index compact` bumped the manifest
            self._swap()
            self._note()
            return True
        return False

    def _fold(self, deltas: Sequence[Path]) -> dict:
        """``StoreCompactor.compact(deltas)`` in the worker process; its
        stats, or :class:`_FoldFailed`.  The worker is started here, by
        the first fold that needs one: never before the server has
        announced itself, so start-up does not wait for a second
        interpreter."""
        if self._worker is None:
            self._worker = _FoldWorker()
        try:
            reply = self._worker.fold(
                {
                    "store": str(self._store_path),
                    "deltas": [str(delta) for delta in deltas],
                }
            )
        except _FoldFailed:
            self._worker = None
            raise
        self._worker_peak_rss_mb = reply["peak_rss_mb"]
        if "error" in reply:
            raise _FoldFailed(reply["error"])
        return reply["stats"]

    def _observe_spool(self, pending: Sequence[Path]) -> None:
        """Refresh the ingest-lag gauges from one spool listing: how many
        deltas wait unapplied, and how long the oldest has waited."""
        self._pending_count = len(pending)
        lag = 0.0
        now = time.time()
        for delta in pending:
            probe = delta / MANIFEST_NAME if delta.is_dir() else delta
            try:
                lag = max(lag, now - probe.stat().st_mtime)
            except OSError:
                continue
        self._lag_seconds = round(lag, 3)

    def _usable_deltas(self, deltas: Sequence[Path]) -> list[Path]:
        """Filter out deltas that cannot be opened, quarantining them by
        signature so one bad file (a crashed copy, bit rot) cannot fail
        every future batch and wedge the healthy deltas behind it."""
        usable: list[Path] = []
        pending_keys: set[tuple] = set()
        for delta in deltas:
            try:
                key = _signature_key(delta_signature(delta))
            except OSError as exc:
                self._note(error=f"{delta.name}: {exc}")
                continue
            pending_keys.add(key)
            if key in self._rejected:
                continue
            try:
                # structural probe plus CRC sweep over every byte: a
                # torn or damaged delta fails here, before it can skew
                # a frequency; compact() re-opens, but correctness of
                # the batch beats one redundant validation pass
                open_store(
                    delta, pattern_cache_size=0, postings_cache_size=0
                ).close()
            except (ReproError, OSError) as exc:
                self._rejected[key] = str(exc)
                self._note(error=f"{delta.name}: {exc}")
                continue
            usable.append(delta)
        # forget quarantined signatures whose files left the spool
        self._rejected = {
            key: error
            for key, error in self._rejected.items()
            if key in pending_keys
        }
        return usable

    def _archive(self, deltas: Sequence[Path]) -> None:
        applied = self._spool / APPLIED_DIR
        applied.mkdir(exist_ok=True)
        for delta in deltas:
            target = applied / delta.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = applied / f"{delta.name}.{suffix}"
            shutil.move(str(delta), str(target))
        self._sweep_applied(applied)

    def _sweep_applied(self, applied: Path) -> None:
        """Bound the applied-delta archive: keep only the newest
        :data:`APPLIED_RETAIN` deltas, oldest first out.  Without this
        the archive grows with corpus lifetime — one file per ingest
        batch, forever."""
        entries = []
        for entry in applied.iterdir():
            try:
                entries.append((entry.stat().st_mtime_ns, entry.name, entry))
            except OSError:
                continue
        if len(entries) <= APPLIED_RETAIN:
            return
        entries.sort()
        for _, _, entry in entries[: len(entries) - APPLIED_RETAIN]:
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink(missing_ok=True)

    def _swap(self) -> None:
        self._service.swap_backend(open_store(self._store_path))

    def _note(self, stats: dict | None = None, error: str | None = None) -> None:
        self._last_error = error
        with self._service.lease() as backend:
            served = {
                field: getattr(backend, field, None)
                for field in ("generation", "ingested_through",
                              "retained_from")
            }
        info = {
            "spool": str(self._spool),
            "compactions": self._compactions,
            "generation": served["generation"],
            "ingest": {
                "applied_deltas": self._applied_deltas,
                "pending_deltas": self._pending_count,
                "lag_seconds": self._lag_seconds,
                "ingested_through": served["ingested_through"],
                "retained_from": served["retained_from"],
            },
            # the fold's memory lives in the worker, not in this process
            "worker_pid": None if self._worker is None else self._worker.pid,
            "worker_peak_rss_mb": self._worker_peak_rss_mb,
        }
        if stats is not None:
            info["last"] = {
                key: stats[key]
                for key in ("generation", "shards", "patterns", "deltas",
                            "seconds")
            }
        if error is not None:
            info["last_error"] = error
        if self._rejected:
            # quarantined deltas stay visible across later (successful)
            # notes: they are still sitting in the spool unapplied
            info["rejected"] = {
                key[0]: message
                for key, message in sorted(self._rejected.items())
            }
        self._service.note_compaction(info)


def _worker_main() -> int:
    """The fold worker behind :class:`CompactionDaemon`.

    Reads one JSON request per line — ``{"store", "deltas"}`` — runs
    ``StoreCompactor(store).compact(deltas)`` and answers with one JSON
    line, ``{"stats"}`` or ``{"error"}``, plus its own ``peak_rss_mb``.
    Exits at end-of-input.
    """
    import resource
    import signal

    # the serving process ends this one by closing its stdin; a Ctrl-C
    # sent to the server's terminal must not tear a fold apart
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.nice(WORKER_NICENESS)
    # nothing but replies may reach the pipe the daemon parses
    replies, sys.stdout = sys.stdout, sys.stderr
    for line in iter(sys.stdin.readline, ""):
        request = json.loads(line)
        try:
            compactor = StoreCompactor(request["store"])
            reply = {"stats": compactor.compact(request["deltas"])}
        except Exception as exc:  # noqa: BLE001 - reported; the worker
            # stays up for the next fold
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        # ru_maxrss is in KiB on Linux
        reply["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        )
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


__all__ = [
    "StoreCompactor",
    "CompactionDaemon",
    "APPLIED_DIR",
    "APPLIED_RETAIN",
    "FOLDED_LOG_LIMIT",
    "delta_signature",
]


if __name__ == "__main__":
    sys.exit(_worker_main())
