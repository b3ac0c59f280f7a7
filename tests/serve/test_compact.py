"""Online compaction: atomic manifest swaps under live readers."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core import Lash, MiningParams
from repro.errors import EncodingError
from repro.sequence import SequenceDatabase
from repro.serve import (
    CompactionDaemon,
    QueryService,
    StoreCompactor,
    create_server,
    merge_stores,
    open_store,
)
from repro.serve import compact as compact_module
from repro.serve.distributed import POLL_INTERVAL
from repro.serve.format import read_manifest, shard_filename

SRC = Path(repro.__file__).resolve().parents[1]

CORPUS_A = [
    ["a", "b1", "a", "b1"],
    ["a", "b3", "c", "c", "b2"],
    ["a", "c"],
]
CORPUS_B = [
    ["b11", "a", "e", "a"],
    ["a", "b12", "d1", "c"],
    ["b13", "f", "d2"],
    ["a", "c"],
]

QUERIES = ["a ?", "^B ?", "*", "a + a", "^D"]


def _mine(sequences, hierarchy):
    return Lash(MiningParams(sigma=1, gamma=1, lam=3)).mine(
        SequenceDatabase(sequences), hierarchy
    )


@pytest.fixture
def base(fig1_hierarchy, tmp_path):
    path = tmp_path / "base.shards"
    _mine(CORPUS_A, fig1_hierarchy).to_store(path, shards=3)
    return path


@pytest.fixture
def delta(fig1_hierarchy, tmp_path):
    path = tmp_path / "delta.store"
    _mine(CORPUS_B, fig1_hierarchy).to_store(path)
    return path


class _Parked:
    """A backend whose searches wait on ``release`` after announcing
    themselves on ``entered``: a request parked inside the backend."""

    def __init__(self, inner):
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.closed = False

    def search_answer(self, *args, **kwargs):
        self.entered.set()
        self.release.wait(10)
        return self._inner.search_answer(*args, **kwargs)

    def close(self):
        self.closed = True
        self._inner.close()

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Guarded:
    """A backend that records every use that starts or ends after its
    ``close()``; the store it wraps is shared and stays open.  Each call
    lasts at least a millisecond, so a swap can land inside it."""

    def __init__(self, inner, misuse: list):
        self._inner = inner
        self._misuse = misuse
        self.closed = 0

    def close(self):
        self.closed += 1

    def _check(self, name):
        if self.closed:
            self._misuse.append(name)

    def __len__(self):
        return self.__getattr__("__len__")()

    def __getattr__(self, name):
        self._check(name)
        value = getattr(self._inner, name)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            try:
                time.sleep(0.001)
                return value(*args, **kwargs)
            finally:
                self._check(name)

        return call


def _gone(pid: int, timeout: float = 10.0) -> bool:
    """Whether process ``pid`` has exited (a zombie counts) in time."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/status") as status:
                state = next(
                    line.split()[1] for line in status
                    if line.startswith("State:")
                )
        except (FileNotFoundError, ProcessLookupError):
            return True
        if state in ("Z", "X"):
            return True
        time.sleep(0.05)
    return False


def _worker_pid(service, timeout: float = 30.0) -> int:
    """The fold worker's pid as ``/stats`` publishes it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pid = (service.stats().get("compaction") or {}).get("worker_pid")
        if pid is not None:
            return pid
        time.sleep(0.05)
    raise AssertionError("no fold worker was published on /stats")


def _same_shards(left, right) -> bool:
    """Pairwise byte equality through each manifest's shard list."""
    pairs = list(
        zip(read_manifest(left)["shard_files"],
            read_manifest(right)["shard_files"])
    )
    return bool(pairs) and all(
        (left / a).read_bytes() == (right / b).read_bytes() for a, b in pairs
    )


class TestStoreCompactor:
    def test_compact_equals_offline_merge(
        self, base, delta, fig1_hierarchy, tmp_path
    ):
        """Folding a delta in place produces shard files byte-identical
        to an offline ``merge_stores`` (and therefore to a full rebuild
        over the union, per the merge equivalence suite)."""
        reference = tmp_path / "reference.shards"
        merge_stores([base, delta], reference, shards=3)

        stats = StoreCompactor(base).compact([delta])
        assert stats["generation"] == 1
        assert stats["deltas"] == 1
        for i in range(3):
            compacted = base / shard_filename(i, 3, generation=1)
            assert compacted.read_bytes() == (
                reference / shard_filename(i, 3)
            ).read_bytes()

    def test_generation_bumps_and_old_files_retire_one_swap_late(
        self, base, delta
    ):
        old_files = read_manifest(base)["shard_files"]
        StoreCompactor(base).compact([delta])
        manifest = read_manifest(base)
        assert manifest["generation"] == 1
        assert manifest["shard_files"] == [
            shard_filename(i, 3, generation=1) for i in range(3)
        ]
        # generation 0 survives one swap: readers opened against the old
        # manifest may still lazily open these shards
        assert manifest["previous_files"] == old_files
        for name in old_files:
            assert (base / name).exists()
        # ... and is gone after the next swap
        StoreCompactor(base).compact()
        for name in old_files:
            assert not (base / name).exists()
        assert read_manifest(base)["previous_files"] == [
            shard_filename(i, 3, generation=1) for i in range(3)
        ]

    def test_rebalance_without_deltas(self, base, delta):
        StoreCompactor(base).compact([delta])
        with open_store(base) as before:
            expected = list(before)
        stats = StoreCompactor(base).compact(shards=5)
        assert stats["generation"] == 2
        assert stats["shards"] == 5
        with open_store(base) as store:
            assert store.num_shards == 5
            assert list(store) == expected

    def test_repeated_compactions(self, base, delta, fig1_hierarchy, tmp_path):
        other = tmp_path / "other.store"
        _mine([["e", "f"], ["a", "c"]], fig1_hierarchy).to_store(other)
        StoreCompactor(base).compact([delta])
        StoreCompactor(base).compact([other])
        assert read_manifest(base)["generation"] == 2

        reference = tmp_path / "reference.shards"
        merge_stores([tmp_path / "delta.store", other], reference, shards=3)
        # compare through the backends (filenames differ by generation)
        with open_store(base) as compacted:
            rebuilt = tmp_path / "all.shards"
            merge_stores([base], rebuilt, shards=3)
            for query in QUERIES:
                with open_store(rebuilt) as expected:
                    assert compacted.search(query) == expected.search(query)

    def test_single_file_store_rejected(self, delta):
        with pytest.raises(EncodingError, match="not a sharded store"):
            StoreCompactor(delta)

    def test_crash_before_manifest_swap_leaves_store_intact(
        self, base, delta, monkeypatch
    ):
        """A failure after the new generation's shards are written but
        before the manifest swap must leave the old generation fully
        readable and clean up the orphaned new files."""
        before = read_manifest(base)
        with open_store(base) as store:
            expected = list(store)

        def explode(*args, **kwargs):
            raise RuntimeError("simulated crash before manifest swap")

        monkeypatch.setattr(compact_module, "write_manifest", explode)
        with pytest.raises(RuntimeError, match="simulated crash"):
            StoreCompactor(base).compact([delta])
        monkeypatch.undo()

        assert read_manifest(base) == before
        for i in range(3):
            assert not (base / shard_filename(i, 3, generation=1)).exists()
        with open_store(base) as store:
            assert list(store) == expected

    def test_crash_recovery_next_compaction_succeeds(
        self, base, delta, tmp_path, monkeypatch
    ):
        attempted = {"fail": True}
        real_write_manifest = compact_module.write_manifest

        def flaky(*args, **kwargs):
            if attempted.pop("fail", None):
                raise OSError("disk hiccup")
            return real_write_manifest(*args, **kwargs)

        monkeypatch.setattr(compact_module, "write_manifest", flaky)
        with pytest.raises(OSError):
            StoreCompactor(base).compact([delta])
        StoreCompactor(base).compact([delta])
        assert read_manifest(base)["generation"] == 1

        reference = tmp_path / "reference.shards"
        merge_stores([tmp_path / "delta.store"], reference, shards=3)
        with open_store(base) as compacted:
            assert len(compacted) > 0

    def test_concurrent_reader_never_sees_a_torn_index(self, base, delta):
        """The acceptance criterion: a ShardedPatternStore querying
        throughout repeated compactions keeps answering from its
        generation — every answer matches either the pre- or the
        post-compaction state, never an error or a mix."""
        reader = open_store(base)
        with open_store(base) as snapshot:
            expected = {q: snapshot.search(q) for q in QUERIES}
        errors: list[BaseException] = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    for query in QUERIES:
                        # the reader was opened at generation 0 and keeps
                        # its mmaps: answers must stay exactly the old ones
                        assert reader.search(query) == expected[query]
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            StoreCompactor(base).compact([delta])
            StoreCompactor(base).compact(shards=5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        reader.close()
        assert not errors
        # a fresh open sees the fully compacted generation
        with open_store(base) as fresh:
            assert fresh.generation == 2
            assert fresh.num_shards == 5
            assert len(fresh) >= len(expected["*"])


class TestCompactionDaemon:
    def _service(self, base):
        store = open_store(base)
        return QueryService(store)

    def test_poll_folds_spooled_delta(self, base, delta, tmp_path):
        service = self._service(base)
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / delta.name)
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        try:
            before = len(service.backend)
            assert daemon.poll_once() is True
            assert service.backend.generation == 1
            assert len(service.backend) > before
            # consumed deltas are archived, not rescanned
            assert daemon.pending_deltas() == []
            assert (spool / "applied" / delta.name).exists()
            assert daemon.poll_once() is False
            stats = service.stats()
            assert stats["compaction"]["compactions"] == 1
            assert stats["compaction"]["generation"] == 1
            assert stats["compaction"]["last"]["deltas"] == 1
        finally:
            daemon.stop()
            service.backend.close()

    def test_poll_reopens_after_external_compaction(
        self, base, delta, tmp_path
    ):
        service = self._service(base)
        spool = tmp_path / "spool"
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        try:
            # an operator runs `lash index compact` out of band
            StoreCompactor(base).compact([delta])
            assert service.backend.generation == 0
            assert daemon.poll_once() is True
            assert service.backend.generation == 1
        finally:
            daemon.stop()
            service.backend.close()

    def test_in_flight_backend_survives_swap(
        self, base, delta, fig1_hierarchy, tmp_path
    ):
        """A request parked inside the backend keeps the retired
        generation open across a swap, and that generation closes when
        the request returns; with no request in flight the next
        retired generation closes at the swap itself."""
        parked = _Parked(open_store(base))
        service = QueryService(parked)
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / "delta.store")
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        answers = []
        request = threading.Thread(
            target=lambda: answers.append(service.query("a ?"))
        )
        try:
            request.start()
            assert parked.entered.wait(10)
            assert daemon.poll_once() is True
            assert service.backend.generation == 1
            # retired by the swap, still held by the parked request
            assert not parked.closed
            assert service.stats()["compaction"]["retired_open"] == 1
            parked.release.set()
            request.join(10)
            assert answers and answers[0]["matches"]
            assert parked.closed
            assert service.stats()["compaction"]["retired_open"] == 0

            generation1 = service.backend
            _mine(CORPUS_B, fig1_hierarchy).to_store(spool / "more.store")
            assert daemon.poll_once() is True
            with pytest.raises(ValueError, match="closed"):
                generation1.search("a ?")
        finally:
            parked.release.set()
            daemon.stop()
            service.backend.close()

    def test_daemon_thread_runs(self, base, delta, tmp_path):
        service = self._service(base)
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / "delta.store")
        daemon = CompactionDaemon(service, base, spool, interval=0.05)
        daemon.start()
        try:
            deadline = threading.Event()
            for _ in range(100):
                if service.backend.generation == 1:
                    break
                deadline.wait(0.1)
            assert service.backend.generation == 1
        finally:
            daemon.stop()
            service.backend.close()


class TestReviewRegressions:
    """Regressions for the race/crash findings of the pipeline review."""

    def test_stale_miss_not_cached_across_swap(self, base):
        """A cache miss computed against the pre-swap backend must not
        be inserted after swap_backend cleared the cache."""
        store = open_store(base)

        class SwappingBackend:
            """Backend whose search triggers a swap mid-computation —
            the deterministic version of the daemon racing a request."""

            def __init__(self, inner):
                self._inner = inner

            def search_answer(
                self, query, limit=None, min_freq=None, cost=None
            ):
                answer = self._inner.search_answer(query, limit=limit)
                service.swap_backend(self._inner)
                return answer

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def close(self):
                pass  # the wrapper does not own the store it wraps

        service = QueryService(SwappingBackend(store))
        service.query("a ?")
        try:
            assert service.stats()["cache_entries"] == 0
            # the same query afterwards computes (and caches) fresh
            service.query("a ?")
            assert service.stats()["cache_entries"] == 1
        finally:
            store.close()

    def test_idle_reader_survives_many_compactions(self, base, delta):
        """A reader that never reopens (plain `lash serve`) pins every
        shard inode at mount, so compactions that unlink its generation
        — even several of them — cannot break its lazy shard opens."""
        reader = open_store(base)
        try:
            with open_store(base) as snapshot:
                expected = {q: snapshot.search(q) for q in QUERIES}
            StoreCompactor(base).compact([delta])
            StoreCompactor(base).compact(shards=5)
            StoreCompactor(base).compact(shards=2)
            # generation 0 files are long gone from the directory
            assert not list(base.glob("shard-*-of-00003.store"))
            # first-ever reads on the stale handle still work and
            # answer from its own generation
            for query in QUERIES:
                assert reader.search(query) == expected[query]
            # the hash-routed exact-lookup path opens one shard lazily
            assert reader.frequency("a", "c") > 0
        finally:
            reader.close()

    def test_crash_between_compact_and_archive_never_refolds(
        self, base, delta, tmp_path, monkeypatch
    ):
        """If the daemon dies after the manifest swap but before moving
        the delta to applied/, the next scan must archive it, not fold
        it a second time (which would double its frequencies)."""
        service = QueryService(open_store(base))
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / "delta.store")
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        real_archive = CompactionDaemon._archive
        monkeypatch.setattr(
            CompactionDaemon,
            "_archive",
            lambda self, deltas: (_ for _ in ()).throw(
                OSError("simulated crash before archive")
            ),
        )
        try:
            with pytest.raises(OSError, match="before archive"):
                daemon.poll_once()
            # folded, but still sitting in the spool
            assert daemon.pending_deltas() != []
            frequencies = {
                match.pattern: match.frequency
                for match in open_store(base)
            }
            monkeypatch.setattr(CompactionDaemon, "_archive", real_archive)
            daemon.poll_once()
            # archived without a second fold: frequencies unchanged
            assert daemon.pending_deltas() == []
            assert (spool / "applied" / "delta.store").exists()
            with open_store(base) as store:
                after = {m.pattern: m.frequency for m in store}
            assert after == frequencies
            assert read_manifest(base)["generation"] == 1
        finally:
            daemon.stop()
            service.backend.close()

    def test_concurrent_compactions_serialize(self, base, delta, tmp_path):
        """Two compactors racing the same store queue on the advisory
        lock instead of both building the same generation."""
        import threading as _threading

        compactor = StoreCompactor(base)
        started = _threading.Event()
        finished = _threading.Event()

        def background():
            started.set()
            StoreCompactor(base).compact()
            finished.set()

        with compactor._exclusive():
            thread = _threading.Thread(target=background)
            thread.start()
            started.wait(5)
            assert not finished.wait(0.3), "compact ran despite held lock"
        thread.join(timeout=10)
        assert finished.is_set()
        # both compactions landed, one after the other
        compactor.compact([delta])
        assert read_manifest(base)["generation"] == 2


class TestSecondReviewRegressions:
    def test_folded_log_always_covers_current_batch(
        self, base, fig1_hierarchy, tmp_path, monkeypatch
    ):
        """Truncating the folded log below the just-folded batch would
        let a crash-before-archive re-fold the dropped deltas."""
        monkeypatch.setattr(compact_module, "FOLDED_LOG_LIMIT", 2)
        deltas = []
        for i in range(5):
            path = tmp_path / f"batch{i}.store"
            _mine([["a", "c"], ["e", "f"]], fig1_hierarchy).to_store(path)
            deltas.append(path)
        StoreCompactor(base).compact(deltas)
        log = read_manifest(base)["folded_log"]
        assert {entry["name"] for entry in log} == {
            f"batch{i}.store" for i in range(5)
        }

    def test_corrupt_shard_raises_store_error_on_every_query(self, base):
        """A failed lazy shard open must not poison the pinned handle:
        every retry reports the real StoreCorruptError (HTTP 503), never
        ValueError on a closed file (HTTP 500)."""
        from repro.errors import StoreCorruptError

        victim = next(base.glob("shard-*.store"))
        blob = bytearray(victim.read_bytes())
        blob[-10] ^= 0xFF
        victim.write_bytes(blob)
        with open_store(base) as store:
            for _ in range(3):
                with pytest.raises(StoreCorruptError):
                    store.search("*")

    def test_daemon_loop_survives_unexpected_exception(
        self, base, tmp_path, monkeypatch
    ):
        service = QueryService(open_store(base))
        spool = tmp_path / "spool"
        daemon = CompactionDaemon(service, base, spool, interval=0.02)
        calls = {"n": 0}

        def explode(self):
            calls["n"] += 1
            raise TypeError("unexpected")

        monkeypatch.setattr(CompactionDaemon, "poll_once", explode)
        daemon.start()
        try:
            for _ in range(100):
                if calls["n"] >= 2:
                    break
                threading.Event().wait(0.05)
            # the thread took (at least) two laps through the failure
            assert calls["n"] >= 2
            assert daemon._thread.is_alive()
            assert "TypeError" in service.stats()["compaction"]["last_error"]
        finally:
            daemon.stop()
            service.backend.close()

    def test_sweep_reclaims_orphaned_generations(self, base, delta):
        """Shard files stranded by a crash between a manifest swap and
        its unlink loop are reclaimed by the next compaction's sweep."""
        orphan = base / shard_filename(0, 9, generation=7)
        orphan.write_bytes(b"stale generation leftovers")
        crashed_tmp = base / (shard_filename(1, 9, generation=7) + ".tmp")
        crashed_tmp.write_bytes(b"half-written shard")
        StoreCompactor(base).compact([delta])
        assert not orphan.exists()
        assert not crashed_tmp.exists()
        with open_store(base) as store:
            assert len(store) > 0


class TestThirdReviewRegressions:
    def test_refold_of_already_folded_delta_is_a_noop(self, base, delta):
        """compact() consults the folded log under its own lock, so a
        racing caller handing it an already-folded delta cannot double
        the delta's frequencies."""
        StoreCompactor(base).compact([delta])
        with open_store(base) as store:
            frequencies = {m.pattern: m.frequency for m in store}
        stats = StoreCompactor(base).compact([delta])
        assert stats["noop"] is True
        assert stats["skipped_deltas"] == ["delta.store"]
        assert read_manifest(base)["generation"] == 1
        with open_store(base) as store:
            assert {m.pattern: m.frequency for m in store} == frequencies

    def test_refold_skipped_even_during_rebalance(self, base, delta):
        StoreCompactor(base).compact([delta])
        with open_store(base) as store:
            frequencies = {m.pattern: m.frequency for m in store}
        stats = StoreCompactor(base).compact([delta], shards=5)
        assert stats["skipped_deltas"] == ["delta.store"]
        assert stats["deltas"] == 0
        with open_store(base) as store:
            assert store.num_shards == 5
            assert {m.pattern: m.frequency for m in store} == frequencies

    def test_one_bad_delta_does_not_wedge_the_spool(
        self, base, delta, tmp_path
    ):
        """A garbage file in the spool is quarantined; the healthy
        deltas around it keep folding."""
        service = QueryService(open_store(base))
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "bad.store").write_bytes(b"this is not a pattern store")
        delta.rename(spool / "good.store")
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        try:
            assert daemon.poll_once() is True
            assert service.backend.generation == 1
            assert (spool / "applied" / "good.store").exists()
            # the bad delta stays pending (an operator can inspect it),
            # is reported, and does not fail later scans
            assert [d.name for d in daemon.pending_deltas()] == ["bad.store"]
            assert "bad.store" in service.stats()["compaction"]["rejected"]
            assert daemon.poll_once() is False
        finally:
            daemon.stop()
            service.backend.close()


class TestFoldWorker:
    """The fold runs in a worker process the daemon owns."""

    def test_fold_runs_in_another_process_byte_equal_to_in_process(
        self, base, delta, tmp_path, monkeypatch
    ):
        reference = tmp_path / "reference.shards"
        shutil.copytree(base, reference)
        StoreCompactor(reference).compact([delta])

        def in_this_process(*args, **kwargs):
            raise AssertionError("the serving process ran a fold")

        monkeypatch.setattr(StoreCompactor, "compact", in_this_process)
        service = QueryService(open_store(base))
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / delta.name)
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        try:
            assert daemon.poll_once() is True
            compaction = service.stats()["compaction"]
            assert compaction["worker_pid"] not in (None, os.getpid())
            assert compaction["worker_peak_rss_mb"] > 0
            assert service.backend.generation == 1
            assert _same_shards(base, reference)
        finally:
            daemon.stop()
            service.backend.close()

    def test_killed_worker_is_one_failed_cycle(
        self, base, delta, fig1_hierarchy, tmp_path
    ):
        service = QueryService(open_store(base))
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / "first.store")
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        try:
            assert daemon.poll_once() is True
            pid = service.stats()["compaction"]["worker_pid"]
            os.kill(pid, signal.SIGKILL)
            _mine(CORPUS_A, fig1_hierarchy).to_store(spool / "second.store")

            assert daemon.poll_once() is False
            compaction = service.stats()["compaction"]
            assert f"fold worker {pid} died" in compaction["last_error"]
            assert [d.name for d in daemon.pending_deltas()] == [
                "second.store"
            ]
            assert service.backend.generation == 1

            # the next scan starts a fresh worker and folds the delta
            assert daemon.poll_once() is True
            compaction = service.stats()["compaction"]
            assert "last_error" not in compaction
            assert compaction["worker_pid"] not in (None, pid)
            assert daemon.pending_deltas() == []
            assert service.backend.generation == 2
        finally:
            daemon.stop()
            service.backend.close()

    def test_delta_dropped_during_a_fold_is_folded_at_once(
        self, base, delta, fig1_hierarchy, tmp_path, monkeypatch
    ):
        """A scan that changed the store is followed by the next at
        once: ``interval`` is only the wait on an empty spool."""
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / "first.store")
        late = tmp_path / "late.store"
        _mine(CORPUS_A, fig1_hierarchy).to_store(late)
        real_archive = CompactionDaemon._archive

        def archive_while_a_delta_lands(self, deltas):
            if late.exists():
                late.rename(spool / late.name)
            real_archive(self, deltas)

        monkeypatch.setattr(
            CompactionDaemon, "_archive", archive_while_a_delta_lands
        )
        service = QueryService(open_store(base))
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        daemon.start()
        try:
            deadline = time.monotonic() + 30
            while service.backend.generation < 2:
                assert time.monotonic() < deadline, "the late delta waited"
                time.sleep(0.05)
            assert daemon.pending_deltas() == []
            assert service.stats()["compaction"]["compactions"] == 2
        finally:
            daemon.stop()
            service.backend.close()

    def test_stop_leaves_no_worker(self, base, delta, tmp_path):
        service = QueryService(open_store(base))
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / delta.name)
        daemon = CompactionDaemon(service, base, spool, interval=3600)
        daemon.start()
        try:
            pid = _worker_pid(service)
        finally:
            daemon.stop()
            service.backend.close()
        assert _gone(pid)

    def test_sigkill_of_the_server_leaves_no_worker(
        self, base, delta, tmp_path
    ):
        spool = tmp_path / "spool"
        spool.mkdir()
        delta.rename(spool / delta.name)  # folded by the first scan
        env = dict(os.environ, PYTHONPATH=str(SRC))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store",
             str(base), "--port", "0", "--compact-spool", str(spool),
             "--compact-interval", "3600"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            port = None
            for line in server.stdout:
                match = re.search(r"http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                if "compacting deltas" in line:
                    break
            assert port is not None
            deadline = time.monotonic() + 30
            pid = None
            while pid is None:
                assert time.monotonic() < deadline, "no worker published"
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/stats", timeout=5
                ) as response:
                    stats = json.load(response)
                pid = (stats.get("compaction") or {}).get("worker_pid")
                time.sleep(0.05)
            assert pid != server.pid
            server.kill()
            server.wait(10)
            assert _gone(pid)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(10)
            server.stdout.close()


class TestRetirementByLastReader:
    def test_readers_never_touch_a_closed_backend(self, base):
        """8 threads of query / stats() / ``/healthz`` over 50 swaps: no
        read starts or ends on a closed backend, every replaced backend
        is closed exactly once, the served one never."""
        store = open_store(base)
        misuse: list[str] = []
        served = [_Guarded(store, misuse)]
        service = QueryService(served[0])
        server = create_server(service, port=0)
        threading.Thread(
            target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True
        ).start()
        healthz = f"http://127.0.0.1:{server.server_port}/healthz"
        stop = threading.Event()
        errors: list[BaseException] = []

        def read(kind: str, seed: int) -> None:
            turn = seed
            try:
                while not stop.is_set():
                    turn += 1
                    if kind == "query":
                        # the σ override varies the cache key, so reads
                        # reach the backend between swaps too
                        service.query(
                            QUERIES[turn % len(QUERIES)],
                            min_freq=turn % 4 or None,
                        )
                    elif kind == "stats":
                        service.stats()
                    else:
                        with urllib.request.urlopen(
                            healthz, timeout=10
                        ) as response:
                            assert response.status == 200
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        kinds = ["query"] * 4 + ["stats"] * 2 + ["healthz"] * 2
        readers = [
            threading.Thread(target=read, args=(kind, seed))
            for seed, kind in enumerate(kinds)
        ]
        for reader in readers:
            reader.start()
        try:
            for _ in range(50):
                time.sleep(0.005)
                served.append(_Guarded(store, misuse))
                service.swap_backend(served[-1])
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            server.shutdown()
            server.server_close()
            store.close()
        assert not errors, errors[:3]
        assert misuse == []
        assert [backend.closed for backend in served[:-1]] == [1] * 50
        assert served[-1].closed == 0
