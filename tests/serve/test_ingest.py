"""Live ingestion: signed delta stores, the :class:`Ingestor` state
machine, torn-publish crash safety, applied-archive retention, and the
freshness watermarks surfaced on every serving endpoint."""

import json
import os
import random
import threading
import urllib.request

import pytest

from repro.core import Lash, MiningParams
from repro.errors import EncodingError
from repro.sequence import SequenceDatabase
from repro.serve import (
    CompactionDaemon,
    Ingestor,
    QueryService,
    StoreCompactor,
    create_server,
    open_store,
    write_store,
)
from repro.serve import compact as compact_module
from repro.serve.distributed import POLL_INTERVAL
from repro.serve.format import delta_watermark, read_manifest
from repro.serve.ingest import JOURNAL_NAME, STATE_NAME

SEED = int(os.environ.get("LASH_INGEST_SEED", "20260808"))

PARAMS = MiningParams(sigma=1, gamma=1, lam=3)

BASE = [
    ["a", "b1", "a", "b1"],
    ["a", "b3", "c", "c", "b2"],
    ["a", "c"],
]
BATCH1 = [("b11", "a", "e", "a"), ("a", "b12", "d1", "c")]
BATCH2 = [("b13", "f", "d2"), ("a", "c")]


def _mine(sequences, hierarchy):
    return Lash(PARAMS).mine(SequenceDatabase(list(sequences)), hierarchy)


@pytest.fixture
def live(fig1_hierarchy, tmp_path):
    path = tmp_path / "live.shards"
    _mine(BASE, fig1_hierarchy).to_store(path, shards=3)
    return path


@pytest.fixture
def rig(live, tmp_path):
    """Store + ingestor + service + daemon, wired like ``lash serve``."""
    spool = tmp_path / "spool"
    ingestor = Ingestor.init(
        tmp_path / "state", live, spool, gamma=PARAMS.gamma, lam=PARAMS.lam
    )
    service = QueryService(open_store(live))
    daemon = CompactionDaemon(service, live, spool, interval=3600)
    yield ingestor, service, daemon, spool
    daemon.stop()
    service.backend.close()


# ----------------------------------------------------------------------
# signed delta stores
# ----------------------------------------------------------------------


class TestDeltaStores:
    def test_signed_frequencies_round_trip(self, fig1_vocabulary, tmp_path):
        patterns = {(1,): 3, (1, 2): -2, (2,): -1}
        path = tmp_path / "delta.store"
        write_store(path, patterns, fig1_vocabulary, delta=True)
        with open_store(path) as store:
            assert store.describe()["delta"] is True
            got = {
                fig1_vocabulary.encode_sequence(m.pattern): m.frequency
                for m in store
            }
        assert got == patterns

    def test_delta_writer_rejects_zero_frequency(
        self, fig1_vocabulary, tmp_path
    ):
        with pytest.raises(EncodingError, match="frequency"):
            write_store(
                tmp_path / "z.store",
                {(1,): 0},
                fig1_vocabulary,
                delta=True,
            )

    def test_plain_writer_rejects_negative(
        self, fig1_vocabulary, tmp_path
    ):
        # zero is a legal plain record (membership means "stored");
        # only decrements are reserved for delta stores
        with pytest.raises(EncodingError, match="delta"):
            write_store(
                tmp_path / "n.store", {(1,): -2}, fig1_vocabulary
            )

    def test_name_carries_the_watermark(self):
        assert delta_watermark("delta-00000000-00000002.store") == {
            "ingested_through": 2
        }
        assert delta_watermark("retire-00000002-00000005.store") == {
            "retained_from": 5
        }
        assert delta_watermark("stale.store") == {}


# ----------------------------------------------------------------------
# the ingestor state machine
# ----------------------------------------------------------------------


class TestIngestor:
    def test_init_requires_sharded_store(self, fig1_hierarchy, tmp_path):
        single = tmp_path / "single.store"
        _mine(BASE, fig1_hierarchy).to_store(single)
        with pytest.raises(EncodingError, match="sharded"):
            Ingestor.init(
                tmp_path / "state", single, tmp_path / "spool"
            )

    def test_init_twice_refuses(self, live, tmp_path):
        Ingestor.init(tmp_path / "state", live, tmp_path / "spool")
        with pytest.raises(EncodingError, match="already exists"):
            Ingestor.init(tmp_path / "state", live, tmp_path / "spool")

    def test_open_without_init(self, tmp_path):
        with pytest.raises(EncodingError, match="ingest init"):
            Ingestor.open(tmp_path / "nowhere")

    def test_init_stamps_zero_watermark(self, live, tmp_path):
        Ingestor.init(tmp_path / "state", live, tmp_path / "spool")
        assert read_manifest(live)["ingest"] == {
            "ingested_through": 0,
            "retained_from": 0,
        }

    def test_add_validates_before_journaling(self, rig, tmp_path):
        ingestor, _, _, _ = rig
        with pytest.raises(EncodingError, match="empty"):
            ingestor.add([])
        with pytest.raises(EncodingError, match="empty sequence"):
            ingestor.add([("a",), ()])
        with pytest.raises(EncodingError, match="stable"):
            ingestor.add([("a", "never-seen-item")])
        journal = tmp_path / "state" / JOURNAL_NAME
        assert journal.read_text() == ""  # nothing was journaled

    def test_add_publishes_one_delta_per_flush(self, rig):
        ingestor, _, _, spool = rig
        report = ingestor.add(BATCH1)
        assert report["published"] == "delta-00000000-00000002.store"
        assert report["ingested_through"] == 2
        # one self-verifying file: no sidecar, no staging left behind
        assert [p.name for p in spool.iterdir()] == [report["published"]]

    def test_retire_needs_published_sequences(self, rig):
        ingestor, _, _, _ = rig
        with pytest.raises(EncodingError, match="retire"):
            ingestor.retire(1)
        ingestor.add(BATCH1)
        with pytest.raises(EncodingError, match="only 2"):
            ingestor.retire(3)
        with pytest.raises(EncodingError, match=">= 1"):
            ingestor.retire(0)

    def test_status_reports_watermarks(self, rig):
        ingestor, _, _, _ = rig
        ingestor.add(BATCH1)
        ingestor.add(BATCH2)
        ingestor.retire(1)
        status = ingestor.status()
        assert status["journaled"] == 4
        assert status["published_through"] == 4
        assert status["retained_from"] == 1
        assert status["retained"] == 3
        assert len(status["spool_pending"]) == 3

    def test_flush_is_a_noop_when_clean(self, rig):
        ingestor, _, _, _ = rig
        ingestor.add(BATCH1)
        report = ingestor.flush()
        assert report["published"] is None
        assert report["ingested_through"] == 2

    def test_crash_between_publish_and_state_write_heals(
        self, rig, tmp_path
    ):
        """The delta name is a deterministic function of the sequence
        range, so a rescan adopts a published-but-unrecorded delta
        instead of publishing (and later double-applying) a second."""
        ingestor, _, _, spool = rig
        ingestor.add(BATCH1)
        state_path = tmp_path / "state" / STATE_NAME
        state = json.loads(state_path.read_text())
        # simulated crash before persist: the watermark and its journal
        # offset both still read as before the publish
        state["published_through"] = state["published_offset"] = 0
        state_path.write_text(json.dumps(state))

        reopened = Ingestor.open(tmp_path / "state")
        report = reopened.flush()
        assert report["published"] is None  # recovered, not re-published
        assert report["ingested_through"] == 2
        deltas = [p.name for p in spool.iterdir() if p.suffix == ".store"]
        assert deltas == ["delta-00000000-00000002.store"]

    def test_crash_after_retire_publish_heals_at_the_right_line(
        self, rig, tmp_path
    ):
        """Adopting a published retire moves its journal offset past the
        retired lines, so the next retire starts at the next sequence."""
        ingestor, _, _, spool = rig
        ingestor.add(BATCH1)
        ingestor.retire(1)
        state_path = tmp_path / "state" / STATE_NAME
        state = json.loads(state_path.read_text())
        state["retained_from"] = state["retained_offset"] = 0
        state_path.write_text(json.dumps(state))

        reopened = Ingestor.open(tmp_path / "state")
        assert reopened.status()["retained_from"] == 1
        report = reopened.retire(1)
        assert report["published"] == "retire-00000001-00000002.store"
        state = json.loads(state_path.read_text())
        journal = (tmp_path / "state" / JOURNAL_NAME).read_bytes()
        assert state["retained_offset"] == len(journal)

    def test_torn_journal_tail_is_cut_back_to_the_last_line(
        self, rig, tmp_path
    ):
        """An append torn by a crash leaves a last line without its
        newline; every operation cuts it away instead of refusing the
        journal, and the sequence numbers carry on from the whole
        lines."""
        ingestor, _, _, spool = rig
        ingestor.add(BATCH1)
        journal = tmp_path / "state" / JOURNAL_NAME
        whole = journal.read_bytes()
        with open(journal, "ab") as out:
            out.write(b'{"seq":2,"items":["a"')
        status = ingestor.status()
        assert (status["journaled"], status["unpublished"]) == (2, 0)
        assert journal.read_bytes() == whole
        # torn again, after one whole unpublished line: that line stays
        with open(journal, "ab") as out:
            out.write(b'{"seq":2,"items":["a","c"]}\n{"seq":3,"ite')
        assert ingestor.flush() == {
            "published": "delta-00000002-00000003.store",
            "ingested_through": 3,
        }
        with open(journal, "ab") as out:
            out.write(b'{"seq":3,')
        report = ingestor.add(BATCH2)
        assert (report["from_seq"], report["through_seq"]) == (3, 5)
        assert report["published"] == "delta-00000003-00000005.store"
        lines = journal.read_bytes().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1, 2, 3, 4]
        status = ingestor.status()
        assert (status["journaled"], status["published_through"]) == (5, 5)
        assert sorted(p.name for p in spool.iterdir()) == [
            "delta-00000000-00000002.store",
            "delta-00000002-00000003.store",
            "delta-00000003-00000005.store",
        ]

    def test_recovery_skips_an_empty_range_name(self, rig):
        """A spool name whose range is empty (written by hand, never by
        the ingester) is no step forward for recovery, not a loop."""
        ingestor, _, _, spool = rig
        ingestor.add(BATCH1)
        (spool / "delta-00000002-00000002.store").write_bytes(b"junk")
        box = {}
        worker = threading.Thread(
            target=lambda: box.update(status=ingestor.status()), daemon=True
        )
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert box["status"]["published_through"] == 2

    def test_crash_mid_delta_write_leaves_only_staging(self, rig):
        """A writer that crashed mid-write leaves ``<name>.store.tmp``,
        which the daemon never scans; the next flush overwrites it and
        publishes cleanly."""
        ingestor, _, daemon, spool = rig
        ingestor.add(BATCH1)
        # simulate a crash mid-write of the *next* delta: stale .tmp
        (spool / "delta-00000002-00000004.store.tmp").write_bytes(
            b"torn half-written delta"
        )
        assert [p.name for p in daemon.pending_deltas()] == [
            "delta-00000000-00000002.store"
        ]
        report = ingestor.add(BATCH2)
        assert report["published"] == "delta-00000002-00000004.store"
        assert not (
            spool / "delta-00000002-00000004.store.tmp"
        ).exists()


# ----------------------------------------------------------------------
# crash injection: torn deltas never fold, watermarks never regress
# ----------------------------------------------------------------------


class TestCrashInjection:
    def test_torn_delta_is_quarantined_at_random_offsets(self, rig):
        """Truncate/corrupt the published delta at randomized byte
        offsets: the daemon must reject every damaged version (the
        store's own CRCs), keep serving the old store, and never
        move the watermark — then fold the repaired bytes normally."""
        rng = random.Random(SEED)
        ingestor, service, daemon, spool = rig
        ingestor.add(BATCH1)
        daemon.poll_once()
        assert service.backend.ingested_through == 2
        before = [(m.pattern, m.frequency) for m in service.backend]

        ingestor.add(BATCH2)
        delta = spool / "delta-00000002-00000004.store"
        good = delta.read_bytes()
        for trial in range(4):
            offset = rng.randrange(1, len(good))
            if trial % 2:
                damaged = good[:offset]  # torn tail
            else:
                flipped = good[offset] ^ 0xFF
                damaged = good[:offset] + bytes([flipped]) + good[offset + 1:]
            delta.write_bytes(damaged)
            context = f"seed={SEED} trial={trial} offset={offset}"
            assert daemon.poll_once() is False, context
            assert service.backend.ingested_through == 2, (
                f"{context}: watermark moved on a torn delta"
            )
            assert [
                (m.pattern, m.frequency) for m in service.backend
            ] == before, f"{context}: torn delta changed served answers"
            rejected = service.stats()["compaction"]["rejected"]
            assert "delta-00000002-00000004.store" in rejected, context

        delta.write_bytes(good)  # repair: new signature, retried
        assert daemon.poll_once() is True
        assert service.backend.ingested_through == 4
        assert "rejected" not in service.stats()["compaction"]

    def test_torn_spool_publish_is_invisible(self, rig):
        """A crash before the writer's rename leaves a crashed writer's
        ``<name>.store.tmp`` only: no pending delta, no fold."""
        ingestor, service, daemon, spool = rig
        ingestor.add(BATCH1)
        daemon.poll_once()

        # simulate the torn second publish by hand
        name = "delta-00000002-00000004.store"
        (spool / (name + ".tmp")).write_bytes(b"half a store")
        assert daemon.pending_deltas() == []
        assert daemon.poll_once() is False
        assert service.backend.ingested_through == 2

    def test_manifest_watermark_never_regresses(
        self, live, fig1_hierarchy, tmp_path
    ):
        """Folding a delta whose name carries an older watermark must
        not move the manifest backwards (monotonic max)."""
        compactor = StoreCompactor(live)
        compactor.stamp_watermarks({"ingested_through": 9, "retained_from": 3})
        from repro.core.lash import micro_mine

        mined = micro_mine(BATCH1, fig1_hierarchy, PARAMS)
        delta = tmp_path / "delta-00000000-00000002.store"
        write_store(delta, mined.patterns, mined.vocabulary, delta=True)

        compactor.compact([delta])
        assert read_manifest(live)["ingest"] == {
            "ingested_through": 9,
            "retained_from": 3,
        }


# ----------------------------------------------------------------------
# applied-archive retention
# ----------------------------------------------------------------------


class TestAppliedRetention:
    def test_sweep_keeps_newest_applied_deltas(
        self, live, tmp_path, monkeypatch
    ):
        spool = tmp_path / "spool"
        ingestor = Ingestor.init(
            tmp_path / "state", live, spool, gamma=PARAMS.gamma,
            lam=PARAMS.lam,
        )
        service = QueryService(open_store(live))
        monkeypatch.setattr(compact_module, "APPLIED_RETAIN", 2)
        daemon = CompactionDaemon(service, live, spool, interval=3600)
        try:
            for batch in (BATCH1, BATCH2, BATCH1, BATCH2):
                ingestor.add(batch)
                assert daemon.poll_once() is True
            applied = spool / "applied"
            stores = sorted(
                p.name for p in applied.iterdir() if p.suffix == ".store"
            )
            assert stores == [
                "delta-00000004-00000006.store",
                "delta-00000006-00000008.store",
            ]
            assert service.backend.ingested_through == 8
        finally:
            daemon.stop()
            service.backend.close()


# ----------------------------------------------------------------------
# freshness on the serving surface
# ----------------------------------------------------------------------


class TestFreshnessSurface:
    def test_query_and_stats_carry_watermarks(self, rig):
        ingestor, service, daemon, _ = rig
        # before any compaction the base manifest carries the zero stamp
        assert service.query("a")["ingested_through"] == 0
        ingestor.add(BATCH1)
        ingestor.add(BATCH2)
        ingestor.retire(1)
        daemon.poll_once()
        answer = service.query("a")
        assert answer["ingested_through"] == 4
        assert answer["retained_from"] == 1
        count = service.count("a")
        assert count["ingested_through"] == 4
        stats = service.stats()
        assert stats["freshness"] == {
            "ingested_through": 4,
            "retained_from": 1,
        }
        ingest = stats["compaction"]["ingest"]
        assert ingest["applied_deltas"] == 3
        assert ingest["pending_deltas"] == 0

    def test_http_endpoints_and_metrics(self, rig):
        ingestor, service, daemon, _ = rig
        ingestor.add(BATCH1)
        daemon.poll_once()
        server = create_server(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True
        )
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_port}"
            with urllib.request.urlopen(
                base + "/query?q=a", timeout=10
            ) as response:
                body = json.loads(response.read())
            assert body["ingested_through"] == 2
            assert body["retained_from"] == 0
            with urllib.request.urlopen(
                base + "/stats", timeout=10
            ) as response:
                stats = json.loads(response.read())
            assert stats["freshness"]["ingested_through"] == 2
            with urllib.request.urlopen(
                base + "/metrics", timeout=10
            ) as response:
                metrics = response.read().decode()
            assert "lash_ingested_through 2" in metrics
            assert "lash_ingest_applied_deltas_total 1" in metrics
            assert "lash_ingest_pending_deltas 0" in metrics
            assert "lash_ingest_lag_seconds" in metrics
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
