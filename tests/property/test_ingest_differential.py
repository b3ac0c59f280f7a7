"""Differential fuzzing of the live-ingestion update phase.

The update-phase discipline mirrors the query differential suite: random
interleavings of the three live operations — ``ingest add`` (journal a
batch, publish its increment delta), ``ingest retire`` (publish a
decrement delta for the oldest retained window) and a compaction cycle
(fold every pending delta into the live shard set, swap the manifest) —
are checked after every compaction against the naive oracle: a **full
re-mine of the retained corpus** at σ=1.  The comparison is maximal:

* the ranked ``(pattern, frequency)`` listing of the live store must
  equal the oracle's store listing entry for entry, and
* the live shard files must be **byte-identical** to a fresh build of
  the oracle's mining result over the same shard count — the paper's
  additivity of document support and of the generalized f-list, pushed
  all the way down to the bytes;
* every ``/query``-level answer carries the freshness watermarks
  (``ingested_through`` / ``retained_from``) matching exactly what has
  been journaled and retired at that point.

``LASH_INGEST_SEED`` reseeds the generator (CI runs the fixed default
plus one randomized seed per build) and ``LASH_INGEST_RUNS`` scales the
number of random interleavings.  Failures carry the seed/run/op-trace
context, and when ``LASH_INGEST_ARTIFACT_DIR`` is set a failing run
writes a replay bundle (corpus, hierarchy, op trace, replay command)
for CI to upload.

A companion property holds the decrement-aware ``merge_stores`` to the
same standard: folding any arrival order or grouping of signed deltas
produces the same bytes, and patterns whose summed support crosses
below σ=1 are dropped exactly as a re-mine would drop them.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

from repro import Hierarchy, Lash, MiningParams, SequenceDatabase
from repro.core.lash import micro_mine
from repro.query.build import negate_vocabulary
from repro.serve import (
    CompactionDaemon,
    Ingestor,
    QueryService,
    merge_stores,
    open_store,
    write_store,
)
from repro.serve.format import read_manifest
from repro.serve.ingest import JOURNAL_NAME, STATE_NAME

SEED = int(os.environ.get("LASH_INGEST_SEED", "20260808"))
N_RUNS = int(os.environ.get("LASH_INGEST_RUNS", "5"))
OPS_PER_RUN = 12
ARTIFACT_DIR = os.environ.get("LASH_INGEST_ARTIFACT_DIR")


def _random_hierarchy(rng: random.Random) -> Hierarchy:
    """A random forest with occasional extra DAG edges (the same shape
    family the query differential suite draws from)."""
    n = rng.randint(3, 8)
    names = [f"i{k}" for k in range(n)]
    hierarchy = Hierarchy()
    for idx, name in enumerate(names):
        parent = None
        if idx and rng.random() < 0.6:
            parent = names[rng.randrange(idx)]
        hierarchy.add_item(name, parent)
    for idx in range(2, n):
        if rng.random() < 0.15:
            candidate = names[rng.randrange(idx)]
            if candidate not in hierarchy.ancestors_or_self(names[idx]):
                hierarchy.add_edge(names[idx], candidate)
    return hierarchy


def _random_sequences(rng: random.Random, names, count: int):
    return [
        tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
        for _ in range(count)
    ]


def _ranked(backend):
    return [(m.pattern, m.frequency) for m in backend]


def _dump_replay_bundle(base, hierarchy, ops, context: str) -> str:
    """Failing run as loadable files + the one replay command."""
    if not ARTIFACT_DIR:
        return ""
    bundle = Path(ARTIFACT_DIR) / f"ingest-seed-{SEED}"
    bundle.mkdir(parents=True, exist_ok=True)
    SequenceDatabase([list(s) for s in base]).to_file(bundle / "corpus.txt")
    hierarchy.to_file(bundle / "hierarchy.txt")
    (bundle / "failure.json").write_text(
        json.dumps(
            {"seed": SEED, "runs": N_RUNS, "ops": ops, "context": context},
            indent=2,
        )
    )
    (bundle / "replay.txt").write_text(
        f"LASH_INGEST_SEED={SEED} LASH_INGEST_RUNS={N_RUNS} "
        "PYTHONPATH=src python -m pytest -q "
        "tests/property/test_ingest_differential.py\n"
    )
    return f" [replay bundle: {bundle}]"


def test_update_differential_random_interleavings(tmp_path):
    """Random add/retire/compact interleavings vs the re-mine oracle."""
    rng = random.Random(SEED)
    adds = retires = verified = 0
    for run in range(N_RUNS):
        hierarchy = _random_hierarchy(rng)
        names = list(hierarchy.items)
        params = MiningParams(
            sigma=1, gamma=rng.choice([0, 1, None]), lam=rng.randint(2, 3)
        )
        base = _random_sequences(rng, names, rng.randint(2, 5))
        shards = rng.randint(2, 4)
        store_dir = tmp_path / f"run{run}.shards"
        Lash(params).mine(SequenceDatabase(list(base)), hierarchy).to_store(
            store_dir, shards=shards
        )
        spool = tmp_path / f"run{run}.spool"
        state_dir = tmp_path / f"run{run}.state"
        ingestor = Ingestor.init(
            state_dir,
            store_dir,
            spool,
            gamma=params.gamma,
            lam=params.lam,
        )
        service = QueryService(open_store(store_dir))
        daemon = CompactionDaemon(service, store_dir, spool, interval=3600)
        journal: list[tuple[str, ...]] = []
        retired = 0
        ops: list[str] = []

        def verify(oracle_tag: str) -> None:
            nonlocal verified
            context = (
                f"seed={SEED} run={run} after={oracle_tag} ops={ops!r}"
            )
            retained = base + journal[retired:]
            oracle = Lash(params).mine(
                SequenceDatabase(list(retained)), hierarchy
            )
            oracle_dir = tmp_path / f"run{run}.oracle{len(ops)}.shards"
            oracle.to_store(oracle_dir, shards=shards)
            with open_store(oracle_dir) as want:
                assert _ranked(service.backend) == _ranked(want), (
                    f"{context}: live ranking diverges from re-mine "
                    "of the retained corpus"
                )
            live_files = read_manifest(store_dir)["shard_files"]
            want_files = read_manifest(oracle_dir)["shard_files"]
            for live_name, want_name in zip(live_files, want_files):
                assert (store_dir / live_name).read_bytes() == (
                    oracle_dir / want_name
                ).read_bytes(), (
                    f"{context}: shard {live_name} not byte-identical "
                    f"to rebuilt {want_name}"
                )
            if names:
                answer = service.query(rng.choice(names))
                assert answer["ingested_through"] == len(journal), context
                assert answer["retained_from"] == retired, context
            stats = service.stats()
            assert stats["freshness"]["ingested_through"] == len(journal), (
                context
            )
            _check_journal_offsets(state_dir, len(journal), context)
            verified += 1

        try:
            for step in range(OPS_PER_RUN):
                retirable = len(journal) - retired
                roll = rng.random()
                if step == 0 or roll < 0.45:
                    batch = _random_sequences(
                        rng, names, rng.randint(1, 3)
                    )
                    report = ingestor.add(batch)
                    journal.extend(batch)
                    assert report["ingested_through"] == len(journal)
                    ops.append(f"add[{len(batch)}]")
                    adds += 1
                elif roll < 0.7 and retirable:
                    # occasionally retire the whole retained window so
                    # the all-contributions-cancel path gets exercised
                    count = (
                        retirable
                        if rng.random() < 0.2
                        else rng.randint(1, retirable)
                    )
                    report = ingestor.retire(count)
                    retired += count
                    assert report["retained_from"] == retired
                    ops.append(f"retire[{count}]")
                    retires += 1
                else:
                    daemon.poll_once()
                    ops.append("compact")
                    verify("compact")
            daemon.poll_once()
            ops.append("compact")
            verify("final")
        except AssertionError as exc:
            raise AssertionError(
                str(exc) + _dump_replay_bundle(base, hierarchy, ops, str(exc))
            ) from exc
        finally:
            service.backend.close()
    assert adds >= N_RUNS, f"only {adds} add ops executed"
    assert retires >= 1, "no retire op was ever drawn"
    assert verified >= N_RUNS, f"only {verified} oracle verifications ran"


def _check_journal_offsets(state_dir: Path, journaled: int, context: str):
    """Each watermark's journal offset is where the line whose ``seq``
    is that watermark starts, or the end of the journal once the
    watermark has reached it."""
    state = json.loads((state_dir / STATE_NAME).read_text())
    data = (state_dir / JOURNAL_NAME).read_bytes()
    for mark, field in (
        ("published", "published_through"),
        ("retained", "retained_from"),
    ):
        offset, watermark = state[f"{mark}_offset"], state[field]
        if offset == len(data):
            assert watermark == journaled, (
                f"{context}: {mark} offset at EOF but {field}={watermark}"
            )
            continue
        assert offset == 0 or data[offset - 1:offset] == b"\n", (
            f"{context}: {mark} offset {offset} is not a line start"
        )
        line = data[offset:data.index(b"\n", offset)]
        assert json.loads(line)["seq"] == watermark, (
            f"{context}: {mark} offset {offset} points at {line!r}, "
            f"not seq {watermark}"
        )


def test_decrement_merge_order_and_grouping_invariant(tmp_path):
    """Folding signed deltas is associative and commutative to the byte.

    One base store plus increment and decrement deltas, merged (a) all
    at once, (b) one at a time in several shuffled arrival orders, and
    (c) with random delta subsets pre-combined into intermediate delta
    stores (``as_delta=True``) first — every path must produce the same
    bytes, and they must equal a fresh build over the net corpus.
    """
    rng = random.Random(SEED + 1)
    for run in range(3):
        hierarchy = _random_hierarchy(rng)
        names = list(hierarchy.items)
        params = MiningParams(
            sigma=1, gamma=rng.choice([0, None]), lam=rng.randint(2, 3)
        )
        base = _random_sequences(rng, names, rng.randint(2, 4))
        batches = [
            _random_sequences(rng, names, rng.randint(1, 3))
            for _ in range(3)
        ]
        base_store = tmp_path / f"m{run}.base.store"
        Lash(params).mine(SequenceDatabase(list(base)), hierarchy).to_store(
            base_store
        )
        deltas = []
        for b, batch in enumerate(batches):
            mined = micro_mine(batch, hierarchy, params)
            path = tmp_path / f"m{run}.d{b}.store"
            write_store(path, mined.patterns, mined.vocabulary, delta=True)
            deltas.append(path)
        # retire the first batch again: its delta and this decrement
        # cancel exactly, pattern by pattern and item by item
        mined = micro_mine(batches[0], hierarchy, params)
        retire = tmp_path / f"m{run}.retire.store"
        write_store(
            retire,
            {p: -f for p, f in mined.patterns.items()},
            negate_vocabulary(mined.vocabulary),
            delta=True,
        )
        deltas.append(retire)

        reference = tmp_path / f"m{run}.ref.store"
        merge_stores([base_store, *deltas], reference)
        want = reference.read_bytes()

        # the oracle: a fresh mine over the net corpus (batch 0 cancels)
        net = base + [s for batch in batches[1:] for s in batch]
        oracle = tmp_path / f"m{run}.oracle.store"
        Lash(params).mine(SequenceDatabase(list(net)), hierarchy).to_store(
            oracle
        )
        assert want == oracle.read_bytes(), (
            f"seed={SEED + 1} run={run}: one-shot fold diverges from "
            "a fresh mine of the net corpus"
        )

        for perm in range(3):
            # admissible arrival orders only: the pipeline publishes a
            # retire strictly after the add it cancels, so the retire
            # may never fold into the base before its increment has
            order = deltas[1:-1]
            rng.shuffle(order)
            order.insert(rng.randint(0, len(order)), deltas[0])
            order.insert(
                rng.randint(order.index(deltas[0]) + 1, len(order)), retire
            )
            current = base_store
            for step, delta in enumerate(order):
                out = tmp_path / f"m{run}.p{perm}.s{step}.store"
                merge_stores([current, delta], out)
                current = out
            assert current.read_bytes() == want, (
                f"seed={SEED + 1} run={run} perm={perm}: sequential "
                f"fold order {[d.name for d in order]!r} changed the bytes"
            )

        # grouping invariance: pre-combine a random delta subset into
        # one intermediate *delta* store, then fold the rest
        grouped = deltas[:]
        rng.shuffle(grouped)
        cut = rng.randint(2, len(grouped))
        combined = tmp_path / f"m{run}.combined.store"
        merge_stores(grouped[:cut], combined, as_delta=True)
        out = tmp_path / f"m{run}.grouped.store"
        merge_stores([base_store, combined, *grouped[cut:]], out)
        assert out.read_bytes() == want, (
            f"seed={SEED + 1} run={run}: pre-combining "
            f"{[d.name for d in grouped[:cut]]!r} changed the bytes"
        )


def test_sigma_crossing_drops_cancelled_patterns(tmp_path, fig1_hierarchy):
    """A pattern whose summed support falls below one vanishes from the
    fold exactly as it would from a re-mine — and patterns supported by
    the surviving sequences keep their exact frequencies."""
    params = MiningParams(sigma=1, gamma=0, lam=3)
    kept = [("a", "b1", "a"), ("a", "c")]
    dropped = [("b11", "e", "f"), ("d1", "d2")]
    base_store = tmp_path / "base.store"
    Lash(params).mine(
        SequenceDatabase(kept + dropped), fig1_hierarchy
    ).to_store(base_store)

    mined = micro_mine(dropped, fig1_hierarchy, params)
    retire = tmp_path / "retire.store"
    write_store(
        retire,
        {p: -f for p, f in mined.patterns.items()},
        negate_vocabulary(mined.vocabulary),
        delta=True,
    )
    out = tmp_path / "folded.store"
    merge_stores([base_store, retire], out)

    survivor = tmp_path / "survivor.store"
    Lash(params).mine(SequenceDatabase(kept), fig1_hierarchy).to_store(
        survivor
    )
    assert out.read_bytes() == survivor.read_bytes()
    with open_store(out) as folded:
        assert folded.frequency("e") == 0  # σ-crossed: fully cancelled
        assert folded.frequency("a", "c") == 1
