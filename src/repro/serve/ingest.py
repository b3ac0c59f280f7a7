"""Live ingestion: continuously-fresh serving without re-mining.

``lash ingest`` turns the mine-once/serve-many split into a closed loop::

    index build  →  lash ingest add/retire  →  CompactionDaemon  →  serve

The correctness backbone is two additivity facts of the paper's
statistics: pattern frequency is *document support*, which adds over a
disjoint union of corpora, and the generalized f-list ``f0(w, D)`` is a
per-sequence sum.  So mining **only the touched sequences** at σ=1
(:func:`~repro.core.lash.micro_mine`) and folding the result into the
live store is exactly equivalent to re-mining the whole corpus; retiring
sequences (sliding-window retention) is the same micro-mine with every
frequency *negated* (:func:`~repro.query.build.negate_vocabulary`), so
the decrement delta subtracts precisely what those sequences once
contributed.  :func:`~repro.serve.writer.merge_stores` and the
:class:`~repro.serve.compact.StoreCompactor` drop any pattern whose
summed support falls below one — byte-identical to a fresh mine of the
retained corpus (at σ=1 over a stable hierarchy; see the README's
"Live ingestion" section for the exact caveats).

:class:`Ingestor` owns a small state directory next to the corpus:

* ``journal.jsonl`` — one line per ingested sequence, append-only; the
  journal is the durable corpus of record (retire re-reads it to mine
  the decrement) and its line count *is* the next sequence number.
* ``ingest.json`` — published/retained watermarks, the journal byte
  offset at which each watermark's line starts, and the mining
  parameters, rewritten atomically.  The offsets let every operation
  seek to the lines it publishes, retires or adopts and read only
  those, however long the journal has grown.

Each delta is one self-verifying store file in the compaction spool.
The writer builds it as ``<name>.store.tmp`` and renames it into place,
and the daemon scans only ``*.store`` names, so a torn publish is never
seen; every byte of the file is under a CRC-32 of the store format, so
the daemon's verifying open refuses a delta damaged after publish
(→ quarantine).  The name is the sequence range the delta covers
(:func:`~repro.serve.format.delta_name`): it carries the watermark the
fold moves, and a crash between publish and state write is healed by
rescanning the spool — the delta is found, never re-published, never
double-applied.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.lash import micro_mine
from repro.core.params import MiningParams
from repro.errors import EncodingError, StoreCorruptError
from repro.query.build import negate_vocabulary
from repro.serve.compact import APPLIED_DIR, StoreCompactor
from repro.serve.format import DELTA_NAME_RE, delta_name, is_sharded_store
from repro.serve.sharded import open_store
from repro.serve.writer import write_store

STATE_NAME = "ingest.json"
JOURNAL_NAME = "journal.jsonl"
STATE_FORMAT = "repro-ingest-state"
STATE_VERSION = 2
#: each journal mark's watermark field; ``<mark>_offset`` is the byte
#: offset in the journal where that watermark's line starts
WATERMARKS = {"published": "published_through", "retained": "retained_from"}


class Ingestor:
    """Append and retire sequences against a live sharded store.

    Create the state once with :meth:`init`, then reattach with
    :meth:`open` — all later invocations need only the state directory.
    :meth:`add` journals a batch and publishes its increment delta;
    :meth:`retire` drops the oldest sequences by publishing a decrement
    delta mined from the journal.  Both are synchronous: when they
    return, the delta (and everything pending before it) sits complete
    in the spool, and the watermarks in ``ingest.json`` reflect it.
    """

    def __init__(self, state_dir: str | Path) -> None:
        self._dir = Path(state_dir)
        state_path = self._dir / STATE_NAME
        try:
            state = json.loads(state_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise EncodingError(
                f"{self._dir}: no ingest state (run `lash ingest init`)"
            ) from None
        except json.JSONDecodeError as exc:
            raise StoreCorruptError(
                f"{state_path}: invalid ingest state: {exc}"
            ) from None
        if state.get("format") != STATE_FORMAT:
            raise EncodingError(f"{state_path}: not an ingest state file")
        if state.get("version") != STATE_VERSION:
            raise EncodingError(
                f"{state_path}: unsupported ingest-state version "
                f"{state.get('version')!r}"
            )
        self._state = state
        self._store = Path(state["store"])
        self._spool = Path(state["spool"])
        self._hierarchy = None  # decoded lazily from the live store

    # ------------------------------------------------------------------
    # creation / attachment
    # ------------------------------------------------------------------

    @classmethod
    def init(
        cls,
        state_dir: str | Path,
        store: str | Path,
        spool: str | Path,
        gamma: int | None = 0,
        lam: int = 5,
    ) -> "Ingestor":
        """Create the ingest state for a live store.

        ``store`` must be a *sharded* store directory (the compaction
        daemon only folds into shard sets) mined at σ=1 — the live
        store keeps every pattern with support ≥ 1 and higher σ is a
        query-time filter (``min_freq``), because a pattern dropped at
        the store level could never regain the support later increments
        give it.  ``gamma``/``lam`` must match the parameters the base
        corpus was mined with; they parameterize every micro-mine.  The
        store's manifest is stamped with the zero watermark so ``/query``
        and ``/stats`` report freshness from the first request on.
        """
        state_dir = Path(state_dir)
        store = Path(store)
        spool = Path(spool)
        if (state_dir / STATE_NAME).exists():
            raise EncodingError(
                f"{state_dir}: ingest state already exists"
            )
        if not is_sharded_store(store):
            raise EncodingError(
                f"{store}: not a sharded store directory; live ingestion "
                "requires a shard set (build with --shards)"
            )
        state_dir.mkdir(parents=True, exist_ok=True)
        spool.mkdir(parents=True, exist_ok=True)
        (state_dir / JOURNAL_NAME).touch()
        state = {
            "format": STATE_FORMAT,
            "version": STATE_VERSION,
            "store": str(store),
            "spool": str(spool),
            "gamma": gamma,
            "lam": lam,
            "published_through": 0,
            "retained_from": 0,
            # journal byte offsets where lines published_through and
            # retained_from start (the end of the journal once there)
            "published_offset": 0,
            "retained_offset": 0,
        }
        _write_json(state_dir / STATE_NAME, state)
        StoreCompactor(store).stamp_watermarks(
            {"ingested_through": 0, "retained_from": 0}
        )
        return cls(state_dir)

    @classmethod
    def open(cls, state_dir: str | Path) -> "Ingestor":
        return cls(state_dir)

    # ------------------------------------------------------------------
    # the public operations
    # ------------------------------------------------------------------

    def add(self, sequences) -> dict:
        """Journal a batch of sequences and publish its increment delta.

        Every item must already exist in the live store's hierarchy
        (stable-hierarchy requirement — an unknown item raises before
        anything is journaled).  Returns a report of what was published.
        """
        batch = [tuple(seq) for seq in sequences]
        if not batch:
            raise EncodingError("ingest batch is empty")
        if any(not seq for seq in batch):
            raise EncodingError("ingest batch contains an empty sequence")
        hierarchy = self._hierarchy_instance()
        for seq in batch:
            for item in seq:
                if item not in hierarchy:
                    raise EncodingError(
                        f"item {item!r} is not in the live store's "
                        "hierarchy; live ingestion requires a stable "
                        "hierarchy (rebuild the index to add items)"
                    )
        self._recover()
        pending, _ = self._journal_read("published")
        next_seq = self._state["published_through"] + len(pending)
        with open(
            self._dir / JOURNAL_NAME, "a", encoding="utf-8"
        ) as journal:
            for offset, seq in enumerate(batch):
                journal.write(
                    json.dumps(
                        {"seq": next_seq + offset, "items": list(seq)},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            journal.flush()
        published = self._publish_pending()
        return {
            "from_seq": next_seq,
            "through_seq": next_seq + len(batch),
            "sequences": len(batch),
            "published": published,
            "ingested_through": self._state["published_through"],
        }

    def retire(self, count: int) -> dict:
        """Retire the ``count`` oldest retained sequences.

        Publishes a decrement delta mined from the journal; once folded,
        the store is byte-identical to a fresh σ=1 mine of the remaining
        window.  Only published sequences can retire, so pending adds are
        flushed first.
        """
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise EncodingError(f"retire count must be >= 1, got {count!r}")
        self._recover()
        self._publish_pending()
        retained_from = self._state["retained_from"]
        through = retained_from + count
        if through > self._state["published_through"]:
            raise EncodingError(
                f"cannot retire {count} sequences: only "
                f"{self._state['published_through'] - retained_from} "
                "are retained"
            )
        name = delta_name("retire", retained_from, through)
        entries, end = self._journal_read("retained", count)
        self._publish_delta(name, entries, negate=True)
        self._state["retained_from"] = through
        self._state["retained_offset"] = end
        self._persist()
        return {
            "from_seq": retained_from,
            "through_seq": through,
            "sequences": count,
            "published": name,
            "retained_from": through,
        }

    def flush(self) -> dict:
        """Publish any adds journaled but not yet in the spool (crash
        recovery path; a no-op when the state is clean)."""
        self._recover()
        published = self._publish_pending()
        return {
            "published": published,
            "ingested_through": self._state["published_through"],
        }

    def status(self) -> dict:
        """Watermarks, journal size, and what still sits in the spool."""
        self._recover()
        unpublished, _ = self._journal_read("published")
        next_seq = self._state["published_through"] + len(unpublished)
        pending = [
            entry.name
            for entry in sorted(self._spool.iterdir())
            if entry.is_file() and DELTA_NAME_RE.fullmatch(entry.name)
        ]
        return {
            "state": str(self._dir),
            "store": str(self._store),
            "spool": str(self._spool),
            "gamma": self._state["gamma"],
            "lam": self._state["lam"],
            "journaled": next_seq,
            "published_through": self._state["published_through"],
            "unpublished": next_seq - self._state["published_through"],
            "retained_from": self._state["retained_from"],
            "retained": next_seq - self._state["retained_from"],
            "spool_pending": pending,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _hierarchy_instance(self):
        """The live store's hierarchy — the one every micro-mine must
        share, or item frequencies would stop adding up."""
        if self._hierarchy is None:
            with open_store(self._store) as store:
                self._hierarchy = store.vocabulary.hierarchy
        return self._hierarchy

    def _journal_read(
        self, mark: str, count: int | None = None
    ) -> tuple[list[tuple[str, ...]], int]:
        """The journal's sequences from a watermark on: ``mark`` is
        ``"published"`` or ``"retained"``, and the read seeks to that
        watermark's offset.  Returns ``count`` sequences (``None``: all
        up to the end of the journal) and the offset just past them."""
        first = self._state[WATERMARKS[mark]]
        path = self._dir / JOURNAL_NAME
        entries: list[tuple[str, ...]] = []
        with open(path, "rb") as journal:
            journal.seek(self._state[f"{mark}_offset"])
            while count is None or len(entries) < count:
                line = journal.readline()
                if not line:
                    break
                seq = first + len(entries)
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise StoreCorruptError(
                        f"{path}:{seq + 1}: invalid journal line: {exc}"
                    ) from None
                if entry.get("seq") != seq:
                    raise StoreCorruptError(
                        f"{path}:{seq + 1}: journal line claims seq "
                        f"{entry.get('seq')!r}, expected {seq}"
                    )
                entries.append(tuple(entry["items"]))
            end = journal.tell()
        if count is not None and len(entries) < count:
            raise StoreCorruptError(
                f"{path}: journal ends before sequence {first + count - 1}"
            )
        return entries, end

    def _published(self) -> set[tuple[str, int, int]]:
        """Every delta range in the spool and its applied archive, as
        ``(kind, from, through)``."""
        published = set()
        for directory in (self._spool, self._spool / APPLIED_DIR):
            if not directory.is_dir():
                continue
            for entry in directory.iterdir():
                match = DELTA_NAME_RE.fullmatch(entry.name)
                if match is not None:
                    kind, start, through = match.group(
                        "kind", "from", "through"
                    )
                    published.add((kind, int(start), int(through)))
        return published

    def _recover(self) -> None:
        """Heal a crash between a publish and its state write: delta
        names are deterministic in the watermarks, so any published
        range starting at a current watermark is simply adopted.  Every
        operation runs this first, so the delta it then publishes from
        the watermarks is never one the spool already holds."""
        self._cut_torn_tail()
        # the furthest range published from each (kind, start)
        reach: dict[tuple[str, int], int] = {}
        for kind, start, through in self._published():
            if through > start:
                reach[kind, start] = max(through, reach.get((kind, start), 0))
        changed = False
        for kind, mark in (("delta", "published"), ("retire", "retained")):
            field = WATERMARKS[mark]
            while (kind, self._state[field]) in reach:
                through = reach[kind, self._state[field]]
                _, end = self._journal_read(
                    mark, through - self._state[field]
                )
                self._state[field] = through
                self._state[f"{mark}_offset"] = end
                changed = True
        if changed:
            self._persist()

    def _cut_torn_tail(self) -> None:
        """Truncate an append torn by a crash — a last journal line with
        no newline — back to the last whole line.  Lines before
        ``published_offset`` were read back whole when they published,
        so the cut never reaches below it: only a batch whose ``add``
        never returned loses its unfinished line."""
        floor = self._state["published_offset"]
        with open(self._dir / JOURNAL_NAME, "rb+") as journal:
            if journal.seek(0, 2) <= floor:
                return
            journal.seek(floor)
            tail = journal.read()
            if not tail.endswith(b"\n"):
                journal.truncate(floor + tail.rfind(b"\n") + 1)

    def _publish_pending(self) -> str | None:
        """Publish one increment delta covering every journaled-but-
        unpublished sequence; returns its name (None when clean)."""
        entries, end = self._journal_read("published")
        if not entries:
            return None
        published_through = self._state["published_through"]
        next_seq = published_through + len(entries)
        name = delta_name("delta", published_through, next_seq)
        self._publish_delta(name, entries, negate=False)
        self._state["published_through"] = next_seq
        self._state["published_offset"] = end
        self._persist()
        return name

    def _publish_delta(
        self,
        name: str,
        sequences: list[tuple[str, ...]],
        negate: bool,
    ) -> None:
        """Micro-mine ``sequences`` and publish the signed delta as
        ``spool/<name>``.

        The writer builds ``<name>.tmp`` and renames it into place, so
        the daemon, which scans only ``*.store`` names, sees the whole
        file or nothing; the store's own CRCs vouch for every byte of
        it, and its name for the range it covers.
        """
        params = MiningParams(
            sigma=1, gamma=self._state["gamma"], lam=self._state["lam"]
        )
        result = micro_mine(sequences, self._hierarchy_instance(), params)
        patterns = result.patterns
        vocabulary = result.vocabulary
        if negate:
            patterns = {
                pattern: -frequency
                for pattern, frequency in patterns.items()
            }
            vocabulary = negate_vocabulary(vocabulary)
        write_store(self._spool / name, patterns, vocabulary, delta=True)

    def _persist(self) -> None:
        _write_json(self._dir / STATE_NAME, self._state)


def _write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


__all__ = ["Ingestor", "STATE_NAME", "JOURNAL_NAME"]
