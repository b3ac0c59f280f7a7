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
* ``ingest.json`` — published/retained watermarks plus the mining
  parameters, rewritten atomically.

Deltas are published into the compaction spool with a torn-write-proof
protocol: the store is staged under a ``.part`` name the daemon never
scans, a JSON sidecar carrying the payload CRC-32 and the sequence
watermarks is renamed into place first, and only then does the delta
itself get its final ``<name>.store`` name.  A ``.store`` file with a
sidecar is therefore complete by construction, a torn publish leaves
only invisible staging files, and the daemon CRC-verifies every
sidecarred delta before folding it (mismatch → quarantine).  Delta
names are deterministic functions of the sequence ranges they cover,
so a crash between publish and state write is healed by rescanning the
spool — the delta is found, never re-published, never double-applied.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.core.lash import micro_mine
from repro.core.params import MiningParams
from repro.errors import EncodingError, StoreCorruptError
from repro.query.build import negate_vocabulary
from repro.serve.format import (
    is_sharded_store,
    read_manifest,
    write_delta_meta,
    write_manifest,
)
from repro.serve.sharded import open_store
from repro.serve.writer import write_store

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

STATE_NAME = "ingest.json"
JOURNAL_NAME = "journal.jsonl"
STATE_FORMAT = "repro-ingest-state"
STATE_VERSION = 1

#: published delta names: the sequence range is the identity, so a
#: crashed publish is recognized by rescanning the spool, not replayed
_DELTA_NAME_RE = re.compile(
    r"(?P<kind>delta|retire)-(?P<from>\d{8})-(?P<through>\d{8})\.store"
    r"(\.\d+)?"  # the daemon suffixes archived duplicates
)


def _delta_name(kind: str, from_seq: int, through_seq: int) -> str:
    return f"{kind}-{from_seq:08d}-{through_seq:08d}.store"


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
        }
        _write_json(state_dir / STATE_NAME, state)
        _stamp_manifest(store, {"ingested_through": 0, "retained_from": 0})
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
        next_seq = self._journal_length()
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
        name = _delta_name("retire", retained_from, through)
        if not self._already_published(name):
            entries = self._journal_slice(retained_from, through)
            self._publish_delta(
                name,
                entries,
                negate=True,
                meta={
                    "kind": "retire",
                    "from_seq": retained_from,
                    "through_seq": through,
                    "retained_from": through,
                },
            )
        self._state["retained_from"] = through
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
        next_seq = self._journal_length()
        pending = [
            entry.name
            for entry in sorted(self._spool.iterdir())
            if entry.is_file() and _DELTA_NAME_RE.fullmatch(entry.name)
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

    def _journal_length(self) -> int:
        with open(self._dir / JOURNAL_NAME, "rb") as journal:
            return sum(1 for _ in journal)

    def _journal_slice(self, start: int, stop: int) -> list[tuple[str, ...]]:
        entries: list[tuple[str, ...]] = []
        with open(
            self._dir / JOURNAL_NAME, "r", encoding="utf-8"
        ) as journal:
            for index, line in enumerate(journal):
                if index >= stop:
                    break
                if index < start:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise StoreCorruptError(
                        f"{self._dir / JOURNAL_NAME}:{index + 1}: "
                        f"invalid journal line: {exc}"
                    ) from None
                if entry.get("seq") != index:
                    raise StoreCorruptError(
                        f"{self._dir / JOURNAL_NAME}:{index + 1}: journal "
                        f"line claims seq {entry.get('seq')!r}, "
                        f"expected {index}"
                    )
                entries.append(tuple(entry["items"]))
        if len(entries) != stop - start:
            raise StoreCorruptError(
                f"{self._dir / JOURNAL_NAME}: journal ends before "
                f"sequence {stop - 1}"
            )
        return entries

    def _already_published(self, name: str) -> bool:
        if (self._spool / name).exists():
            return True
        applied = self._spool / "applied"
        if (applied / name).exists():
            return True
        # the daemon suffixes name collisions while archiving
        if applied.is_dir():
            prefix = name + "."
            for entry in applied.iterdir():
                if entry.name.startswith(prefix):
                    return True
        return False

    def _recover(self) -> None:
        """Heal a crash between a publish and its state write: delta
        names are deterministic in the watermarks, so any published
        range starting at a current watermark is simply adopted."""
        changed = False
        while True:
            found = self._find_published(
                "delta", self._state["published_through"]
            )
            if found is None:
                break
            self._state["published_through"] = found
            changed = True
        while True:
            found = self._find_published(
                "retire", self._state["retained_from"]
            )
            if found is None:
                break
            self._state["retained_from"] = found
            changed = True
        if changed:
            self._persist()

    def _find_published(self, kind: str, from_seq: int) -> int | None:
        prefix = f"{kind}-{from_seq:08d}-"
        best: int | None = None
        for directory in (self._spool, self._spool / "applied"):
            if not directory.is_dir():
                continue
            for entry in directory.iterdir():
                match = _DELTA_NAME_RE.fullmatch(entry.name)
                if match is None or not entry.name.startswith(prefix):
                    continue
                through = int(match.group("through"))
                if best is None or through > best:
                    best = through
        return best

    def _publish_pending(self) -> str | None:
        """Publish one increment delta covering every journaled-but-
        unpublished sequence; returns its name (None when clean)."""
        published_through = self._state["published_through"]
        next_seq = self._journal_length()
        if published_through >= next_seq:
            return None
        name = _delta_name("delta", published_through, next_seq)
        if not self._already_published(name):
            entries = self._journal_slice(published_through, next_seq)
            self._publish_delta(
                name,
                entries,
                negate=False,
                meta={
                    "kind": "add",
                    "from_seq": published_through,
                    "through_seq": next_seq,
                    "ingested_through": next_seq,
                },
            )
        self._state["published_through"] = next_seq
        self._persist()
        return name

    def _publish_delta(
        self,
        name: str,
        sequences: list[tuple[str, ...]],
        negate: bool,
        meta: dict,
    ) -> None:
        """Micro-mine ``sequences`` and publish the signed delta.

        Publish order is the torn-write contract: stage the store under
        a ``.part`` name the spool scanner ignores, rename the CRC
        sidecar into place, and only then rename the store to its final
        ``.store`` name — so a visible delta always has a sidecar that
        vouches for its exact bytes.
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
        final = self._spool / name
        part = self._spool / (name + ".part")
        try:
            write_store(part, patterns, vocabulary, delta=True)
            write_delta_meta(final, meta, source=part)
            part.replace(final)
        except BaseException:
            part.unlink(missing_ok=True)
            raise

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


def _stamp_manifest(store: Path, ingest: dict) -> None:
    """Fold ``ingest`` watermarks into a sharded store's manifest (as
    monotonic maxima), under the same advisory lock compactions take so
    a concurrent compactor's manifest write cannot be lost."""
    lock_path = store / ".compact.lock"
    handle = open(lock_path, "a+b")
    try:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        manifest = read_manifest(store)
        current = dict(manifest.get("ingest") or {})
        for field, value in ingest.items():
            current[field] = max(current.get(field, 0), value)
        manifest["ingest"] = current
        files = manifest.pop("shard_files")
        for fixed in ("format", "version", "partitioner", "shards"):
            manifest.pop(fixed, None)
        write_manifest(store, files, manifest)
    finally:
        handle.close()  # releases the flock


__all__ = ["Ingestor", "STATE_NAME", "JOURNAL_NAME"]
