"""Integration tests for the CLI."""

import argparse
import re

import pytest

from repro.cli import main
from repro.datasets import example_database, example_hierarchy


@pytest.fixture
def example_files(tmp_path):
    db = tmp_path / "db.txt"
    hierarchy = tmp_path / "h.txt"
    example_database().to_file(db)
    example_hierarchy().to_file(hierarchy)
    return str(db), str(hierarchy)


class TestGenerate:
    def test_text(self, tmp_path, capsys):
        rc = main([
            "generate", "text", "--out", str(tmp_path / "t"),
            "--sentences", "30",
        ])
        assert rc == 0
        assert (tmp_path / "t" / "corpus.txt").exists()
        assert (tmp_path / "t" / "hierarchy-CLP.txt").exists()
        assert "30 sentences" in capsys.readouterr().out

    def test_products(self, tmp_path, capsys):
        rc = main([
            "generate", "products", "--out", str(tmp_path / "p"),
            "--users", "25", "--products", "40",
        ])
        assert rc == 0
        assert (tmp_path / "p" / "sessions.txt").exists()
        assert (tmp_path / "p" / "hierarchy-h8.txt").exists()

    def test_events(self, tmp_path, capsys):
        rc = main([
            "generate", "events", "--out", str(tmp_path / "e"),
            "--machines", "50",
        ])
        assert rc == 0
        assert (tmp_path / "e" / "logs.txt").exists()
        assert (tmp_path / "e" / "hierarchy.txt").exists()
        assert "planted cascades" in capsys.readouterr().out


class TestStats:
    def test_stats(self, example_files, capsys):
        db, hierarchy = example_files
        rc = main(["stats", "--db", db, "--hierarchy", hierarchy])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sequences=6" in out
        assert "Levels=3" in out


class TestMine:
    def test_lash(self, example_files, capsys, tmp_path):
        db, hierarchy = example_files
        out_file = tmp_path / "patterns.tsv"
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--out", str(out_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "10 patterns" in out
        assert "a B" in out
        assert len(out_file.read_text().strip().split("\n")) == 10

    @pytest.mark.parametrize(
        "algorithm", ["naive", "semi-naive", "gsp", "mg-fsm"]
    )
    def test_other_algorithms(self, example_files, capsys, algorithm):
        db, hierarchy = example_files
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--algorithm", algorithm,
        ])
        assert rc == 0
        assert "patterns" in capsys.readouterr().out

    @pytest.mark.parametrize("miner", ["spam", "bfs"])
    def test_alternative_local_miners(self, example_files, capsys, miner):
        db, hierarchy = example_files
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--miner", miner,
        ])
        assert rc == 0
        assert "10 patterns" in capsys.readouterr().out

    def test_closed_filter(self, example_files, capsys):
        db, hierarchy = example_files
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--filter", "closed",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "+closed" in out

    def test_flist_reuse(self, example_files, capsys, tmp_path):
        db, hierarchy = example_files
        flist = tmp_path / "flist.tsv"
        rc = main(["flist", "--db", db, "--hierarchy", hierarchy,
                   "--out", str(flist)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--flist", str(flist),
            "--sigma", "2", "--gamma", "1", "--lam", "3",
        ])
        assert rc == 0
        assert "10 patterns" in capsys.readouterr().out

    def test_summary_accounts_for_the_whole_job(
        self, example_files, capsys, tmp_path
    ):
        """The f-list job's time is in the phase line whenever that job ran,
        and the local miners' search space follows it."""
        db, hierarchy = example_files
        args = [
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
        ]

        def summary(*extra):
            assert main(args + list(extra)) == 0
            lines = capsys.readouterr().out.splitlines()
            phases = [line for line in lines if line.startswith("phases: ")]
            search = [line for line in lines if line.startswith("search: ")]
            assert len(phases) == 1
            return phases[0], search

        phases, search = summary()
        assert re.match(
            r"phases: flist=\d+\.\d\ds map=\d+\.\d\ds shuffle=\d+\.\d\ds "
            r"reduce=\d+\.\d\ds \| shuffled 94 bytes$",
            phases,
        )
        assert search == ["search: 31 candidates -> 10 outputs (32.3% useful)"]

        # a reused f-list runs no f-list job; the mining job is the same
        flist = tmp_path / "flist.tsv"
        assert main(["flist", "--db", db, "--hierarchy", hierarchy,
                     "--out", str(flist)]) == 0
        phases, search = summary("--flist", str(flist))
        assert phases.startswith("phases: map=")
        assert search == ["search: 31 candidates -> 10 outputs (32.3% useful)"]

        # naive takes its item ids from the same f-list job; it has no
        # local miner, so no search space to report
        phases, search = summary("--algorithm", "naive")
        assert phases.startswith("phases: flist=")
        assert search == []

    def test_store_shards_export(self, example_files, capsys, tmp_path):
        db, hierarchy = example_files
        store = tmp_path / "patterns.shards"
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--store", str(store), "--store-shards", "3",
        ])
        assert rc == 0
        assert "wrote pattern store" in capsys.readouterr().out
        from repro.serve import open_store

        with open_store(store) as opened:
            info = opened.describe()
            assert info["shards"] == 3
            assert info["patterns"] == 10

    def test_store_shards_requires_store(self, example_files):
        db, hierarchy = example_files
        with pytest.raises(SystemExit, match="--store-shards"):
            main([
                "mine", "--db", db, "--hierarchy", hierarchy,
                "--sigma", "2", "--store-shards", "3",
            ])

    def test_flist_without_hierarchy_rejected_before_reading(self, tmp_path):
        """The flag error comes before the corpus is read: a missing
        ``--db`` is never reached."""
        with pytest.raises(SystemExit, match="--flist requires --hierarchy"):
            main([
                "mine", "--db", str(tmp_path / "missing.txt"),
                "--flist", str(tmp_path / "flist.tsv"), "--sigma", "2",
            ])

    def test_flist_without_hierarchy_rejected(self, example_files, tmp_path):
        db, hierarchy = example_files
        flist = tmp_path / "flist.tsv"
        main(["flist", "--db", db, "--hierarchy", hierarchy,
              "--out", str(flist)])
        with pytest.raises(SystemExit):
            main([
                "mine", "--db", db, "--flist", str(flist),
                "--sigma", "2",
            ])

    def test_gzip_paths(self, example_files, capsys, tmp_path):
        from repro.datasets import example_database
        from repro.io import write_database

        _, hierarchy = example_files
        db_gz = tmp_path / "db.txt.gz"
        write_database(example_database(), db_gz)
        out_gz = tmp_path / "patterns.tsv.gz"
        rc = main([
            "mine", "--db", str(db_gz), "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--out", str(out_gz),
        ])
        assert rc == 0
        assert out_gz.exists()

    def test_unbounded_gamma(self, example_files, capsys):
        db, hierarchy = example_files
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "-1", "--lam", "3",
        ])
        assert rc == 0

    def test_flat_mining_without_hierarchy(self, example_files, capsys):
        db, _ = example_files
        rc = main(["mine", "--db", db, "--sigma", "2", "--gamma", "1",
                   "--lam", "3"])
        assert rc == 0

    def test_parallel_engine(self, example_files, tmp_path, capsys):
        db, hierarchy = example_files
        serial, parallel = tmp_path / "serial.tsv", tmp_path / "par.tsv"
        base = ["mine", "--db", db, "--hierarchy", hierarchy,
                "--sigma", "2", "--gamma", "1", "--lam", "3"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--engine", "parallel", "--max-workers", "2",
                            "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert main(["compare", str(serial), str(parallel)]) == 0

    def test_max_workers_requires_parallel_engine(self, example_files):
        db, hierarchy = example_files
        with pytest.raises(SystemExit, match="requires --engine parallel"):
            main([
                "mine", "--db", db, "--hierarchy", hierarchy,
                "--sigma", "2", "--max-workers", "2",
            ])

    def test_parallel_engine_mgfsm(self, example_files, tmp_path, capsys):
        """MG-FSM is LASH with a BFS miner, so it runs on the process
        engine too: same patterns, same search space as serial."""
        db, hierarchy = example_files
        serial, parallel = tmp_path / "serial.tsv", tmp_path / "par.tsv"
        base = ["mine", "--db", db, "--hierarchy", hierarchy,
                "--sigma", "2", "--gamma", "1", "--lam", "3",
                "--algorithm", "mg-fsm"]

        def search_line(*extra):
            assert main(base + list(extra)) == 0
            out = capsys.readouterr().out.splitlines()
            return [line for line in out if line.startswith("search: ")]

        serial_search = search_line("--out", str(serial))
        assert serial_search == search_line(
            "--engine", "parallel", "--max-workers", "2",
            "--out", str(parallel),
        )
        assert serial.read_text().strip()
        assert main(["compare", str(serial), str(parallel)]) == 0


class TestCompare:
    def test_agree(self, example_files, tmp_path, capsys):
        db, hierarchy = example_files
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        base = ["mine", "--db", db, "--hierarchy", hierarchy,
                "--sigma", "2", "--gamma", "1", "--lam", "3"]
        main(base + ["--out", str(a)])
        main(base + ["--algorithm", "naive", "--out", str(b)])
        rc = main(["compare", str(a), str(b)])
        assert rc == 0
        assert "agree" in capsys.readouterr().out

    def test_differ(self, example_files, tmp_path, capsys):
        db, hierarchy = example_files
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        base = ["mine", "--db", db, "--hierarchy", hierarchy,
                "--gamma", "1", "--lam", "3"]
        main(base + ["--sigma", "2", "--out", str(a)])
        main(base + ["--sigma", "3", "--out", str(b)])
        rc = main(["compare", str(a), str(b)])
        assert rc == 1
        assert "differ" in capsys.readouterr().out

    def test_hierarchy_file_roundtrip(self, tmp_path):
        from repro.hierarchy import Hierarchy

        h = example_hierarchy()
        path = tmp_path / "h.txt"
        h.to_file(path)
        loaded = Hierarchy.from_file(path)
        assert set(loaded.items) == set(h.items)
        assert loaded.ancestors_or_self("b11") == h.ancestors_or_self("b11")


class TestClosedLash:
    def test_direct_closed(self, example_files, capsys):
        db, hierarchy = example_files
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--algorithm", "closed-lash",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "closed-lash[closed,psm]" in out

    def test_direct_maximal_matches_filter(
        self, example_files, tmp_path, capsys
    ):
        db, hierarchy = example_files
        direct = tmp_path / "direct.tsv"
        filtered = tmp_path / "filtered.tsv"
        common = [
            "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
        ]
        assert main([
            "mine", *common, "--algorithm", "closed-lash",
            "--mode", "maximal", "--out", str(direct),
        ]) == 0
        assert main([
            "mine", *common, "--filter", "maximal", "--out", str(filtered),
        ]) == 0
        capsys.readouterr()
        assert main(["compare", str(direct), str(filtered)]) == 0


class TestQuery:
    @pytest.fixture
    def mined_patterns(self, example_files, tmp_path, capsys):
        db, hierarchy = example_files
        patterns = tmp_path / "patterns.tsv"
        main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--out", str(patterns),
        ])
        capsys.readouterr()
        return str(patterns), hierarchy

    def test_exact_query(self, mined_patterns, capsys):
        patterns, hierarchy = mined_patterns
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "a ?",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "a B" in out and "mass" in out

    def test_under_query_needs_hierarchy(self, mined_patterns, capsys):
        patterns, hierarchy = mined_patterns
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "^B ?",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "b1 a" in out

    def test_query_without_hierarchy_still_matches_wildcards(
        self, mined_patterns, capsys
    ):
        patterns, _ = mined_patterns
        rc = main(["query", "--patterns", patterns, "? ? ?"])
        assert rc == 0
        assert "a B c" in capsys.readouterr().out

    def test_disjunction_query(self, mined_patterns, capsys):
        patterns, hierarchy = mined_patterns
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "(a|^B) ?",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "a B" in out

    def test_frequency_floor_query(self, mined_patterns, capsys):
        patterns, hierarchy = mined_patterns
        # an unsatisfiable floor matches nothing → exit status 1
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "?@100000 ?",
        ])
        assert rc == 1
        assert "(0 patterns" in capsys.readouterr().out

    def test_no_match_returns_nonzero(self, mined_patterns, capsys):
        patterns, hierarchy = mined_patterns
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "? ? ? ?",
        ])
        assert rc == 1

    def test_multiple_queries(self, mined_patterns, capsys):
        patterns, hierarchy = mined_patterns
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "a ?", "* D",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("query:") == 2

    def test_negation_and_gap_query(self, mined_patterns, capsys):
        patterns, hierarchy = mined_patterns
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "a !^B *{0,1}",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "a c" in out
        assert "a B" not in out

    def test_min_freq_override(self, mined_patterns, capsys):
        patterns, hierarchy = mined_patterns
        # an unsatisfiable per-query σ matches nothing → exit status 1
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "--min-freq", "100000", "a ?",
        ])
        assert rc == 1
        assert "(0 patterns" in capsys.readouterr().out
        rc = main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "--min-freq", "1", "a ?",
        ])
        assert rc == 0


class TestIndex:
    @pytest.fixture
    def mined_patterns(self, example_files, tmp_path, capsys):
        db, hierarchy = example_files
        patterns = tmp_path / "patterns.tsv"
        main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--out", str(patterns),
        ])
        capsys.readouterr()
        return str(patterns), hierarchy

    def test_build_and_info(self, mined_patterns, tmp_path, capsys):
        patterns, hierarchy = mined_patterns
        store = tmp_path / "patterns.store"
        rc = main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(store),
        ])
        assert rc == 0
        assert "wrote 10 patterns" in capsys.readouterr().out
        rc = main(["index", "info", "--store", str(store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "patterns=10" in out
        assert "version=3" in out

    def test_info_prints_where_the_bytes_go(
        self, mined_patterns, tmp_path, capsys
    ):
        """Each file's row is followed by its section sizes, and they
        account for every byte but the header and the checksums."""
        from repro.serve.format import CHECKSUMS_STRUCT, HEADER_SIZE

        patterns, hierarchy = mined_patterns
        store = tmp_path / "patterns.shards"
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(store), "--shards", "2",
        ])
        capsys.readouterr()
        assert main(["index", "info", "--store", str(store)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines if line.startswith("shard ")]
        assert len(rows) == 2
        for row in rows:
            cells = dict(c.split("=", 1) for c in row.split() if "=" in c)
            sections = lines[lines.index(row) + 1].split()
            assert sections[0] == "sections"
            sizes = dict(cell.split("=") for cell in sections[1:])
            assert list(sizes) == [
                "vocabulary", "lengths", "pattern_offsets", "patterns",
                "posting_directory", "postings",
            ]
            assert sum(map(int, sizes.values())) == (
                int(cells["file_bytes"]) - HEADER_SIZE - CHECKSUMS_STRUCT.size
            )

    def test_store_answers_like_query_command(
        self, mined_patterns, tmp_path, capsys
    ):
        from repro.serve import PatternStore

        patterns, hierarchy = mined_patterns
        store_path = tmp_path / "patterns.store"
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(store_path),
        ])
        capsys.readouterr()
        assert main([
            "query", "--patterns", patterns, "--hierarchy", hierarchy,
            "^B ?",
        ]) == 0
        cli_out = capsys.readouterr().out
        with PatternStore.open(store_path) as store:
            # CLI prints at most the default --top 10 matches
            for match in store.search("^B ?", limit=10):
                assert match.render() in cli_out

    def test_mine_store_export(self, example_files, tmp_path, capsys):
        from repro.serve import PatternStore

        db, hierarchy = example_files
        store_path = tmp_path / "mined.store"
        rc = main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--store", str(store_path),
        ])
        assert rc == 0
        with PatternStore.open(store_path) as store:
            assert len(store) == 10
            assert store.frequency("a", "B") == 3

    def test_build_sharded_and_info(self, mined_patterns, tmp_path, capsys):
        from repro.serve import ShardedPatternStore, open_store

        patterns, hierarchy = mined_patterns
        shards_path = tmp_path / "patterns.shards"
        rc = main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(shards_path),
            "--shards", "4",
        ])
        assert rc == 0
        assert "4 shards" in capsys.readouterr().out
        rc = main(["index", "info", "--store", str(shards_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shards=4" in out
        assert "shard 0" in out and "shard 3" in out
        with open_store(shards_path) as store:
            assert isinstance(store, ShardedPatternStore)
            assert len(store) == 10

    def test_sharded_build_matches_single(
        self, mined_patterns, tmp_path, capsys
    ):
        from repro.serve import open_store

        patterns, hierarchy = mined_patterns
        single = tmp_path / "single.store"
        sharded = tmp_path / "sharded.store"
        for args in (
            ["index", "build", "--patterns", patterns, "--hierarchy",
             hierarchy, "--out", str(single)],
            ["index", "build", "--patterns", patterns, "--hierarchy",
             hierarchy, "--out", str(sharded), "--shards", "3"],
        ):
            assert main(args) == 0
        capsys.readouterr()
        with open_store(single) as a, open_store(sharded) as b:
            assert list(a) == list(b)
            assert a.search("^B ?") == b.search("^B ?")

    def test_merge_two_stores(self, mined_patterns, tmp_path, capsys):
        from repro.serve import open_store

        patterns, hierarchy = mined_patterns
        first = tmp_path / "first.store"
        second = tmp_path / "second.shards"
        merged = tmp_path / "merged.store"
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(first),
        ])
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(second),
            "--shards", "2",
        ])
        capsys.readouterr()
        rc = main([
            "index", "merge", str(first), str(second),
            "--out", str(merged),
        ])
        assert rc == 0
        assert "merged 2 stores" in capsys.readouterr().out
        with open_store(first) as single, open_store(merged) as combined:
            # same corpus twice: same patterns, doubled frequencies
            assert len(combined) == len(single)
            for match in single:
                assert (
                    combined.frequency(*match.pattern)
                    == 2 * match.frequency
                )

    @pytest.mark.parametrize("shards", [None, "2"])
    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_info_refuses_other_store_versions(
        self, mined_patterns, tmp_path, capsys, shards, version
    ):
        """A header of any other format version: a one-line error
        naming the version and the remedy, not a traceback."""
        from tests.serve.test_store import patch_store_version

        patterns, hierarchy = mined_patterns
        store = tmp_path / "other.store"
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(store),
            *(["--shards", shards] if shards else []),
        ])
        capsys.readouterr()
        patch_store_version(
            sorted(store.glob("shard-*.store"))[0] if shards else store,
            version,
        )
        with pytest.raises(SystemExit) as err:
            main(["index", "info", "--store", str(store)])
        message = str(err.value.code)
        assert f"unsupported store version {version}" in message
        assert "lash index build" in message
        assert "\n" not in message


class TestIndexCompact:
    @pytest.fixture
    def mined_patterns(self, example_files, tmp_path, capsys):
        db, hierarchy = example_files
        patterns = tmp_path / "patterns.tsv"
        main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--out", str(patterns),
        ])
        capsys.readouterr()
        return str(patterns), hierarchy

    def test_compact_folds_delta(self, mined_patterns, tmp_path, capsys):
        from repro.serve import open_store
        from repro.serve.format import read_manifest

        patterns, hierarchy = mined_patterns
        base = tmp_path / "base.shards"
        delta = tmp_path / "delta.store"
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(base), "--shards", "2",
        ])
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(delta),
        ])
        capsys.readouterr()
        rc = main([
            "index", "compact", "--store", str(base), str(delta),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compacted 1 deltas" in out
        assert "generation 1" in out
        assert read_manifest(base)["generation"] == 1
        with open_store(base) as store:
            # same corpus twice: frequencies doubled
            for match in store:
                assert store.frequency(*match.pattern) == match.frequency

    def test_compact_rebalances_shard_count(
        self, mined_patterns, tmp_path, capsys
    ):
        from repro.serve import open_store

        patterns, hierarchy = mined_patterns
        base = tmp_path / "base.shards"
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(base), "--shards", "2",
        ])
        capsys.readouterr()
        with open_store(base) as store:
            expected = list(store)
        rc = main([
            "index", "compact", "--store", str(base), "--shards", "5",
        ])
        assert rc == 0
        assert "across 5 shards" in capsys.readouterr().out
        with open_store(base) as store:
            assert store.num_shards == 5
            assert list(store) == expected

    def test_compact_rejects_single_file_store(
        self, mined_patterns, tmp_path, capsys
    ):
        from repro.errors import EncodingError

        patterns, hierarchy = mined_patterns
        store = tmp_path / "single.store"
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(store),
        ])
        capsys.readouterr()
        with pytest.raises(EncodingError, match="not a sharded store"):
            main(["index", "compact", "--store", str(store)])

    def test_serve_compact_spool_requires_sharded_store(
        self, mined_patterns, tmp_path, capsys, monkeypatch
    ):
        patterns, hierarchy = mined_patterns
        store = tmp_path / "single.store"
        main([
            "index", "build", "--patterns", patterns,
            "--hierarchy", hierarchy, "--out", str(store),
        ])
        capsys.readouterr()

        def never_opened(*args, **kwargs):
            raise AssertionError("the store was opened before the refusal")

        # refused before anything is opened, so nothing is left to close
        monkeypatch.setattr("repro.serve.open_store", never_opened)
        with pytest.raises(SystemExit, match="sharded store"):
            main([
                "serve", "--store", str(store),
                "--compact-spool", str(tmp_path / "spool"),
            ])


class TestIndexInfoHeaderOnly:
    def test_info_survives_body_corruption(
        self, example_files, tmp_path, capsys
    ):
        """`lash index info` reads headers/manifest only: flipping a bit
        deep in a shard body fails a verifying open but not `info`."""
        from repro.errors import StoreCorruptError
        from repro.serve import open_store

        db, hierarchy = example_files
        patterns = tmp_path / "patterns.tsv"
        main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--out", str(patterns),
        ])
        shards = tmp_path / "info.shards"
        main([
            "index", "build", "--patterns", str(patterns),
            "--hierarchy", hierarchy, "--out", str(shards), "--shards", "2",
        ])
        capsys.readouterr()
        victim = next(shards.glob("shard-*.store"))
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # inside the postings/checksum tail, not the header
        victim.write_bytes(blob)

        with pytest.raises(StoreCorruptError):
            with open_store(shards) as store:
                store.describe()

        rc = main(["index", "info", "--store", str(shards)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shard 0" in out and "shard 1" in out


class TestDistributedCLI:
    @pytest.fixture
    def sharded_store(self, example_files, tmp_path, capsys):
        db, hierarchy = example_files
        patterns = tmp_path / "patterns.tsv"
        main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "2", "--gamma", "1", "--lam", "3",
            "--out", str(patterns),
        ])
        shards = tmp_path / "dist.shards"
        main([
            "index", "build", "--patterns", str(patterns),
            "--hierarchy", hierarchy, "--out", str(shards), "--shards", "2",
        ])
        capsys.readouterr()
        return shards

    def test_info_advise(self, sharded_store, capsys):
        rc = main([
            "index", "info", "--store", str(sharded_store), "--advise",
            "--target-bytes", "4096",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "routing groups:" in out
        assert "recommendation: --shards" in out

    def test_shard_serve_starts_and_stops(
        self, sharded_store, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        # the serve loop parks in hour-long sleeps; the first one
        # "receiving Ctrl-C" drives the clean-shutdown path
        def interrupt(_seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module.time, "sleep", interrupt)
        rc = main([
            "shard-serve", "--store", str(sharded_store),
            "--shards", "0", "--no-http",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shards [0] of 2" in out

    def test_route_against_live_shard_server(
        self, sharded_store, tmp_path, capsys, monkeypatch
    ):
        import json

        import repro.serve.http as http_module
        from repro.serve.distributed import ShardServer

        monkeypatch.setattr(http_module, "run_server", lambda server: None)
        with ShardServer(sharded_store, http_port=None) as server:
            host, port = server.address
            cluster = tmp_path / "cluster.json"
            cluster.write_text(json.dumps({
                "num_shards": 2,
                "servers": [{"host": host, "port": port}],
                "pool_size": 4,  # retired key: ignored like any unknown
            }))
            rc = main([
                "route", "--cluster", str(cluster), "--port", "0",
            ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "routing 2 shards over 1 servers (1 healthy)" in out
        assert "shard 0:" in out and "shard 1:" in out


    @pytest.mark.parametrize(
        "argv",
        [
            ["route", "--cluster", "cluster.json", "--pool-size", "2"],
            ["shard-serve", "--store", "store.shards", "--no-mux"],
        ],
    )
    def test_retired_wire_flags_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _arguments(parser, prefix=()) -> dict[str, tuple[str, ...]]:
    """Every leaf subcommand's arguments in parser order: a flag by its
    option strings, a positional by its name."""
    table: dict[str, tuple[str, ...]] = {}
    own: list[str] = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_arguments(sub, prefix + (name,)))
            continue
        own.append(" ".join(action.option_strings) or action.dest)
    if prefix and own:
        table[" ".join(prefix)] = tuple(own)
    return table


#: the HTTP front-end options ``serve`` and ``route`` share
FRONT_END = (
    "--host", "--port", "--cache-size", "--max-cost", "--workers",
    "--verbose",
)


def _subparsers(parser) -> dict:
    (action,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


class TestOptionCensus:
    #: every argument the CLI accepts; adding or removing one is a diff
    #: here, reviewed with the change that makes it
    ARGUMENTS = {
        "generate": (
            "kind", "--out", "--sentences", "--users", "--products",
            "--machines", "--seed",
        ),
        "stats": ("--db", "--hierarchy"),
        "flist": ("--db", "--hierarchy", "--out", "--top"),
        "mine": (
            "--db", "--hierarchy", "--sigma", "--gamma", "--lam",
            "--algorithm", "--mode", "--miner", "--flist", "--filter",
            "--engine", "--max-workers", "--top", "--out", "--store",
            "--store-shards",
        ),
        "query": (
            "--patterns", "--hierarchy", "--top", "--min-freq", "--explain",
            "queries",
        ),
        "index build": ("--patterns", "--hierarchy", "--out", "--shards"),
        "index merge": ("sources", "--out", "--shards"),
        "index compact": ("--store", "deltas", "--shards"),
        "index info": ("--store", "--advise", "--target-bytes"),
        "ingest init": ("--store", "--spool", "--state", "--gamma", "--lam"),
        "ingest add": ("--state", "--db", "sequences"),
        "ingest retire": ("--state", "--count"),
        "ingest flush": ("--state",),
        "ingest status": ("--state",),
        "serve": (
            *FRONT_END, "--store", "--compact-spool", "--compact-interval",
        ),
        "shard-serve": (
            "--store", "--shards", "--host", "--port", "--http-port",
            "--no-http", "--workers", "--verbose",
        ),
        "route": (
            *FRONT_END, "--cluster", "--deadline", "--health-interval",
            "--health-timeout",
        ),
        "compare": ("left", "right", "--show"),
    }

    def test_every_subcommand_argument_is_pinned(self):
        from repro.cli import build_parser

        assert _arguments(build_parser()) == self.ARGUMENTS

    def test_serve_and_route_share_one_front_end(self):
        """The six front-end options are the only ones ``serve`` and
        ``route`` have in common, and each is one argparse action both
        commands hold — declared once, not twice alike."""
        from repro.cli import build_parser

        commands = _subparsers(build_parser())
        actions = {
            name: {
                action.option_strings[0]: action
                for action in commands[name]._actions
                if action.option_strings and action.dest != "help"
            }
            for name in ("serve", "route")
        }
        shared = actions["serve"].keys() & actions["route"].keys()
        assert shared == set(FRONT_END)
        for option in FRONT_END:
            assert actions["serve"][option] is actions["route"][option]

    @pytest.mark.parametrize("command", [
        ["serve", "--store", "s.store"],
        ["route", "--cluster", "cluster.json"],
    ])
    @pytest.mark.parametrize("flag", ["--budget-cost", "--budget-matches"])
    def test_budget_options_are_gone(self, command, flag, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([*command, flag, "1"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestIngestCLI:
    @pytest.fixture
    def live_store(self, example_files, tmp_path, capsys):
        db, hierarchy = example_files
        patterns = tmp_path / "patterns.tsv"
        main([
            "mine", "--db", db, "--hierarchy", hierarchy,
            "--sigma", "1", "--gamma", "1", "--lam", "3",
            "--out", str(patterns),
        ])
        store = tmp_path / "live.shards"
        main([
            "index", "build", "--patterns", str(patterns),
            "--hierarchy", hierarchy, "--out", str(store),
            "--shards", "3",
        ])
        capsys.readouterr()
        return str(store), db

    def test_init_add_retire_status_flush(
        self, live_store, tmp_path, capsys
    ):
        store, db = live_store
        spool = str(tmp_path / "spool")
        state = str(tmp_path / "state")
        rc = main([
            "ingest", "init", "--store", store, "--spool", spool,
            "--state", state, "--gamma", "1", "--lam", "3",
        ])
        assert rc == 0
        assert "initialized ingest state" in capsys.readouterr().out

        rc = main(["ingest", "add", "--state", state, "a c", "b1 a"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ingested 2 sequences" in out
        assert "delta-00000000-00000002.store" in out

        rc = main(["ingest", "add", "--state", state, "--db", db])
        assert rc == 0
        assert "ingested 6 sequences" in capsys.readouterr().out

        rc = main(["ingest", "retire", "--state", state, "--count", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "retired 3 sequences" in out
        assert "retire-00000000-00000003.store" in out

        rc = main(["ingest", "status", "--state", state])
        assert rc == 0
        out = capsys.readouterr().out
        assert "journaled=8" in out
        assert "retained_from=3" in out
        assert "pending:" in out

        rc = main(["ingest", "flush", "--state", state])
        assert rc == 0
        assert "nothing pending" in capsys.readouterr().out

    def test_add_requires_some_input(self, live_store, tmp_path, capsys):
        store, _ = live_store
        spool = str(tmp_path / "spool")
        state = str(tmp_path / "state")
        main([
            "ingest", "init", "--store", store, "--spool", spool,
            "--state", state, "--gamma", "1", "--lam", "3",
        ])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="nothing to ingest"):
            main(["ingest", "add", "--state", state])
