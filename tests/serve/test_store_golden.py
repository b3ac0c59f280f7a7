"""Golden bytes of the pattern store.

The fig1 and text300 mining results (the inputs of
``tests/mapreduce/test_golden_counters.py``) are written as a single-file
store and as a ``shards=4`` directory.  Every file is pinned with its size
and SHA-256, every store file with the section sizes ``lash index info``
prints for it, and each store with its pattern count.  A change to the
store format shows up here as a diff of one table.
"""

import hashlib

import pytest

from repro import Lash
from repro.cli import main
from tests.mapreduce.test_golden_counters import GOLDEN

#: the section line ``lash index info`` prints under each store file
SECTIONS = (
    "vocabulary",
    "lengths",
    "pattern_offsets",
    "patterns",
    "posting_directory",
    "postings",
)

#: (case, shards) -> (patterns, [(file, bytes, sha256, SECTIONS sizes)]);
#: the manifest has no sections
STORE_GOLDEN = {
    ('fig1', None): (
        10,
        [
            ('patterns.store', 381,
             '0ada484591261222b30e4ff4b2621c327dabf618f15c3364c8713a4b0675698c',
             (65, 10, 44, 41, 44, 61)),
        ],
    ),
    ('fig1', 4): (
        10,
        [
            ('manifest.json', 356,
             'ea1c9bc8edde13992b28d990f6c5fcac1ef25bd9ef67dd759597bcb8368f33e4',
             None),
            ('shard-00000-of-00004.store', 336,
             '7b942240867415742462a2bd1475da38109dda7b9d5579213ea1fde9ade0e7ba',
             (65, 7, 32, 29, 44, 43)),
            ('shard-00001-of-00004.store', 266,
             'e529ef0bc3952b4f20e43801ab96546df0d4b8b5ac116fb971acab99a57e0e1c',
             (65, 3, 16, 12, 36, 18)),
            ('shard-00002-of-00004.store', 189,
             '668e8f831be29251c2ca70adbbdcc0709af7dc341e7915e0950cadc6e90735ea',
             (65, 0, 4, 0, 4, 0)),
            ('shard-00003-of-00004.store', 189,
             '668e8f831be29251c2ca70adbbdcc0709af7dc341e7915e0950cadc6e90735ea',
             (65, 0, 4, 0, 4, 0)),
        ],
    ),
    ('text300', None): (
        453,
        [
            ('patterns.store', 11910,
             '113a252a0c1cce646fd63afd85a7e7ac9a8c88a923ecea299b1e40d91ad266e0',
             (3319, 453, 1816, 2088, 556, 3562)),
        ],
    ),
    ('text300', 4): (
        453,
        [
            ('manifest.json', 360,
             'f96bc79ce10e589af1225a2db734fedda19328eae1ea4e8c0bd354dd6e5dfbb5',
             None),
            ('shard-00000-of-00004.store', 6658,
             'cec0ea67ed86f542705e81fed4dd80e1ed9dc1c6a756413949e7199e2a5402c5',
             (3319, 165, 664, 759, 348, 1287)),
            ('shard-00001-of-00004.store', 5623,
             '1a87ccc633ed6224d02a4b3823c07a82f8759e2203464d8913a975407d1a2bf8',
             (3319, 105, 424, 483, 372, 804)),
            ('shard-00002-of-00004.store', 6590,
             'eaae497356d5c8e6db89e5face9fe014efc78f76a616d092aef2a98d189b49e5',
             (3319, 158, 636, 732, 388, 1241)),
            ('shard-00003-of-00004.store', 4002,
             '8dcad88daa6a8dc34098981412dbd202f5b95ea20584ffd1ca5638cb10895cc6',
             (3319, 25, 104, 114, 132, 192)),
        ],
    ),
}


def _cells(line: str) -> dict[str, str]:
    return dict(cell.split("=", 1) for cell in line.split() if "=" in cell)


def _info_sections(store, capsys) -> dict[str, tuple[int, ...]]:
    """File name -> section sizes, read from ``lash index info``."""
    assert main(["index", "info", "--store", str(store)]) == 0
    lines = capsys.readouterr().out.splitlines()
    sections = {}
    for row, following in zip(lines, lines[1:]):
        if "version=" not in row:
            continue  # the sharded aggregate row
        cells = _cells(following)
        assert following.lstrip().startswith("sections")
        assert tuple(cells) == SECTIONS
        name = _cells(row)["path"].rsplit("/", 1)[-1]
        sections[name] = tuple(int(size) for size in cells.values())
    return sections


@pytest.mark.parametrize("case, shards", sorted(STORE_GOLDEN, key=str))
def test_store_bytes_are_pinned(case, shards, tmp_path, capsys):
    patterns, files = STORE_GOLDEN[(case, shards)]
    params, database, hierarchy = GOLDEN[case][0]()
    result = Lash(params).mine(database, hierarchy)
    assert len(result) == patterns
    store = tmp_path / "patterns.store"
    result.to_store(store, shards=shards)
    written = [store] if store.is_file() else sorted(store.iterdir())
    assert [
        (
            path.name,
            path.stat().st_size,
            hashlib.sha256(path.read_bytes()).hexdigest(),
        )
        for path in written
    ] == [(name, size, digest) for name, size, digest, _ in files]
    assert _info_sections(store, capsys) == {
        name: sections for name, _, _, sections in files if sections
    }
