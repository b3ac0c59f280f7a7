"""Start-up cost is proportional to the command (README, "Start-up").

``lash <command>`` runs under ``-X importtime`` in a subprocess and the
*set* of modules it loaded is held against what that command has no
business loading: a store reader loads neither numpy nor the mining
core, an ingester no HTTP server, a miner no serving tier.  Module
sets, never milliseconds, so nothing here can flake on a slow box.

The second half pins what makes that possible: the package
``__init__``s resolve their public names on first use, every module can
be the first one imported, and numpy is a dependency of the text /
products generators only.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core.lash import Lash
from repro.core.params import MiningParams
from repro.datasets import example_database, example_hierarchy
from repro.io import write_database, write_hierarchy, write_patterns
from repro.serve.ingest import Ingestor

SRC = str(Path(repro.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC)
TIMEOUT_S = 60

#: a process that answers from a store runs none of these
SERVING_FORBIDDEN = (
    "numpy",
    "repro.datasets",
    "repro.baselines",
    "repro.analysis",
    "repro.miners",
    "repro.core",  # psm, rewrite and everything around them
    "repro.mapreduce",
    "repro.serve.ingest",
    "multiprocessing",
    "concurrent.futures.process",
)
#: reading a store is not building one: only ``serve --compact-spool``,
#: whose daemon folds deltas, loads the writer and the external sort
WRITER_SIDE = (
    "repro.serve.writer",
    "repro.io.runs",
    "repro.serve.compact",
)
#: an ingester micro-mines (``serve.ingest`` -> ``core.lash`` is its
#: job) but generates no data, compares no baselines, serves no HTTP
INGEST_FORBIDDEN = (
    "numpy",
    "repro.datasets",
    "repro.baselines",
    "repro.analysis",
    "http.server",
)
#: the mirror rule: mining, even with ``--store``, starts no server
MINING_FORBIDDEN = (
    "http.server",
    "repro.serve.http",
    "repro.serve.router",
    "repro.serve.distributed",
)


@pytest.fixture
def site(tmp_path) -> Path:
    """The Fig. 1 example as every artefact a command reads: corpus and
    hierarchy files, a pattern TSV, a single-file and a sharded sigma=1
    store, ingest state over the sharded one, and a cluster map."""
    root = tmp_path / "site"
    root.mkdir()
    database, hierarchy = example_database(), example_hierarchy()
    write_database(database, root / "db.txt")
    write_hierarchy(hierarchy, root / "h.txt")
    result = Lash(MiningParams(sigma=1, gamma=1, lam=3)).mine(
        database, hierarchy
    )
    write_patterns(result, root / "patterns.tsv")
    result.to_store(root / "mono.store")
    result.to_store(root / "live.shards", shards=2)
    Ingestor.init(
        root / "state", root / "live.shards", root / "spool", gamma=1, lam=3
    )
    # nobody listens on port 1: the router announces with 0 healthy.
    # The router reads no "http_port": a map that carries one loads
    server = {"host": "127.0.0.1", "port": 1, "http_port": 1}
    (root / "cluster.json").write_text(
        json.dumps({"num_shards": 2, "replication": 1, "servers": [server]})
    )
    return root


def _loaded_modules(importtime_log: str) -> list[str]:
    """Module names, in load order, from ``-X importtime`` stderr."""
    modules = []
    for line in importtime_log.splitlines():
        if line.startswith("import time:") and "[us]" not in line:
            modules.append(line.rsplit("|", 1)[1].strip())
    return modules


def _offenders(modules: list[str], forbidden: tuple[str, ...]) -> list[str]:
    return [
        module
        for module in modules
        if any(
            module == name or module.startswith(name + ".")
            for name in forbidden
        )
    ]


class _Lash:
    """One ``python -X importtime -m repro.cli <args>`` subprocess.

    A one-shot command is run to completion.  A server is read up to
    its ``announce`` line and left running for the ``with`` body, which
    can ask for the port and for the modules loaded so far; a watchdog
    kills a server that never announces, so a broken one fails the test
    instead of hanging it.
    """

    def __init__(self, tmp: Path, args: list, announce: str | None = None):
        self._log = tmp / "importtime.txt"
        self._args = [str(arg) for arg in args]
        self._announce = announce
        self._printed = ""

    def __enter__(self) -> "_Lash":
        self._err = open(self._log, "w")
        self._proc = subprocess.Popen(
            [sys.executable, "-u", "-X", "importtime", "-m", "repro.cli"]
            + self._args,
            stdout=subprocess.PIPE,
            stderr=self._err,
            text=True,
            env=ENV,
        )
        watchdog = threading.Timer(TIMEOUT_S, self._proc.kill)
        watchdog.start()
        try:
            if self._announce is None:
                output = self._proc.stdout.read()
                assert self._proc.wait() == 0, output
            else:
                for line in self._proc.stdout:
                    self._printed += line
                    if self._announce in line:
                        break
                else:
                    self._proc.wait()
                    pytest.fail(
                        f"lash {' '.join(self._args)} exited without "
                        f"announcing:\n{self._log.read_text()[-2000:]}"
                    )
        except BaseException:
            self.__exit__(None, None, None)
            raise
        finally:
            watchdog.cancel()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
        self._err.close()

    def modules(self) -> list[str]:
        return _loaded_modules(self._log.read_text())

    def http_port(self) -> int:
        return int(re.search(r"http://[\d.]+:(\d+)", self._printed).group(1))


def _census(tmp: Path, args: list, announce: str | None = None) -> list[str]:
    with _Lash(tmp, args, announce) as lash:
        modules = lash.modules()
    assert "repro" in modules, modules[-5:]
    return modules


#: command line (``{site}`` is the fixture directory) and, for a
#: server, the line it announces with
SERVING_COMMANDS = {
    "index info": ("index info --store {site}/live.shards", None),
    "index info (single file)": ("index info --store {site}/mono.store", None),
    "query": (
        "query --patterns {site}/patterns.tsv --hierarchy {site}/h.txt +",
        None,
    ),
    "serve": ("serve --store {site}/mono.store --port 0", "serving "),
    "serve --compact-spool": (
        "serve --store {site}/live.shards --port 0 "
        "--compact-spool {site}/spool",
        "compacting deltas",
    ),
    "shard-serve": (
        "shard-serve --store {site}/live.shards --shards 0",
        "shard server:",
    ),
    "route": ("route --cluster {site}/cluster.json --port 0", "routing "),
}


@pytest.mark.parametrize("command", sorted(SERVING_COMMANDS))
def test_serving_commands_load_no_mining_stack(site, tmp_path, command):
    line, announce = SERVING_COMMANDS[command]
    modules = _census(tmp_path, line.format(site=site).split(), announce)
    assert _offenders(modules, SERVING_FORBIDDEN) == []
    if "--compact-spool" in line:
        assert set(WRITER_SIDE) <= set(modules)
    else:
        assert _offenders(modules, WRITER_SIDE) == []
    assert "repro.query.base" in modules  # the matcher did load
    if command == "route":
        # health is a ping on the shard protocol: no HTTP client
        assert "urllib.request" not in modules


@pytest.mark.parametrize("command", ["status", "add"])
def test_ingest_commands_load_no_server_and_no_numpy(
    site, tmp_path, command
):
    args = ["ingest", command, "--state", site / "state"]
    if command == "add":
        args.append("a b1 a")
    modules = _census(tmp_path, args)
    assert _offenders(modules, INGEST_FORBIDDEN) == []
    # micro-mining is the ingester's job: its core is a module-level
    # import of serve.ingest, not something `add` loads half-way
    assert "repro.core.lash" in modules


def test_mining_loads_no_serving_tier(site, tmp_path):
    modules = _census(
        tmp_path,
        ["mine", "--db", site / "db.txt", "--hierarchy", site / "h.txt",
         "--sigma", "2", "--gamma", "1", "--lam", "3",
         "--store", tmp_path / "mined.store"],
    )
    assert _offenders(modules, MINING_FORBIDDEN + ("numpy",)) == []
    assert "repro.serve.writer" in modules  # --store did run


def _metric(port: int, name: str) -> float:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=5
    ) as response:
        for line in response.read().decode().splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
    raise AssertionError(f"/metrics has no {name}")


def test_nothing_is_imported_after_the_announce_line(site, tmp_path):
    """A query, a /metrics scrape and a whole fold (spool scan, delta
    verify, merge, shard write, manifest swap, backend swap) after the
    announce line load no module: the daemon's writer path came in when
    the daemon was constructed, not under the first fold."""
    args = [
        "serve", "--store", site / "live.shards", "--port", "0",
        "--compact-spool", site / "spool", "--compact-interval", "0.1",
    ]
    # the daemon starts right after its own line, the last one printed
    with _Lash(tmp_path, args, "compacting deltas") as lash:
        at_announce = lash.modules()
        port = lash.http_port()
        generation = _metric(port, "lash_store_generation")
        Ingestor.open(site / "state").add([("a", "b1", "a")])
        deadline = time.monotonic() + TIMEOUT_S
        while _metric(port, "lash_store_generation") == generation:
            assert time.monotonic() < deadline, "the delta was never folded"
            time.sleep(0.05)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/query?q=a+%3F", timeout=5
        ) as response:
            assert json.load(response)["matches"]
        after_fold = lash.modules()
    assert after_fold[len(at_announce):] == []


# ----------------------------------------------------------------------
# what makes it possible: lazy re-exports, no import cycles, optional numpy
# ----------------------------------------------------------------------

LAZY_PACKAGES = (
    "repro",
    "repro.serve",
    "repro.io",
    "repro.datasets",
    "repro.core",
    "repro.mapreduce",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(dir(module)) >= set(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) >= set(module.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def _python(code: str, *argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=TIMEOUT_S,
    )


def test_a_leaf_import_loads_a_leaf():
    done = _python(
        "import json, sys, repro.io.codec\n"
        "print(json.dumps(sorted("
        "m for m in sys.modules if m.startswith('repro'))))"
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        "repro", "repro._lazy", "repro.constants", "repro.errors",
        "repro.io", "repro.io.codec",
    ]


def test_every_module_can_be_imported_first():
    """Lazy ``__init__``s take away the import order the eager ones
    imposed, so a cycle between leaves (``miners.base`` <-> ``core``)
    would now depend on who is imported first.  Nobody may depend on
    that: each module is imported into an interpreter state that holds
    no other ``repro`` module."""
    done = _python(
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages("
        "repro.__path__, 'repro.')]\n"
        "assert 'repro.miners.base' in names, names\n"
        "for name in names:\n"
        "    for loaded in [m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.')]:\n"
        "        del sys.modules[loaded]\n"
        "    importlib.import_module(name)\n"
    )
    assert done.returncode == 0, done.stderr[-2000:]


_WITHOUT_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_numpy_is_optional_outside_the_generators(site, tmp_path):
    patterns, store = tmp_path / "patterns.tsv", tmp_path / "patterns.store"
    for args in (
        ["mine", "--db", site / "db.txt", "--hierarchy", site / "h.txt",
         "--sigma", "2", "--gamma", "1", "--lam", "3", "--out", patterns],
        ["index", "build", "--patterns", patterns,
         "--hierarchy", site / "h.txt", "--out", store],
        ["index", "info", "--store", store],
        ["query", "--patterns", patterns, "--hierarchy", site / "h.txt",
         "a ^B"],
        ["generate", "events", "--machines", "5", "--out", tmp_path / "ev"],
    ):
        done = _python(_WITHOUT_NUMPY, *args)
        assert done.returncode == 0, (args, done.stderr[-2000:])

    done = _python(
        _WITHOUT_NUMPY, "generate", "text", "--out", tmp_path / "text"
    )
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    (message,) = done.stderr.strip().splitlines()
    assert "numpy" in message and message.startswith("lash generate text")
