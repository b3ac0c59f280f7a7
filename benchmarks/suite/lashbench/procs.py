"""Process hygiene: the work directory, child processes and ``/proc``.

Servers bind port 0 and announce their address on stdout; every child is
stopped in ``finally`` (SIGINT → SIGTERM → SIGKILL, each waited for);
temporary stores and spools live under one work directory inside the
checkout, removed when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = REPO_ROOT / ".bench_work"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_ADDRESS_RE = re.compile(r"(?:http://)?(\d+\.\d+\.\d+\.\d+):(\d+)")


class HarnessError(RuntimeError):
    """The harness itself could not do its job (a child died, a server
    never announced itself) — not a measurement, never a metric."""


@contextlib.contextmanager
def workspace(name: str):
    """A fresh directory under the checkout for stores, spools and logs;
    ``TMPDIR`` points into it so nothing lands outside the checkout."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    previous = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(path)
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """One child process whose stdout lines are read on a thread."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.argv = argv
        self._log = open(log, "wb")
        self.process = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(),
            cwd=str(REPO_ROOT),
            text=True,
        )
        self.pid = self.process.pid
        self.lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        #: sampled just before the process is stopped
        self.final_cpu_s: float | None = None
        self.final_peak_rss_mb: float | None = None

    def _pump(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def read_line(self, timeout: float) -> str:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise HarnessError(
                f"{self.argv[:4]}: no output within {timeout:g}s"
            ) from None
        if line is None:
            raise HarnessError(
                f"{self.argv[:4]}: exited with {self.process.wait()} "
                f"(log: {self._log.name})"
            )
        return line

    def announced_address(self, timeout: float = 30.0) -> tuple[str, int]:
        """Host and port from the next stdout line that carries one."""
        deadline = time.perf_counter() + timeout
        while True:
            line = self.read_line(max(0.1, deadline - time.perf_counter()))
            match = _ADDRESS_RE.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def begin_stop(self, kill: bool = False) -> None:
        """Sample ``/proc`` one last time and ask the process to stop
        (``kill``: make it, for a server with nothing left to flush)."""
        if self.process.poll() is None:
            self.final_cpu_s = proc_cpu_s(self.pid)
            self.final_peak_rss_mb = proc_peak_rss_mb(self.pid)
            self.process.send_signal(signal.SIGKILL if kill else signal.SIGINT)

    def finish_stop(self) -> None:
        """Wait until the process has ended, escalating if it lingers."""
        for grace, escalate in (
            (3.0, self.process.terminate),
            (2.0, self.process.kill),
            (None, None),
        ):
            try:
                self.process.wait(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                escalate()
        self._reader.join(timeout=2.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


class Children:
    """Every child a run starts, stopped together in ``finally``."""

    def __init__(self, log_dir: Path) -> None:
        self._log_dir = log_dir
        self._children: list[Child] = []

    def spawn(self, name: str, argv: list[str]) -> Child:
        child = Child(
            argv, self._log_dir / f"{name}-{len(self._children)}.log"
        )
        self._children.append(child)
        return child

    def lash(self, name: str, *args: str) -> Child:
        """Start ``lash <args>`` (``python -m repro.cli``)."""
        return self.spawn(
            name, [sys.executable, "-m", "repro.cli", *map(str, args)]
        )

    def stop(self, *children: Child, kill: bool = False) -> None:
        stopping = children or tuple(self._children)
        for child in stopping:
            child.begin_stop(kill)
        for child in stopping:
            child.finish_stop()
            if child in self._children:
                self._children.remove(child)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # the command name may contain spaces; fields resume after ")"
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise HarnessError(f"/proc/{pid}/status has no VmHWM")


def machine() -> dict:
    commit = "unknown"
    if (REPO_ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


# ----------------------------------------------------------------------
# the reference kernel: a weather indicator, nothing more
#
# The box this runs on is a small VM on a shared host whose speed moves
# by a fifth and more for seconds to minutes at a time.  A fixed piece of
# work of the program's own kind (dicts keyed by tuples, sets, a sort) is
# timed when a run starts and when it ends and reported as
# ``bench.ref_kernel_ms``: when it moved between two runs, the machine
# moved.  No metric is scaled by it.
# ----------------------------------------------------------------------

_REF_RNG = random.Random(12345)
_REF_SEQUENCES = [
    [int(_REF_RNG.paretovariate(1.1)) % 500 for _ in range(_REF_RNG.randint(3, 12))]
    for _ in range(1600)
]
_REF_PARENT = [item // 7 + 500 for item in range(500)]


def _ref_kernel() -> int:
    counts: dict[tuple, int] = {}
    for sequence in _REF_SEQUENCES:
        generalised = [(_REF_PARENT[item], item) for item in sequence]
        seen = set()
        for i in range(len(sequence) - 1):
            for a in generalised[i]:
                for b in generalised[i + 1]:
                    if (a, b) not in seen:
                        seen.add((a, b))
                        counts[a, b] = counts.get((a, b), 0) + 1
            if i + 2 < len(sequence):
                key = (sequence[i], sequence[i + 1], sequence[i + 2])
                counts[key] = counts.get(key, 0) + 1
    frequent = sorted(
        (key for key, count in counts.items() if count >= 2),
        key=lambda key: (len(key), key),
    )
    index: dict[int, list[int]] = {}
    for position, key in enumerate(frequent):
        for item in key:
            index.setdefault(item, []).append(position)
    return len(frequent) + len(index)


def ref_kernel_ms() -> float:
    """The reference kernel's time now, in ms: the fastest of three goes
    with the collector off.  A full collection walks the caller's whole
    heap, which would make the reading a property of the harness; one go
    in three may also start on a cold cache or be pre-empted, whereas
    slow weather slows all three."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            _ref_kernel()
            timings.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return 1e3 * min(timings)


def load_warning() -> tuple[float, str | None]:
    """1-minute load average and, when it exceeds the core count, a
    warning that timings from this run are suspect."""
    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    if load > cores:
        return load, (
            f"load average {load:.2f} exceeds nproc={cores}: "
            "timings from this run are suspect"
        )
    return load, None
