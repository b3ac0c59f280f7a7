#!/usr/bin/env python3
"""The repo's benchmark: mine → store → HTTP serve → route → live ingest.

    python benchmarks/suite/run.py                      # all five workloads
    python benchmarks/suite/run.py --workload serve_mono --seed 7 --trace
    python benchmarks/suite/run.py --seed 1,2,3,4,5 --out runs/a
    python benchmarks/suite/run.py --compare runs/a/result.json runs/b/result.json

With ``--workload`` one workload runs in this process and the last line
of stdout is the driver's JSON object (end-to-end metrics, or with
``--trace 1`` the per-layer metrics).  Without it every workload runs in
its own subprocess, once per seed.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE_DIR))

from lashbench import catalogue, report  # noqa: E402
from lashbench.procs import REPO_ROOT, SRC_DIR  # noqa: E402

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

DEFAULT_OUT = REPO_ROOT / ".bench_out"
#: a workload that has not ended by then is stopped, with everything it
#: started (the driver allows a run 180 s)
WORKLOAD_TIMEOUT_S = 180.0


def _workload_module(name: str):
    if name.startswith("mine_"):
        from lashbench import mining as module
    elif name.startswith("serve_"):
        from lashbench import serving as module
    else:
        from lashbench import ingest as module
    return module


def run_one(args: argparse.Namespace) -> int:
    """One workload, in this process."""
    from lashbench import procs
    from lashbench.run_state import Run
    from lashbench.spans import SpanRecorder

    load, warning = procs.load_warning()
    started = time.perf_counter()
    weather = [procs.ref_kernel_ms()]
    with procs.workspace(args.workload) as work:
        run = Run(
            workload=args.workload,
            seed=args.seed[0],
            seconds=args.seconds,
            work=work,
            recorder=SpanRecorder() if args.trace else None,
        )
        if warning:
            run.warnings.append(warning)
        _workload_module(args.workload).run(run)
        weather.append(procs.ref_kernel_ms())
        run.metric("bench.ref_kernel_ms", sum(weather) / 2, "ms", n=2)
        run.metric(
            "bench.error_rate", run.failed / max(1, run.attempted), "ratio",
            n=run.attempted,
        )
        result = report.run_record(run, load, time.perf_counter() - started)
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            stem = f"{run.workload}-{run.seed}"
            (out / f"run-{stem}.json").write_text(
                json.dumps(result) + "\n", encoding="utf-8"
            )
            if run.recorder is not None:
                run.recorder.dump(
                    out / f"trace-{run.workload}.json",
                    workload=run.workload, seed=run.seed,
                )
    report.print_run(result)
    print(json.dumps(report.driver_line(result, bool(args.trace))))
    return 0 if result["correct"] else 1


def _run_workload(command: list[str]) -> tuple[int, str]:
    """Run one workload in a session of its own, so that on a timeout it
    and every server it started can be killed as one process group."""
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=WORKLOAD_TIMEOUT_S)
        return process.returncode, stdout
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, _ = process.communicate()
        return -signal.SIGKILL, stdout
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess, once per seed."""
    from lashbench import procs

    out = Path(args.out) if args.out is not None else DEFAULT_OUT
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    failed = False
    for seed in args.seed:
        for workload in catalogue.load().workloads:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(int(bool(args.trace))), "--out", str(out),
            ]
            print(f"== {workload} (seed {seed}) ==", flush=True)
            returncode, stdout = _run_workload(command)
            # the child's last line is the driver's JSON; the rest is
            # the named metrics for people
            print("\n".join(stdout.splitlines()[:-1]), flush=True)
            record_path = out / f"run-{workload}-{seed}.json"
            if returncode != 0 or not record_path.exists():
                failed = True
                print(f"!! {workload} failed (exit {returncode})")
            if record_path.exists():
                runs.append(json.loads(record_path.read_text(encoding="utf-8")))
                record_path.unlink()
    result = {"machine": procs.machine(), "seeds": args.seed, "runs": runs}
    (out / "result.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )
    (out / "summary.json").write_text(
        json.dumps(report.summarize(result), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {out / 'result.json'} and summary.json")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload, in this process")
    parser.add_argument(
        "--seed", type=lambda raw: [int(s) for s in raw.split(",")],
        default=[catalogue.DEFAULT_SEEDS[0]],
        help="the seed, or for a set of runs a comma-separated list (standard "
        f"set: {','.join(map(str, catalogue.DEFAULT_SEEDS))})",
    )
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="add the traced pass and report the per-layer metrics",
    )
    parser.add_argument("--out", help="directory for results and span files")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two result files; exit non-zero on a regression",
    )
    parser.add_argument("--role", help=argparse.SUPPRESS)
    parser.add_argument("--plan", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return report.compare_files(*args.compare)
    if args.role == "ingester":
        from lashbench.ingest import ingester_main

        return ingester_main(args.plan)
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"{SRC_DIR}/repro is missing: there is no program to measure")
    if args.seconds is None:
        args.seconds = float(catalogue.load().run_seconds)
    if args.workload is None:
        return run_all(args)
    if args.workload not in catalogue.load().workloads:
        parser.error(f"unknown workload {args.workload!r}")
    if len(args.seed) != 1:
        parser.error("--workload takes one seed")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
