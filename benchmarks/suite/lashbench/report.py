"""Results: the record of one run, its printed form, the driver's line
and ``--compare``."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from lashbench import catalogue, procs
from lashbench.run_state import Run
from lashbench.stats import spread, verdict


def run_record(run: Run, load: float, wall_s: float) -> dict:
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "traced": run.recorder is not None,
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "warnings": run.warnings,
        "metrics": run.metrics,
        "raw": run.raw,
        "load_average": load,
        "wall_s": wall_s,
        "machine": procs.machine(),
    }


def _format(name: str, entry: dict, note: str = "") -> str:
    samples = f"  (n={entry['n']})" if "n" in entry else ""
    note = f"  = {note}" if note else ""
    return f"  {name:<42} {entry['value']:>14.4f} {entry['unit']}{samples}{note}"


def print_run(result: dict) -> None:
    metrics = result["metrics"]
    print(
        f"{result['workload']} seed={result['seed']} "
        f"window={result['seconds']:g}s wall={result['wall_s']:.1f}s "
        f"load={result['load_average']:.2f}"
    )
    for warning in result["warnings"]:
        print(f"  warning: {warning}")
    names = catalogue.load()
    carries = catalogue.CARRIES[result["workload"]]
    print(" end to end")
    for name in names.end_to_end:
        if name in metrics:
            print(_format(name, metrics[name], carries[name]))
    print(" per layer")
    for name in names.per_layer:
        if name in metrics:
            print(_format(name, metrics[name]))
    print(
        f" oracle: {result['attempted'] - result['failed']} of "
        f"{result['attempted']} operations correct"
    )
    for failure in result["failures"]:
        print(f"  failed: {failure}")


def driver_line(result: dict, traced: bool) -> dict:
    """The object the driver reads off the last stdout line: every
    end-to-end metric, or on a traced run every per-layer metric (0 for a
    layer the workload does not exercise)."""
    metrics = result["metrics"]
    if traced:
        chosen = {
            name: metrics.get(name, {"value": 0.0, "unit": unit})
            for name, (unit, _) in catalogue.load().per_layer.items()
        }
    else:
        chosen = {name: metrics[name] for name in catalogue.load().end_to_end}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in chosen.items()
        },
    }


# ----------------------------------------------------------------------
# a set of runs, and --compare
# ----------------------------------------------------------------------


def summarize(result: dict) -> dict:
    """Per workload and metric: median, quartiles, spread and run count
    over a set of runs — the numbers a later issue quotes."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in result["runs"]:
        for name, entry in run["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(name, []).append(
                entry["value"]
            )
    workloads = {}
    for workload, metrics in values.items():
        rows = workloads[workload] = {}
        for name, series in metrics.items():
            row = {"median": statistics.median(series), "runs": len(series)}
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
                row.update(q1=q1, q3=q3, spread=spread(series))
            rows[name] = row
    return {
        "machine": result["machine"],
        "seeds": result["seeds"],
        "workloads": workloads,
    }


def _values(result: dict) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in result["runs"]:
        for name in catalogue.load().end_to_end:
            entry = run["metrics"].get(name)
            if entry is not None:
                values.setdefault((run["workload"], name), []).append(
                    entry["value"]
                )
    return values


def compare(base: dict, change: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    base_values = _values(base)
    change_values = _values(change)
    rows = []
    names = catalogue.load()
    for workload in names.workloads:
        for name, (unit, better, bound) in names.end_to_end.items():
            key = (workload, name)
            if key not in base_values or key not in change_values:
                continue
            row = verdict(base_values[key], change_values[key], better, bound)
            rows.append({"workload": workload, "metric": name, "unit": unit, **row})
    return rows


def compare_files(base_path: str, change_path: str) -> int:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    change = json.loads(Path(change_path).read_text(encoding="utf-8"))
    rows = compare(base, change)
    print(
        f"{'workload':<14} {'metric':<24} {'base':>12} {'change':>12} "
        f"{'ratio':>7} {'spread':>7} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<14} {row['metric']:<24} "
            f"{row['base_median']:>12.4f} {row['change_median']:>12.4f} "
            f"{row['ratio']:>7.3f} {row['spread']:>7.3f} {row['bound']:>6.2f}  "
            f"{row['verdict']} (x{row['ratio']:.3f} of base "
            f"{row['base_median']:.4g} {row['unit']}, "
            f"{row['base_runs']}+{row['change_runs']} runs)"
        )
    counts = {
        outcome: sum(1 for row in rows if row["verdict"] == outcome)
        for outcome in ("ok", "unresolved", "regressed")
    }
    print(
        f"{counts['ok']} ok, {counts['unresolved']} unresolved, "
        f"{counts['regressed']} regressed"
    )
    return 1 if counts["regressed"] else 0
