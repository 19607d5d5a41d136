"""tightci benchmark: ``simulate`` throughput, set-up time and memory.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in ``BENCHMARK.json`` and defined in
``workloads.py``.  Each run generates its configs from ``--seed`` under
``.bench_work/`` and runs them through ``tightci.cli.main(["simulate", ...])``
from ``src/``; nothing is installed.  Every report is checked (``checks.py``).

* ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
  fresh interpreters of importing ``tightci.cli`` and loading one config),
  ``reps_per_s`` (median over timed calls of cell-replications per second),
  ``peak_rss_mb`` (largest resident set of the measuring process and its pool
  workers) and ``rmse_ratio`` (pooled RMSE over the estimator's bound).
* ``--trace 1`` prints the per-layer metrics from spans recorded around
  tightci's functions (``spans.py``), with set-up split by ``-X importtime``.

``setup_s``, ``reps_per_s`` and the ``setup.*`` times are scaled to the
reference speed of a loop in ``calibration.py``, which is timed next to
every call and probe; the unscaled values are printed as well.  Span times
are not scaled.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and record the machine.  A fuller record, with the
tail percentiles and every failed check, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import perf_counter

from calibration import SETUP_LOOP, reference_s
from spans import TRACED
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
# Fresh interpreters timed for set-up, one after another.
SETUP_RUNS = 5
# The whole run must end well within 180 s.
RUN_DEADLINE_S = 170.0

LAYER_FIELDS = (("calls", "count"), ("p50_ms", "ms"), ("tail_ms", "ms"), ("self_share", "ratio"))


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def child_env(root: Path) -> dict[str, str]:
    """Environment for every child: tightci from the checkout's ``src/``.

    ``TIGHTCI_THREADS`` overrides ``--workers``, so it is removed to keep
    each workload's worker count fixed.
    """
    env = dict(os.environ)
    env.pop("TIGHTCI_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in a new process group; on timeout kill the group, pool workers included."""
    proc = subprocess.Popen(
        [sys.executable, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[0]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{err}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative seconds ``-X importtime`` charges to ``scipy.stats``."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.stats":
            return int(parts[1]) / 1e6
    return 0.0


def measure_setup(config: Path, env: dict, runs: int, trace: bool, deadline: float) -> dict:
    """Set-up times over ``runs`` fresh interpreters, one at a time.

    Each probe's times are scaled by its reference loop to the reference
    speed; the result holds their medians, and the unscaled median of the
    whole set-up as ``raw_setup_s``.
    """
    flags = ["-X", "importtime"] if trace else []
    samples = []
    for _ in range(runs):
        proc = run_child(
            [*flags, str(HERE / "setup_probe.py"), str(config)],
            env,
            deadline - perf_counter(),
        )
        sample = json.loads(proc.stdout.splitlines()[-1])
        sample["scipy_import_s"] = scipy_import_s(proc.stderr)
        sample["setup_s"] = sample["import_s"] + sample["config_s"]
        samples.append(sample)
    scaled = {
        key: median(s[key] * reference_s(SETUP_LOOP) / s["calibration_s"] for s in samples)
        for key in ("setup_s", "import_s", "scipy_import_s", "config_s")
    }
    scaled["raw_setup_s"] = median(s["setup_s"] for s in samples)
    return scaled


def cache_sizes() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return caches


def run_benchmark(
    root: Path,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_runs: int = SETUP_RUNS,
) -> dict:
    """One run: set-up probes, the timed calls and the checks; returns the record."""
    deadline = perf_counter() + RUN_DEADLINE_S
    work = root / ".bench_work" / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    results = root / ".bench_work" / "results"
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        (work / "workload.json").write_text(json.dumps(asdict(workload)), encoding="utf-8")
        configs = workload.write_configs(seed, work)
        env = child_env(root)
        setup = measure_setup(configs[0], env, setup_runs, trace, deadline)
        run_child(
            [str(HERE / "measure.py"), str(work), str(seconds), str(int(trace))],
            env,
            deadline - perf_counter(),
        )
        child = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if trace:
            shutil.move(work / "spans.json", results / f"{stem}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = child["calls"]["untraced"]
    raw_reps_per_s = median(workload.cell_reps / c["wall"] for c in untraced)
    if trace:
        metrics = layer_metrics(child, setup)
    else:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "reps_per_s": (
                workload.cell_reps
                / (median(slowness(untraced)) * reference_s(workload.reference_loop)),
                "1/s",
            ),
            "peak_rss_mb": (child["maxrss_kb"] / 1024.0, "MiB"),
            "rmse_ratio": (child["quality"]["rmse_ratio"], "ratio"),
        }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "machine": {
            "cores": os.cpu_count(),
            "platform": platform.platform(),
            **child["versions"],
            "caches": cache_sizes(),
        },
        "calls": len(untraced) + len(child["calls"]["traced"]),
        "raw_reps_per_s": raw_reps_per_s,
        "raw_setup_s": setup["raw_setup_s"],
        "reference_loop": workload.reference_loop,
        "calibration_s": median(c["calibration"] for c in untraced),
        "attempted": child["attempted"],
        "failed": len(child["failures"]),
        "failures": child["failures"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if trace:
        record["layers"] = child["trace"]["layers"]
        record["missing_layers"] = child["trace"]["missing"]
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def slowness(calls: list[dict]) -> list[float]:
    """Each call's wall time in units of its calibration loop's time."""
    return [c["wall"] / c["calibration"] for c in calls]


def layer_metrics(child: dict, setup: dict) -> dict[str, tuple[float, str]]:
    trace = child["trace"]
    metrics = {}
    for layer in TRACED:
        stats = trace["layers"][layer]
        for field, unit in LAYER_FIELDS:
            metrics[f"{layer}.{field}"] = (stats[field], unit)
    metrics.update(
        {
            "intervals.closed_form_calls_per_cell": (trace["closed_form_calls_per_cell"], "ratio"),
            "intervals.halfwidth_norm": (child["quality"]["halfwidth_norm"], "ratio"),
            "dgp.sample_population.bytes": (trace["population_bytes"], "bytes"),
            "harness.tasks": (trace["tasks"], "count"),
            "harness.task_bytes": (trace["task_bytes"], "bytes"),
            "setup.import_s": (setup["import_s"], "s"),
            "setup.scipy_import_s": (setup["scipy_import_s"], "s"),
            "setup.config_s": (setup["config_s"], "s"),
            "trace.overhead_frac": (
                median(slowness(child["calls"]["traced"]))
                / median(slowness(child["calls"]["untraced"]))
                - 1.0,
                "ratio",
            ),
        }
    )
    return metrics


def report(record: dict) -> None:
    """Print every metric with its unit, the machine and the checks, then the JSON line."""
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    for name, metric in record["metrics"].items():
        print(f"{name:45s} {metric['value']!r:>24} {metric['unit']}")
    for name, stats in record.get("layers", {}).items():
        if stats["samples"]:
            print(f"# {name}: tail is p{stats['tail_pct']:g} of {stats['samples']} samples")
    for name in record.get("missing_layers", []):
        print(f"# {name}: missing (not found in this version of tightci)")
    print(
        f"# unscaled: reps_per_s {record['raw_reps_per_s']!r}, setup_s {record['raw_setup_s']!r}; "
        f"reference loop {record['reference_loop']} {record['calibration_s']!r} s"
    )
    print(
        f"# checks: {record['failed']} failed of {record['attempted']}, "
        f"over {record['calls']} timed calls"
    )
    for failure in record["failures"][:20]:
        print(f"# FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "tightci" / "cli.py").is_file():
        print(f"error: no tightci sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run_benchmark(
            root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
