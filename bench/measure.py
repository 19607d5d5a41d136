"""Run one workload's timed ``tightci simulate`` calls in this process.

Usage: python3 bench/measure.py WORK_DIR SECONDS TRACE

``WORK_DIR`` holds ``workload.json`` and the generated configs written by
``run.py``; this script writes ``result.json`` (and, when TRACE is 1,
``spans.json``) there.  Every call goes through ``tightci.cli.main``, the
public ``simulate`` path, and every report it writes is checked.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import spans
from calibration import calibrate
from workloads import PROBE_CONFIG, Workload

# A run stops after this many seconds even if it has not made its minimum
# number of calls, and counts that as a failed check.
DEADLINE_S = 120.0


class Runner:
    def __init__(self, workload: Workload) -> None:
        import tightci.cli

        self.main = tightci.cli.main
        self.csv_name = f"{workload.experiment}.csv"
        self.tally = checks.Tally()
        self.digests: dict[str, str] = {}

    def simulate(
        self, config: Path, out: Path, workers: int, tracer=None, call=0
    ) -> tuple[float, bool]:
        """Wall time of one simulate call, and whether it exited with 0."""
        argv = ["simulate", "--config", str(config), "--out", str(out), "--workers", str(workers)]
        if tracer is not None:
            tracer.install(call)
        try:
            start = perf_counter()
            code = self.main(argv)
            wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        ok = self.tally.check(
            code == 0, f"simulate {config.name} --workers {workers} exited {code}"
        )
        return wall, ok

    def check(self, out: Path, key: str, what: str) -> list[dict]:
        """Check the report in ``out``; reports under one key must match bytes."""
        csv_bytes = (out / self.csv_name).read_bytes()
        manifest = (out / "manifest.json").read_bytes()
        rows = checks.check_report(self.tally, self.csv_name, csv_bytes, manifest)
        digest = hashlib.sha256(csv_bytes + manifest).hexdigest()
        if key in self.digests:
            self.tally.check(self.digests[key] == digest, f"{what}: bytes differ for {key}")
        else:
            self.digests[key] = digest
        return rows


def run(work: Path, seconds: float, trace: bool) -> dict:
    spec = json.loads((work / "workload.json").read_text(encoding="utf-8"))
    workload = Workload(**spec)
    configs = sorted(work.glob("config-[0-9]*.json"))
    runner = Runner(workload)
    tracer = spans.Tracer() if trace else None
    out = work / "out"

    # Warm-up: the first call in a process pays for lazy set-up and is not timed.
    if runner.simulate(configs[0], out, workload.workers)[1]:
        runner.check(out, configs[0].name, "rerun")

    calls = {"untraced": [], "traced": []}
    reports = []
    start = perf_counter()
    call = 0
    before = calibrate(workload.reference_loop)
    while (call < len(configs) or perf_counter() - start < seconds) and (
        perf_counter() - start < DEADLINE_S
    ):
        config = configs[call % len(configs)]
        traced = trace and call % 2 == 1
        wall, ok = runner.simulate(config, out, workload.workers, tracer if traced else None, call)
        after = calibrate(workload.reference_loop)
        calls["traced" if traced else "untraced"].append(
            {"wall": wall, "calibration": (before + after) / 2}
        )
        before = after
        if ok:
            rows = runner.check(out, config.name, "rerun")
            if call < len(configs):
                reports.append(rows)
        call += 1
    runner.tally.check(
        call >= len(configs), f"made {call} of {len(configs)} calls in {DEADLINE_S} s"
    )
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    pooled = checks.pool(reports)
    checks.check_pooled(runner.tally, pooled)

    # Determinism probe: a rerun and a 2-worker run give the 1-worker bytes.
    probe = work / PROBE_CONFIG
    for index, workers in enumerate((1, 1, 2)):
        probe_out = work / f"probe-{index}"
        if runner.simulate(probe, probe_out, workers)[1]:
            runner.check(probe_out, probe.name, f"probe run {index} with {workers} worker(s)")

    result = {
        "calls": calls,
        "maxrss_kb": maxrss_kb,
        "quality": checks.quality(pooled),
        "attempted": runner.tally.attempted,
        "failures": runner.tally.failures,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["trace"] = trace_summary(tracer, [c["wall"] for c in calls["traced"]])
        (work / "spans.json").write_text(
            json.dumps(
                {"fields": ["name", "start", "end", "parent", "call"], "spans": tracer.spans}
            ),
            encoding="utf-8",
        )
    return result


def trace_summary(tracer: spans.Tracer, traced_walls: list[float]) -> dict:
    traced_calls = len(traced_walls)
    pairs = len(tracer.closed_form_pairs)
    return {
        "layers": spans.summarize(tracer, traced_calls, sum(traced_walls)),
        "missing": tracer.missing,
        "closed_form_calls_per_cell": tracer.closed_form_calls() / pairs if pairs else 0.0,
        "population_bytes": tracer.population_bytes // traced_calls,
        "tasks": tracer.tasks // traced_calls,
        "task_bytes": tracer.task_bytes,
    }


if __name__ == "__main__":
    work_dir = Path(sys.argv[1])
    outcome = run(work_dir, float(sys.argv[2]), sys.argv[3] == "1")
    (work_dir / "result.json").write_text(json.dumps(outcome), encoding="utf-8")
