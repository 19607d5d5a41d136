"""The benchmark's own tests.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import checks
import spans
from run import run_benchmark
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HEADER = (
    "schema_version,method,n,pi,alpha,coverage_rate,coverage_se,mean_halfwidth,"
    "width_times_sqrt_npi,rmse,rmse_bound,replications,seed\n"
)


def _report(rows: str) -> tuple[bytes, bytes]:
    csv_bytes = (HEADER + rows).encode()
    manifest = json.dumps({"outputs": {"coverage.csv": hashlib.sha256(csv_bytes).hexdigest()}})
    return csv_bytes, manifest.encode()


def _failures(rows: str) -> list[str]:
    tally = checks.Tally()
    parsed = checks.check_report(tally, "coverage.csv", *_report(rows))
    checks.check_pooled(tally, checks.pool([parsed]))
    return tally.failures


def test_checker_counts_low_coverage_and_non_finite_values():
    good = (
        "1,hoeff-mbcr,1000,0.1,0.05,1.0,0.0,0.27,2.7,0.011,,20,7\n"
        "1,studentized,1000,0.1,0.05,0.95,0.04,0.05,0.5,0.011,,20,7\n"
    )
    assert _failures(good) == []
    bad = (
        "1,hoeff-mbcr,1000,0.1,0.05,0.9,0.06,0.27,2.7,0.011,,20,7\n"
        "1,studentized,1000,0.1,0.05,0.95,0.04,inf,0.5,0.011,,20,7\n"
    )
    failures = _failures(bad)
    assert len(failures) == 2
    assert any("non-finite" in f and "studentized" in f for f in failures)
    assert any("coverage 0.9 below" in f and "hoeff-mbcr" in f for f in failures)


def test_missing_layer_is_reported_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setitem(spans.TRACED, "harness.renamed", [("tightci.harness", "no_such_function")])
    tracer = spans.Tracer()
    assert "harness.renamed" in tracer.missing
    tracer.install(call=0)
    tracer.uninstall()
    summary = spans.summarize(tracer, traced_calls=1, traced_wall=1.0)
    assert summary["harness.renamed"]["calls"] == -1
    assert summary["design.draw_mbcr"]["calls"] == 0


def test_every_workload_emits_every_metric_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(WORKLOADS) == sorted(w["name"] for w in declared["workloads"])
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[key]}
        for workload in WORKLOADS.values():
            tiny = replace(workload, replications=2, min_calls=2)
            record = run_benchmark(ROOT, tiny, seed=1, seconds=0, trace=trace, setup_runs=1)
            emitted = {name: m["unit"] for name, m in record["metrics"].items()}
            assert emitted == units, (workload.name, trace)
            assert record["attempted"] > 0
            assert all(
                isinstance(m["value"], (int, float)) for m in record["metrics"].values()
            )
