"""Correctness checks on the reports ``tightci simulate`` writes.

Every check counts toward the run's ``attempted`` and ``failed`` totals,
whose ratio is the benchmark's failed fraction.  Each report is checked on
its own for finite numbers, the right RMSE bound and a manifest that hashes
its CSV bytes.  The paper's guarantees are Monte Carlo floors, so they are
checked on the rows pooled over a run's reports, which share one grid and
replication count: coverage of at least ``1 - alpha`` for the closed forms
and ``1 - 2 alpha`` for the Studentized interval (none for the asymptotic
CLT interval), and the RMSE of every row's point estimator within its bound.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

# Multiple of alpha each method may miss by; clt has no floor.
MISS_MULTIPLE = {
    "hoeff-mbcr": 1,
    "sub-bernoulli-mbcr": 1,
    "sub-bernoulli-bern": 1,
    "naive-hoeffding": 1,
    "studentized": 2,
    "studentized-bern": 2,
}
# Methods whose point estimate is the grouped Horvitz-Thompson estimator.
GROUPED_ESTIMATE = {"hoeff-mbcr", "sub-bernoulli-mbcr", "studentized", "ht-mbcr"}
NUMERIC_COLUMNS = (
    "n",
    "pi",
    "alpha",
    "coverage_rate",
    "coverage_se",
    "mean_halfwidth",
    "width_times_sqrt_npi",
    "rmse",
    "rmse_bound",
    "replications",
    "seed",
)


class Tally:
    """Counts checks attempted and failed, keeping the failures' messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def rmse_bound(method: str, n: int, pi: float) -> float:
    """The paper's RMSE bound of the estimator behind ``method``."""
    if method in GROUPED_ESTIMATE:
        return 2.0 / math.sqrt(n * pi)
    return math.sqrt(2.0 / (n * pi))


def _present(row: dict, col: str) -> bool:
    return row.get(col, "") != ""


def parse_rows(csv_bytes: bytes) -> list[dict]:
    """CSV rows with every non-blank numeric column as a float."""
    rows = []
    for raw in csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))):
        row = dict(raw)
        for col in NUMERIC_COLUMNS:
            if row.get(col):
                try:
                    row[col] = float(row[col])
                except ValueError:
                    row[col] = math.nan
        rows.append(row)
    return rows


def check_report(
    tally: Tally, csv_name: str, csv_bytes: bytes, manifest_bytes: bytes
) -> list[dict]:
    """Check one report and its manifest; return the parsed rows."""
    outputs = json.loads(manifest_bytes).get("outputs", {})
    tally.check(
        outputs.get(csv_name) == hashlib.sha256(csv_bytes).hexdigest(),
        f"manifest sha256 of {csv_name} does not match the CSV bytes",
    )
    rows = parse_rows(csv_bytes)
    tally.check(bool(rows), f"{csv_name} has no rows")
    for row in rows:
        where = f"{row.get('method')} n={row.get('n')}"
        numbers = [v for col, v in row.items() if col in NUMERIC_COLUMNS and v != ""]
        tally.check(all(math.isfinite(v) for v in numbers), f"{where}: non-finite value")
        if _present(row, "rmse_bound"):
            bound = rmse_bound(row["method"], row["n"], row["pi"])
            tally.check(
                math.isclose(row["rmse_bound"], bound, rel_tol=1e-12),
                f"{where}: rmse_bound {row['rmse_bound']} is not {bound}",
            )
    return rows


def pool(reports: list[list[dict]]) -> dict[tuple, dict]:
    """Rows of equal-sized reports pooled per (method, n, pi, alpha).

    Coverage and half-width are averaged; RMSE is the root of the mean
    squared RMSE, which is the RMSE over all the pooled replications.
    """
    groups: dict[tuple, list[dict]] = {}
    for rows in reports:
        for row in rows:
            groups.setdefault((row["method"], row["n"], row["pi"], row["alpha"]), []).append(row)
    pooled = {}
    for key, rows in groups.items():
        entry = {"rmse": math.sqrt(sum(r["rmse"] ** 2 for r in rows) / len(rows))}
        for col in ("coverage_rate", "width_times_sqrt_npi"):
            if all(_present(r, col) for r in rows):
                entry[col] = sum(r[col] for r in rows) / len(rows)
        pooled[key] = entry
    return pooled


def check_pooled(tally: Tally, pooled: dict[tuple, dict]) -> None:
    """The coverage floors and RMSE bounds, on pooled rows."""
    for (method, n, pi, alpha), entry in pooled.items():
        where = f"{method} n={n:g}"
        multiple = MISS_MULTIPLE.get(method)
        if "coverage_rate" in entry and multiple is not None:
            floor = 1.0 - multiple * alpha
            tally.check(
                entry["coverage_rate"] >= floor,
                f"{where}: coverage {entry['coverage_rate']} below {floor}",
            )
        bound = rmse_bound(method, n, pi)
        tally.check(
            entry["rmse"] <= bound, f"{where}: rmse {entry['rmse']} above its bound {bound}"
        )


def quality(pooled: dict[tuple, dict]) -> dict[str, float]:
    """Tightness and accuracy of pooled rows.

    ``halfwidth_norm`` is the mean ``width_times_sqrt_npi`` over the interval
    rows (0 when there are none); ``rmse_ratio`` is the mean ratio of each
    row's RMSE to its estimator's bound.
    """
    widths = [e["width_times_sqrt_npi"] for e in pooled.values() if "width_times_sqrt_npi" in e]
    ratios = [e["rmse"] / rmse_bound(m, n, pi) for (m, n, pi, _), e in pooled.items()]
    return {
        "halfwidth_norm": sum(widths) / len(widths) if widths else 0.0,
        "rmse_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
    }
