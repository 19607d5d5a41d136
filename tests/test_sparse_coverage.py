"""Coverage of every interval on sparse binary tables.

A table holds k ones among n units, with k chosen so that the expected
number of treated ones, ``n1 k / n = pi k``, is 0.5, 1, 2 or 5: the
rare-event regime in which a few treated units carry the signal.  The ones
sit on both potential outcomes (null), on ``y1`` only, or on ``y0`` only.
Each table runs as a design-based coverage config with the table fixed,
200 replications at seed 1 and alpha 0.025.

A method fails a table when the one-sided Clopper-Pearson upper bound at
confidence 0.999 on its coverage falls below its guarantee
``1 - k alpha`` (k its miscoverage factor), so only clear under-coverage
fails.  ``clt`` is asymptotic and carries no guarantee: its coverage is
printed, not asserted.
"""

import numpy as np
import pytest
from scipy.stats import beta

from reference import write_table_csv
from tightci.estimator import PotentialTable
from tightci.harness import parse_config, run_monte_carlo
from tightci.intervals import METHOD_CLT, METHOD_TABLE

ALPHA = 0.025
REPLICATIONS = 200
CONFIDENCE = 0.999
METHODS = [m for m, spec in METHOD_TABLE.items() if spec.has_interval]
EXPECTED_TREATED_ONES = (0.5, 1, 2, 5)
PATTERNS = ("null", "y1", "y0")


def _sparse_table(n: int, k: int, pattern: str) -> PotentialTable:
    # Spread over the units: Bernoulli draws share their seed at every n, so
    # ones packed at the front would meet the same coins at both n.
    ones = np.zeros(n)
    ones[np.arange(k) * (n // k)] = 1.0
    zeros = np.zeros(n)
    if pattern == "null":
        return PotentialTable(ones, ones)
    if pattern == "y1":
        return PotentialTable(zeros, ones)
    return PotentialTable(ones, zeros)


def _coverage_upper_bound(covered: int, total: int) -> float:
    """One-sided Clopper-Pearson upper bound on a binomial proportion."""
    if covered == total:
        return 1.0
    return float(beta.ppf(CONFIDENCE, covered + 1, total - covered))


@pytest.mark.parametrize("n", [1000, 10_000])
@pytest.mark.parametrize("pi_den", [10, 100])
def test_every_interval_covers_sparse_binary_tables(n, pi_den, tmp_path):
    flagged, clt = [], []
    for expected in EXPECTED_TREATED_ONES:
        k = int(expected * pi_den)
        for pattern in PATTERNS:
            path = tmp_path / f"k{k}_{pattern}.csv"
            write_table_csv(path, _sparse_table(n, k, pattern))
            raw = {
                "experiment": "coverage",
                "grid": {"n": [n], "pi": [f"1/{pi_den}"], "alpha": [ALPHA]},
                "methods": METHODS,
                "dgp": {"kind": "fixed_table", "path": str(path)},
                "replications": REPLICATIONS,
                "seed": 1,
                "setting": "design_based",
            }
            report = run_monte_carlo(parse_config(raw))
            assert [row["method"] for row in report.rows] == METHODS
            for row in report.rows:
                rate = row["coverage_rate"]
                if row["method"] == METHOD_CLT:
                    clt.append(f"k={k} {pattern}: {rate:.3f}")
                    continue
                guarantee = 1.0 - METHOD_TABLE[row["method"]].miscoverage_factor * ALPHA
                covered = round(rate * REPLICATIONS)
                if _coverage_upper_bound(covered, REPLICATIONS) < guarantee:
                    flagged.append(f"{row['method']} k={k} {pattern}: {rate:.3f}")
    print(f"clt coverage at n={n}, pi=1/{pi_den}: " + "; ".join(clt))
    assert not flagged, f"under-coverage at n={n}, pi=1/{pi_den}: {flagged}"
