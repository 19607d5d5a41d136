"""The benchmark's workloads and the configs generated for them.

Each workload is a closed batch: the benchmark makes one ``tightci
simulate`` call after another, with no arrival rate.  Every call gets its
own config, generated from the workload seed and the call's index, so the
same seed always gives the same inputs.  The grid, method list and
replication count of a workload never change, so per-call work counts repeat
exactly across seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

ALPHA = 0.05
# The fig2a and fig2c data-generating processes of the bundled configs.
FIG2A_DGP = {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5}
FIG2C_DGP = {"kind": "uniform_null", "lo": 0.0, "hi": 0.1}
# The short determinism probe (rerun, 1 and 2 workers) and its size.
PROBE_CONFIG = "config-probe.json"
PROBE_REPLICATIONS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    setting: str
    ns: tuple[int, ...]
    pi: str
    methods: tuple[str, ...]
    dgp: dict
    replications: int
    workers: int
    # Reference loop of calibration.py that scales this workload's times.
    reference_loop: str
    # Calls whose reports are pooled for the coverage and RMSE floors and the
    # quality metrics.  A run makes at least this many timed calls, however
    # long they take, so pooled figures always describe the same inputs.
    min_calls: int

    @property
    def cell_reps(self) -> int:
        """Cell-replications completed by one simulate call."""
        return len(self.ns) * self.replications

    def config(self, seed: int, index: int | str, replications: int | None = None) -> dict:
        return {
            "experiment": self.experiment,
            "grid": {"n": list(self.ns), "pi": [self.pi], "alpha": [ALPHA]},
            "methods": list(self.methods),
            "dgp": dict(self.dgp),
            "replications": replications or self.replications,
            "seed": config_seed(self.name, seed, index),
            "setting": self.setting,
        }

    def write_configs(self, seed: int, directory: Path) -> list[Path]:
        """Write the timed calls' configs and the probe config; return the former."""
        paths = []
        for index in range(self.min_calls):
            path = directory / f"config-{index:03d}.json"
            path.write_text(json.dumps(self.config(seed, index)), encoding="utf-8")
            paths.append(path)
        (directory / PROBE_CONFIG).write_text(
            json.dumps(self.config(seed, "probe", PROBE_REPLICATIONS)), encoding="utf-8"
        )
        return paths


def config_seed(workload: str, seed: int, index: int | str) -> int:
    """Config seed in [2**16, 2**31), so every seed pickles to the same size."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return 2**16 + int.from_bytes(digest[:4], "big") % (2**31 - 2**16)


_GROUPED = dict(
    experiment="coverage",
    setting="design_based",
    ns=(1000, 5000),
    pi="1/10",
    methods=("hoeff-mbcr", "sub-bernoulli-mbcr", "studentized"),
    dgp=FIG2A_DGP,
    replications=20,
    reference_loop="blocks",
    min_calls=100,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="grouped-coverage", workers=1, **_GROUPED),
        Workload(
            name="bernoulli-superpop",
            experiment="coverage",
            setting="superpopulation",
            ns=(20000,),
            pi="1/100",
            methods=("sub-bernoulli-bern", "naive-hoeffding", "clt", "studentized-bern"),
            dgp=FIG2C_DGP,
            replications=50,
            workers=1,
            reference_loop="arrays",
            min_calls=80,
        ),
        Workload(
            name="rmse-large-n",
            experiment="rmse",
            setting="design_based",
            ns=(100000,),
            pi="1/1000",
            methods=("ht-mbcr", "ht-bernoulli"),
            dgp=FIG2A_DGP,
            replications=10,
            workers=1,
            reference_loop="arrays",
            min_calls=60,
        ),
        # In the parent of a 2-worker run the blocks loop reads up to twice as
        # slow as in grouped-coverage at the same moment (likely copy-on-write
        # faults after each pool's fork), so this workload uses the arrays loop.
        Workload(
            name="grouped-coverage-2w", workers=2, **{**_GROUPED, "reference_loop": "arrays"}
        ),
    )
}
