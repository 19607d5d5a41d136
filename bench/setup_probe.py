"""Time tightci's set-up in a fresh interpreter: import the CLI, load one config.

Usage: python3 bench/setup_probe.py CONFIG

Prints one JSON object with ``import_s``, ``config_s`` and
``calibration_s``, the median time of the ``arrays`` reference loop (see
``calibration.py``) run right after.
Nothing but ``sys`` and ``time`` is imported before the clock starts, so the
import chain is measured as a user's first ``tightci`` command pays it.
"""

import sys
import time

start = time.perf_counter()
import tightci.cli  # noqa: E402,F401

imported = time.perf_counter()
from tightci.harness import load_config  # noqa: E402

load_config(sys.argv[1])
loaded = time.perf_counter()

import json  # noqa: E402
from statistics import median  # noqa: E402

from calibration import SETUP_LOOP, calibrate  # noqa: E402

print(
    json.dumps(
        {
            "import_s": imported - start,
            "config_s": loaded - imported,
            "calibration_s": median(calibrate(SETUP_LOOP) for _ in range(3)),
        }
    )
)
