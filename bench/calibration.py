"""Fixed reference loops that measure how fast the machine runs right now.

On a shared host the speed of a core changes from one second to the next
with its neighbours' load, by up to a factor of two on the machine this
benchmark was defined on.  The benchmark times a reference loop next to
every timed call and set-up probe, and scales each time by the loop's
slowdown against the loop's reference time.  How much a neighbour slows a
program depends on the kind of work it does, so each workload names the
loop that does the kind of work its profile is dominated by, and set-up
probes use ``SETUP_LOOP``:

* ``blocks``: one small permutation per block of ten in a Python loop, an
  inverse permutation and a tuple of per-block index arrays;
* ``arrays``: numpy calls on small arrays in a Python loop, and one sort of
  a large array.

Only the benchmark runs this code, so a change to tightci cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


def _blocks(rng: np.random.Generator) -> None:
    for _ in range(5):
        slots = np.arange(5000)
        for block in range(500):
            slots[block * 10:(block + 1) * 10] = block * 10 + rng.permutation(10)
        order = rng.permutation(5000)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(5000)
        tuple(inverse[b * 10:(b + 1) * 10] for b in range(500))


def _arrays(rng: np.random.Generator) -> None:
    for _ in range(300):
        (rng.permutation(50) * 0.5).sum()
    np.argsort(rng.random(200_000))


# Loop -> (body, about the seconds it takes on an idle core of the reference
# machine: a 2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4).
LOOPS = {"blocks": (_blocks, 0.009), "arrays": (_arrays, 0.008)}
# Set-up is the same import chain for every workload; its times tracked the
# arrays loop more closely than the blocks loop.
SETUP_LOOP = "arrays"


def calibrate(loop: str) -> float:
    """Seconds one pass of the named reference loop takes."""
    body, _ = LOOPS[loop]
    rng = np.random.default_rng(12345)
    start = perf_counter()
    body(rng)
    return perf_counter() - start


def reference_s(loop: str) -> float:
    return LOOPS[loop][1]
