"""A fixed piece of pure-Python work that measures how fast this host runs
Python at the moment.

On a shared host the same code runs up to 1.7 times slower for periods from
a quarter of a second to minutes.  The benchmark times this gauge between
rounds and expresses every end-to-end timing at the speed at which the
gauge's best pass takes ``REFERENCE_S``: a timing is multiplied by
``REFERENCE_S / best gauge pass`` of the same run.  The gauge does not call
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import time

import oracle

#: The gauge's best pass on the host the reference figures come from.
REFERENCE_S = 2.5e-3

_rng = random.Random(5)
_IMAGES = [tuple(_rng.sample(range(1, 201), 200)) for _ in range(20)]


def gauge_seconds() -> float:
    """Time one pass: write 20 fixed permutations of 200 letters in cycle
    notation and read them back."""
    t0 = time.perf_counter()
    for images in _IMAGES:
        oracle.parse_cycle_text(oracle.cycle_text(images), 200)
    return time.perf_counter() - t0
