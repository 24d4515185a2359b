"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants, the speed of a fixed piece of CPU
work drifts by tens of percent over seconds to minutes (measured on the
2-CPU box the baseline comes from: 15-second medians of a fixed Python loop
spread by 19% between windows, with slow spells lasting whole runs).  No
statistic taken inside one run removes a slow spell that covers the run.

So the benchmark times ``calibrate()``, a fixed mix of interpreter work
and small numpy operations like the program's own, before and after every
request, and scales the time of each interpreter-bound request by
``NOMINAL_S`` over the mean of the two calibrations.  Such a time is the
time the request would take on a machine where ``calibrate()`` takes
``NOMINAL_S``; the unscaled times are in the report next to it.  Requests
bound by dense linear algebra or by process start-up are not scaled: the
calibration does not track them, and scaling widened their spread.  This
assumes the program leaves nothing running between requests, which holds
here: pool workers and CLI processes have exited when a request returns.
"""

from __future__ import annotations

import time

import numpy as np

# calibrate() on the baseline machine in a quiet spell (see README).
NOMINAL_S = 0.005

_X = np.linspace(0.1, 5.0, 64)


def calibrate() -> float:
    """Seconds one fixed unit of interpreter and small-array numpy work takes."""
    start = time.perf_counter()
    total = 0.0
    for i in range(600):
        y = np.exp(-_X * (1.0 + i * 1e-3)) / (_X * _X + 1.0)
        total += float(y.sum())
        for j in range(20):
            total += j * 0.5
    return time.perf_counter() - start
