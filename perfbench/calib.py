"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on shared hosts whose CPUs change speed under it: the
same code runs 20% slower from one second to the next and up to twice as
slow over tens of minutes. A raw wall time then measures the host as much
as the program. So the benchmark times a fixed probe just before and just
after every timed interval, on the same CPU, and reports the interval at
the reference speed:

    calibrated_s = wall_s / slowness

where `slowness` is the mean of the two probes' times over PROBE_REF_S
(1.0 means the host runs at the reference speed). The intervals are the
chunks of a pass, each set-up, and each CLI call; the metrics are medians
over many of them, which also absorbs the noise of the probes themselves.

The probe never calls krawbound, so a change to the program moves the
calibrated times as it moves the wall times; the raw wall times are
reported next to them. It mixes a pure-Python loop with butterfly passes
over a 1.6 MB float64 batch, the size of the library's batched transforms,
because a pass mixes interpreter and array work and the array part follows
the memory and cache contention that an interpreter loop misses.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 3
# the probe's time at the reference speed (s), near its median on the
# 2-vCPU x86-64 host the bounds were fixed on
PROBE_REF_S = 0.013


def _probe() -> None:
    table = {}
    acc = 0
    for i in range(30000):
        acc += i * i % 7
        table[i & 255] = acc
    x = np.linspace(-1.0, 1.0, 200 * 1024).reshape(200, 1024)
    h = 1
    while h < x.shape[1]:
        y = x.reshape(x.shape[0], -1, 2, h)
        a = y[:, :, 0, :].copy()
        y[:, :, 0, :] += y[:, :, 1, :]
        y[:, :, 1, :] = a - y[:, :, 1, :]
        h *= 2
    np.abs(x, out=x)
    x **= 1.5


def slowness() -> float:
    """The median of REPEATS timed probes over PROBE_REF_S."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - t0)
    return sorted(times)[REPEATS // 2] / PROBE_REF_S


def calibrated(wall_s: float, slowness: float) -> float:
    """`wall_s` at the reference speed."""
    return wall_s / slowness
