"""A fixed probe of how fast the host runs this kind of work right now.

The shared 2-core host the benchmark was tuned on slows every process by
10-130% for minutes at a time, longer than a run, so raw op times spread
across runs by more than any useful bound.  The probe is a fixed piece of
work of the same kinds as the program's: float formatting and parsing in
Python, an Euler-like loop of small matrix-vector products, small SVDs,
and a proximal-gradient loop on 20x20 matrices.  It uses no swingid code,
so a change to the program moves the ratio of an op's time to the
probe's, and a change of host speed mostly does not.

`normalised(seconds, probes)` is the time an interval would take on a host
where the probe takes PROBE_S, given probe times taken beside it.
"""

from __future__ import annotations

import random
from time import perf_counter

# about the probe's time on the tuning host; a fixed scale, so that
# normalised times read as seconds and compare across commits
PROBE_S = 0.25

_ROWS = 3000
_N = 20


def _text(rnd: random.Random) -> float:
    # rows like a trajectory file's: t and _N states
    rows = [[rnd.gauss(0.0, 1.0) for _ in range(_N + 1)] for _ in range(_ROWS)]
    text = "\n".join(",".join(repr(v) for v in row) for row in rows)
    parsed = [[float(p) for p in line.split(",")] for line in text.splitlines()]
    return parsed[-1][-1]


def _numeric(rnd: random.Random) -> float:
    import numpy as np
    rng = np.random.default_rng(rnd.getrandbits(32))
    noise = rng.standard_normal((2 * _ROWS, _N))
    a = 0.05 * rng.standard_normal((_N, _N))
    state = np.zeros(_N)
    for row in noise:
        state = np.maximum(a @ state + row, -1.0)
    for row in noise[:300]:
        np.linalg.svd(a + row[0])
    s0 = np.cov(noise[:200].T)
    x = y = np.zeros((_N, _N))
    for _ in range(1500):
        z = y - 0.1 * (y @ s0 - 0.5 * s0)
        x_next = np.sign(z) * np.maximum(np.abs(z) - 0.01, 0.0)
        y = x_next + 0.5 * (x_next - x)
        x = x_next
    return float(state[0] + x[0, 0])


def probe() -> float:
    """Seconds the fixed probe takes now."""
    rnd = random.Random(0)
    start = perf_counter()
    _text(rnd)
    _numeric(rnd)
    return perf_counter() - start


def normalised(seconds: float, probes: list[float]) -> float:
    return seconds * PROBE_S * len(probes) / sum(probes)
