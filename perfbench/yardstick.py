"""A fixed reference computation that tells how fast the machine runs right now.

On a shared host the same code runs up to half again slower for stretches
of seconds to minutes, and within such a stretch every kind of work slows
by about the same factor.  The harness times this kernel next to every op,
outside the op's timed interval, and scales the op's time by
REFERENCE_S / (median kernel time over the neighbouring ops): the result is
the time the op would take on a machine where the kernel takes REFERENCE_S.
A change to imeasure leaves the kernel alone, so it moves scaled times as
much as raw ones; a change of machine speed moves both kernel and op and
cancels out.

The kernel mixes the kinds of work imeasure does: a bitmask search for the
components of induced subgraphs, a JSON round trip, and numpy marginals and
entropies.  It does not import imeasure.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The kernel's median time on the 2-core Intel Xeon VM the baseline was
# recorded on; a fixed conversion factor, not a measurement of later runs.
REFERENCE_S = 3.0e-3
WINDOW = 5  # kernel samples on each side of an op that set its speed

_N = 12
_ADJ = [((v + 1) % _N, (v + _N - 1) % _N, (v + 5) % _N) for v in range(_N)]
_DOC = {"n": 10, "values": [[i, i * 0.5, str(i)] for i in range(300)]}
_P = np.random.default_rng(0).random(1 << 10)
_P /= _P.sum()


def _kernel() -> float:
    acc = 0.0
    for mask in range(0, 1 << _N, 7):
        seen = 0
        for v in range(_N):
            if mask >> v & 1 and not seen >> v & 1:
                acc += 1
                stack = [v]
                seen |= 1 << v
                while stack:
                    for w in _ADJ[stack.pop()]:
                        if mask >> w & 1 and not seen >> w & 1:
                            seen |= 1 << w
                            stack.append(w)
    for _ in range(3):
        acc += len(json.loads(json.dumps(_DOC))["values"])
    table = _P.reshape((2,) * 10)
    for axis in range(10):
        m = table.sum(axis=axis).ravel()
        acc += float(-(m * np.log2(m)).sum())
    return acc


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(times: list[float], kernel: list[float]) -> list[float]:
    """Each time at reference speed; kernel[i] was sampled next to times[i]."""
    out = []
    for i, t in enumerate(times):
        near = kernel[max(0, i - WINDOW) : i + WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
