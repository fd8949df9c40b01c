"""Seconds at reference speed.

The box this benchmark was sized on is a 2-vCPU VM whose cores switch
between discrete speed levels (about 1x, 1.25x and 1.55x the fastest) for
seconds to minutes at a time, with no steal time reported: a fixed
pure-Python loop timed at idle moved 7.3 -> 11.3 ms and back, and the
median of 200 compile passes moved by 55 % between two 22-second runs of
the same commit. Neither medians nor minima over a run survive that, so
every timing is normalised: a short fixed loop (``spin``) is timed
immediately before and after each measured operation, in the same thread,
and the operation's wall time is divided by how much slower than
``REFERENCE_SPIN_S`` that loop ran. What is reported is therefore the time
the operation would take on a machine that runs ``spin`` in
``REFERENCE_SPIN_S`` — which is this box at its fastest level, so the
numbers read as its quiet-machine seconds. Halves the run-to-run spread
(README, "Noise"); costs two spins (~0.7 ms) per sample.
"""

from __future__ import annotations

import statistics
import time

#: ``spin()`` on the sizing box at its fastest level (CPython 3.11, 2.1 GHz)
REFERENCE_SPIN_S = 0.000365
_SPIN_ITERATIONS = 10_000


def spin() -> float:
    """Seconds one run of the fixed calibration loop takes right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(_SPIN_ITERATIONS):
        s += i * i
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, spins) -> float:
    """``seconds`` rescaled by the median of the ``spins`` taken around it
    (a spin that was itself preempted must not carry the estimate)."""
    return seconds * REFERENCE_SPIN_S / statistics.median(spins)


def timed(fn):
    """Call ``fn()``; returns (its reference-speed seconds, its result)."""
    before = spin()
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    return at_reference_speed(elapsed, (before, spin())), out
