"""A machine-speed probe for untraced rounds.

The benchmark shares a few cores of a host with other tenants, and the speed
of those cores changes by up to two times within seconds, so a round's wall
time alone says as much about the host as about the program. While a CLI call
runs, a SIGALRM every ``INTERVAL_S`` runs a fixed piece of work in the main
thread and records how long it took. A round's wall time divided by the mean
probe time of that round is its length in probe-lengths: it moves with the
program and much less with the host.

Host speed does not change all kinds of work alike: when the host is fast,
plain Python and small numpy calls gain about 1.7 times and work on
megabyte-sized arrays about 1.3 times. So each workload uses the probe that
does the kind of work it spends its time on: per-call overhead, array work,
or both.

The probe's own time is taken out of the call's wall time, so the raw round
time the benchmark reports is the program's.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2

_SMALL = np.linspace(0.0, 1.0, 64).reshape(8, 8)
# The shape of a batch-8 selective-scan state of the default model
# (batch, history, 2 * d_model, n_state), and a matmul of its width.
_STATE = np.linspace(0.0, 1.0, 8 * 21 * 128 * 8).reshape(8, 21, 128, 8)
_SCRATCH = np.empty_like(_STATE)
_ROWS = np.linspace(0.0, 1.0, 168 * 128).reshape(168, 128)
_WEIGHTS = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)


def interpreter_s() -> float:
    """Wall time of ~5 ms of small numpy calls and plain Python."""
    acc, table = 0.0, {}
    start = time.perf_counter()
    for i in range(800):
        b = np.tanh(_SMALL @ _SMALL + 0.001 * i)
        acc += float(b[0, 0]) + sum(x * 0.5 for x in range(8))
        table[i % 64] = acc
    return time.perf_counter() - start


def array_s() -> float:
    """Wall time of ~4 ms of elementwise work and matmuls on arrays of the
    training shapes, written into preallocated buffers (one BLAS thread)."""
    start = time.perf_counter()
    for _ in range(5):
        np.multiply(_STATE, 0.5, out=_SCRATCH)
        np.exp(_SCRATCH, out=_SCRATCH)
        np.multiply(_SCRATCH, _STATE[::-1], out=_SCRATCH)
        np.tanh(_ROWS @ _WEIGHTS)
    return time.perf_counter() - start


def mixed_s() -> float:
    """Both: for work that is part per-call overhead, part array work."""
    return interpreter_s() + array_s()


PROBES = {"interpreter": interpreter_s, "array": array_s, "mixed": mixed_s}


class SpeedProbe:
    """Context manager: samples a probe every ``INTERVAL_S`` while open."""

    def __init__(self, kind: str):
        self.work = PROBES[kind]
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(self.work())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
