"""An on-CPU probe of how fast the benchmark's CPU runs, and scaling by it.

The benchmark runs on a shared host whose CPUs change speed for seconds to
minutes at a time: a fixed job takes 1.6 to 1.9 times as long in the slow
state, with process CPU time equal to wall time and almost no steal
reported, and the state of one CPU hardly follows that of the other.  So
``run.py`` pins itself and every child to one CPU, and a ``SpeedProbe``
thread on that same CPU runs a fixed job of about 1 ms (``probe_job``) every
``PERIOD_S`` while the children run.  ``SpeedProbe.scaled`` turns a
measured interval into the time it would take at the reference speed: the
interval minus the probe's own time in it, times the mean of
``REFERENCE_S / probe time`` over the probes in it.

The kinds of work slow down by different amounts in the slow state: dense
LAPACK less than interpreted Python and small numpy calls.  So the probe
job mixes them, about a third of its time in ``eigvals`` of a 40 x 40
matrix.  A job of only matrix-vector steps over-corrected the LAPACK-bound
`sweep-hinf` (scaled times 10 % lower in runs at 0.55 of the reference
speed than at 0.82); one with two thirds LAPACK under-corrected both
`sweep-hinf` and `simulate-lqr`.
"""

import threading
import time

import numpy as np

PERIOD_S = 0.03          # pause between two probe jobs
# probe_job's time on the reference machine's CPU in its fast state; only
# the ratio to it matters, so it sets the scale of the scaled times
REFERENCE_S = 0.0011

_A = np.eye(10) * 0.999
_B = np.ones(10)
_M = np.random.default_rng(20150407).standard_normal((40, 40))


def probe_job():
    """Dense eigenvalues, small matrix-vector steps and float formatting:
    the kinds of work the CLI does."""
    lam = np.linalg.eigvals(_M)
    x = np.zeros(10)
    for _ in range(150):
        x = _A @ x + 1e-3 * _B
    return ",".join(f"{v:.17g}" for v in np.concatenate([x, lam.real]))


class SpeedProbe:
    """Runs probe_job every PERIOD_S in a thread while in a with block.

    The thread inherits the CPU affinity of the thread that enters the
    block, so pin that one first."""

    def __init__(self):
        self._samples = []            # (start, duration) of each probe_job
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            t = time.perf_counter()
            probe_job()
            self._samples.append((t, time.perf_counter() - t))

    def _inside(self, t0, t1):
        samples = list(self._samples)
        inside = [d for t, d in samples if t0 <= t < t1]
        # an interval too short to hold a probe takes the run's speed so far
        return inside, (inside or [d for _, d in samples])

    def scaled(self, t0, t1):
        """Seconds the interval [t0, t1) would take at the reference speed,
        without the probe's own time."""
        inside, speed_from = self._inside(t0, t1)
        if not speed_from:
            return t1 - t0
        speed = sum(REFERENCE_S / d for d in speed_from) / len(speed_from)
        return (t1 - t0 - sum(inside)) * speed

    def speed(self):
        """Mean speed over every probe so far, as a share of the reference."""
        samples = list(self._samples)
        return (sum(REFERENCE_S / d for _, d in samples) / len(samples)
                if samples else 1.0)
