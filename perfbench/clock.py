"""Timing normalised for the speed of the machine.

On the shared 2-core machine the benchmark was defined on, plain Python code
runs up to 2x slower for stretches of seconds to minutes while other tenants
load the cores; the slowdown shows in the process's own CPU time too, so it
cannot be timed away.  Every timed call is therefore bracketed by two runs of
a fixed pure-Python loop (``loop_seconds``) that does not touch the program.
A run charges each call ``seconds * REF_LOOP / loop`` (``charged``), where
``loop`` is the mean of the two loop times around the call: the time the call
would have taken on a machine that runs the loop in ``REF_LOOP`` seconds, the
loop's time in the fast state of the machine the benchmark was defined on.
The ratio of call time to loop time holds steadier across machine states
than a run-wide correction does.  The raw times are kept in the run's record
under perfbench/out/.
"""

import math
import time

REF_LOOP = 2.5e-4


def loop_seconds() -> float:
    """Time of a fixed loop of float arithmetic and math calls (~0.25 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        s = 0.5 + i * 1e-3
        t = 1.0 / s
        acc += t * math.sinh(t) - s * math.sin(s)
    return time.perf_counter() - t0


class Timed:
    """Context manager: ``seconds`` of the block and ``loop``, the mean loop
    time just before and just after it."""

    def __enter__(self):
        self.loop = loop_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self.start
        self.loop = 0.5 * (self.loop + loop_seconds())
        return False


def charged(seconds: float, loop: float) -> float:
    """A call's time scaled to the reference machine speed."""
    return seconds * REF_LOOP / loop
