"""Host-speed yardstick: scale measured times to a nominal host speed.

The benchmark runs on shared virtual machines whose speed swings within a
minute.  On a 2-vCPU 2.1 GHz guest the same 300-digit product took 36 to
61 ms, averaged over windows of a few seconds, and runs of the same seed
disagreed by 10 to 25%.  No estimator inside a run removes that drift.

So a fixed piece of pure-Python work, which runs no decreal code, is timed
between requests, at most once every ``PERIOD_S`` seconds.  A time measured
at moment t is multiplied by ``NOMINAL_S`` divided by the median yardstick
time of the samples nearest t.  The yardstick and the request run in the
same process moments apart, so a slow host slows both and the ratio holds,
while a slower decreal slows only the request.  The garbage collector is
off while the yardstick runs, so its time does not depend on the size of
the program's heap.
"""

import bisect
import gc
import statistics
import time
from fractions import Fraction

perf = time.perf_counter

# The median yardstick time of the reference host: 2,840 samples over 60 s
# on a 2-vCPU 2.1 GHz guest with Python 3.11.7 had median 0.97 ms and
# quartiles 0.77 and 1.08 ms.  So a scaled time is the wall time the work
# takes on that host at its median speed.
NOMINAL_S = 0.001
PERIOD_S = 0.05
WINDOW = 3  # samples on each side of a moment


def yardstick_work():
    """Long division, big-integer growth and Fraction arithmetic, like
    decreal's own inner loops but sharing none of its code."""
    r, mant = 1, 0
    for _ in range(1200):
        r *= 10
        d, r = divmod(r, 9973)
        mant = mant * 10 + d
    q = Fraction(mant, 10 ** 1200)
    for k in range(1, 30):
        q = q * Fraction(k, k + 2) + Fraction(1, 3 * k)
    return q


class HostSpeed:
    def __init__(self):
        self.times = []
        self.took = []

    def sample(self, count=1):
        for _ in range(count):
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = perf()
                yardstick_work()
                t1 = perf()
            finally:
                if enabled:
                    gc.enable()
            self.times.append(t0)
            self.took.append(t1 - t0)

    def tick(self):
        """Take a sample if the last one is older than ``PERIOD_S``."""
        if not self.times or perf() - self.times[-1] >= PERIOD_S:
            self.sample()

    def scale(self, t):
        """Factor that turns a time measured at moment ``t`` into nominal time."""
        j = bisect.bisect(self.times, t)
        return NOMINAL_S / statistics.median(self.took[max(0, j - WINDOW):j + WINDOW])
