"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's host is shared, and the speed of its CPU changes by tens of
percent from one second to the next and from one minute to the next (see
RESULTS.md).  So every timed measurement is accompanied by runs of this
kernel on the same CPU, and its time is reported at the kernel's nominal
speed::

    corrected = (wall - kernel time inside wall) * NOMINAL_S * mean(1 / kernel_time)

mean(1 / kernel_time) is the mean speed of the machine over the samples,
which is what the wall time of a long operation integrates; a median of the
samples tracks it far less well.  The kernel does not use the package, so a
change to the package moves only the measured operation, never the yardstick.

Its mix follows the operations it corrects: an RK4 loop over small numpy
vectors (integration), one small SVD solve (steering) and float formatting
(export).  A timed operation runs under ``Sampler``, which interrupts it
every ``INTERVAL_S`` with a timer signal and runs the kernel once in the
handler; the handler runs between bytecodes, so long C calls delay a sample
but are never cut.
"""

import signal
from time import perf_counter

import numpy as np

# Nominal kernel time: the median on the machine described in RESULTS.md.
# It is only a unit; it keeps corrected times close to raw ones.
NOMINAL_S = 0.0008
STEPS = 30
INTERVAL_S = 0.03
# The yardstick for set-up time, which the kernel above tracks only loosely:
# imports from the standard library alone, timed in a fresh
# interpreter right after each set-up sample, and their median time on the
# machine described in RESULTS.md.
IMPORTS = ("import xml.dom.minidom, email.message, http.client, sqlite3, decimal, "
           "argparse, tarfile, zipfile, logging.handlers, unittest")
IMPORTS_NOMINAL_S = 0.068

# Kernel runs just before and just after a sampled block, so that short
# blocks still have samples.
EDGE_RUNS = 5

_M = np.array([[0.0, 1.0, 0.2], [-1.0, 0.0, 0.1], [0.3, -0.1, -0.5]])


def _field(t, y):
    return _M @ y + np.array([np.cos(t) * y[1], np.sin(y[0]), -0.1 * y[2] ** 3])


def _kernel():
    x = np.array([0.3, -0.2, 0.1])
    h, t = 0.01, 0.0
    for _ in range(STEPS):
        k1 = _field(t, x)
        k2 = _field(t + h / 2, x + h / 2 * k1)
        k3 = _field(t + h / 2, x + h / 2 * k2)
        k4 = _field(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    u, s, vt = np.linalg.svd(np.column_stack([x, _M @ x, np.cos(x)]))
    a = vt.T @ ((u.T @ x) / s)
    return ",".join(repr(float(v)) for v in (t, *x, *a))


_EXPECTED = _kernel()


def _timed_kernel():
    t0 = perf_counter()
    out = _kernel()
    elapsed = perf_counter() - t0
    if out != _EXPECTED:
        raise RuntimeError("reference kernel output changed between calls")
    return elapsed


class Sampler:
    """Samples machine speed just around and during a block.

    ``with Sampler() as s: ...`` times the block as ``s.wall``; then
    ``s.corrected()`` is its time at nominal speed.
    """

    def __init__(self):
        self.samples = []
        self.inside = 0.0
        self.wall = None
        self._running = False

    def _handler(self, signum, frame):
        if not self._running:
            return
        k = _timed_kernel()
        self.samples.append(k)
        self.inside += k

    def _edge(self):
        self.samples.extend(_timed_kernel() for _ in range(EDGE_RUNS))

    def __enter__(self):
        self._edge()
        self.inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._t0
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._edge()
        return False

    def speed(self):
        """Mean machine speed over the samples, relative to nominal."""
        return NOMINAL_S * sum(1.0 / k for k in self.samples) / len(self.samples)

    def corrected(self):
        """The block's wall time, less the kernel runs inside it, at nominal speed."""
        return (self.wall - self.inside) * self.speed()
