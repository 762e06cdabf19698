"""Host speed, sampled inside the timed regions.

On a shared 2-core x86 VM the same op takes up to twice as long for seconds
or minutes at a time, through other tenants' load on the same cores and
caches.  CPU time grows as much as wall time, so a whole run can read slow:
over ten runs the spread of plain wall-time medians (quartile distance over
median) was 0.18-0.37 on pipeline and study, while no bound may exceed 0.25.

So while a timed region runs, a ``SIGALRM`` timer interrupts it every
``INTERVAL_S`` and times ``probe``: fixed work that does not touch tvarch and
mixes the kinds of work the ops do.  The region's time less the probes' own
time, scaled by ``REF_S`` over the probes' mean time, is the region's time at
the host speed at which one probe takes ``REF_S``.  The speed must be sampled
during the region: the host's speed changes within an 8 s op, and probes timed
only before and after each op tracked it poorly.  Python runs the handler
between bytecodes, so a long call into numpy delays a sample but is not cut.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
REF_S = 0.0013  # one probe's time on the host when it runs at the reference speed

_rng = np.random.default_rng(0)
_NOISE = _rng.standard_normal(400)
_COEF = np.array([[1.0], [0.3], [0.2]]) * np.ones(400)
_SERIES = _rng.standard_normal(500)
_WINDOW = np.hanning(41)
_GRAM = _rng.standard_normal((200, 3, 3))
_GRAM = _GRAM @ _GRAM.transpose(0, 2, 1)


def probe() -> None:
    """About a millisecond of work shaped like the ops: a numpy-scalar ARCH(2)
    recursion (as in simulate_path), small convolutions (as in local_sums) and
    batched 3x3 eigenvalues (as in the conditioning gate)."""
    x = np.zeros(400)
    for t in range(2, 400):
        sig_sq = _COEF[0, t]
        for j in (1, 2):
            sig_sq += _COEF[j, t] * x[t - j] ** 2
        x[t] = _NOISE[t] * np.sqrt(sig_sq)
    for _ in range(12):
        np.convolve(_SERIES, _WINDOW)
    np.linalg.eigvalsh(_GRAM)


class SpeedSampler:
    """Times ``probe`` every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self._probe_s: list[float] = []
        probe()  # any first-call cost is paid here, outside the timed regions
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        probe()
        self._probe_s.append(perf_counter() - t0)

    def start(self) -> None:
        self._probe_s = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Disarm; return the seconds the probes took since ``start`` and the
        factor that turns the region's remaining time into reference seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = sum(self._probe_s)
        if not self._probe_s:  # a region shorter than INTERVAL_S: sample right after it
            self._sample()
        return inside, REF_S / statistics.fmean(self._probe_s)
