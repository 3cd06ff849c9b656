"""A speed gauge for a shared machine.

On a host shared with other tenants the same work can take half as long
again for minutes at a time, and no amount of repeating within one run
averages that out.  The gauge is a fixed piece of interpreter and
small-array numpy work, the two kinds of work scbn's hot paths do, that
shares no code with scbn.  Timing it between blocks of operations tells how
fast the machine ran during each block, and dividing the block's wall
times by that speed gives times on a steady machine.  The gauge's own
time on that steady machine is ``NOMINAL_S``, about its quiet-hour time
on a 2-core x86 host under Python 3.11 and numpy 2.4, so that steady
times read close to quiet-hour wall times there.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.002


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(5)
        self._table = rng.random((300, 8))
        self._keys = rng.random(300)
        self._order = np.argsort(self._keys)
        self.readings: list[float] = []
        self._last = self.read()

    def read(self) -> float:
        """Time one pass of the fixed work, in seconds."""
        t0 = perf_counter()
        s = 0
        for i in range(12000):
            s += i * i % 7
        for j in range(32):
            order = np.lexsort((self._keys, -self._table[:, j & 7]))
            s += self._table[order[:50], j & 7].sum()
            s += np.maximum.accumulate(self._keys[order])[-1]
        # a budgeted scan down a preference order, element by element
        taken = np.zeros(300, dtype=bool)
        for _ in range(6):
            taken[:] = False
            spent = 0.0
            for m in self._order:
                if not taken[m] and spent + self._keys[m] <= 40.0:
                    taken[m] = True
                    spent += float(self._keys[m])
        elapsed = perf_counter() - t0
        self.readings.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor from wall time since the previous call to steady time:
        the nominal gauge time over the mean of the readings either side."""
        now = self.read()
        factor = 2.0 * NOMINAL_S / (self._last + now)
        self._last = now
        return factor
