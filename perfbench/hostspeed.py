"""Host-speed-corrected timing.

On a shared host the speed of one core drifts by 20-40% within seconds
and between minutes, as other tenants load the machine, so the plain
wall time of one serve varies by about as much between runs of the
same code.  :class:`ScaledTimer` measures that drift while the timed
block runs and divides it out.

While the block runs, ``SIGALRM`` fires every ``PERIOD_S`` of wall time
and its handler runs a fixed probe: pure-Python dictionary and integer
work plus a small NumPy matmul, the same kind of work as the VM's
interpreter loop, and independent of the program under test.  The
probe's own time is subtracted from the block's wall time, and the
rest is rescaled by ``REF_PROBE_S / mean probe time``: the time the
block would have taken on a host where one probe takes ``REF_PROBE_S``.
A program change that does less work lowers the scaled time as much as
the wall time; a host that is slower for the moment lengthens both the
block and the probes running inside it, and cancels.

Python runs signal handlers in the main thread between bytecodes, so
the probe never runs inside the program's C calls and touches no state
of the program.  It allocates no object the garbage collector tracks.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Wall-clock seconds between probes.
PERIOD_S = 0.05
#: Probe time that defines the reference host speed (one probe takes
#: about this long on an idle 2-vCPU KVM guest).
REF_PROBE_S = 0.002
_PROBE_REPS = 20

_KEYS = [((i * 2654435761) & 0xFFFFF, i % 13) for i in range(300)]
_MAT = np.arange(64, dtype=np.float64).reshape(8, 8)


def _probe(table: dict) -> int:
    acc = 0
    for _ in range(_PROBE_REPS):
        for a, b in _KEYS:
            key = ((a & 1023) << 3) | (b & 7)
            acc += table.get(key, 0) + a * b
            table[key] = acc & 0xFFFF
        acc += int((_MAT @ _MAT).sum()) & 0xFF
    return acc


class ScaledTimer:
    """``with ScaledTimer() as t: ...`` -- then ``t.wall_s`` is the plain
    wall time of the block and ``t.scaled_s`` its host-speed-corrected
    time (see the module docstring)."""

    def __init__(self, probe: bool = True):
        #: False: time the block plainly (``scaled_s`` is ``wall_s``).
        self.probe = probe
        self.wall_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._table: dict = {}
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a probe outlasted the period; skip, don't nest
            return
        self._busy = True
        t0 = time.perf_counter()
        _probe(self._table)
        self.probe_s += time.perf_counter() - t0
        self.probes += 1
        self._busy = False

    def __enter__(self) -> "ScaledTimer":
        if self.probe:
            _probe(self._table)  # fill the probe's table, warm its code
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = time.perf_counter()
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._t0
        if self.probe:
            signal.signal(signal.SIGALRM, self._previous)

    @property
    def scaled_s(self) -> float:
        """Wall time less the probes, at the reference host speed (the
        plain wall time if the block was too short for a probe)."""
        if not self.probes:
            return self.wall_s
        net = self.wall_s - self.probe_s
        return net * REF_PROBE_S / (self.probe_s / self.probes)
