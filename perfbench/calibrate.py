"""Host-speed calibration: a fixed probe timed beside the measured work.

On a shared host the speed a process gets drifts by up to 2x between
runs minutes apart (neighbours, frequency, cache and memory contention),
far more than any change the benchmark should detect.  A slowdown of the
host stretches the program's requests and a fixed probe alike, so the
benchmark times the probe, interleaved with the measured requests but
outside their timed intervals, and reports every time at the
*reference speed*: the raw time scaled by ``REFERENCE_PROBE_S / probe``,
where ``probe`` is the median time of the probes nearest to the request
(set-up: of the probes right after it).  On a host whose probe median
is ``REFERENCE_PROBE_S`` the reported and raw numbers agree; the raw
numbers are printed beside them.

The probe uses no ``repro`` code, so no change to the program can move
it.  It pays the three kinds of cost a request pays: an interpreted
Python loop over 6,000 floats; NumPy filling, adding to and summing a
preallocated 512 KiB array; and filling 1 MiB of fresh pages mapped
straight from the kernel (page faults and zeroing, as when a request
builds its store).  Its own data fits the core's L2 cache and an untimed
warm-up probe precedes the timed ones, and the fresh pages bypass the
allocator the program uses, so what the program did just before does
not move the probe either.  On a 2-vCPU KVM guest, over windows of 24
(``full_rank``) and 8 (``warm_ex41``) requests in runs of 60 and 45
seconds, request time varied by 6% and 13% as the host drifted, the
ratio of request time to probe time by 3% and 6% (measured with a probe
four times this size).  The probe is kept short (~1.5 ms) so that it can
run often: the probes nearest a request then span a fraction of a second
and follow short slow spells of the host too.
"""

from __future__ import annotations

import bisect
import math
import mmap
import statistics
import time
from typing import List

#: Median probe time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest.
REFERENCE_PROBE_S = 0.0015
#: Fresh pages the probe maps, fills and unmaps.
FRESH_BYTES = 1 << 20
#: Probe time allowed per second of measured work.
PROBE_SHARE = 0.1
#: Probes run after set-up, before the timed window.
SETUP_PROBES = 40
#: Probes around a request that give its local host speed.
LOCAL_PROBES = 9

#: The probe's preallocated data, so that its time does not depend on the
#: state of the allocator the program shares with it.
_BUFFERS: list = []


def probe() -> float:
    """Run the fixed probe once; return its wall-clock seconds."""
    if not _BUFFERS:
        import numpy  # lazily: importing it belongs to the measured set-up

        _BUFFERS.extend([numpy, numpy.empty(1 << 16), [float(i) for i in range(6000)]])
    numpy, block, values = _BUFFERS
    start = time.perf_counter()
    total = 0.0
    for index, value in enumerate(values):
        total += value * (index & 7)
    for _ in range(3):
        block.fill(1.5)
        numpy.add(block, 0.25, out=block)
        total += float(block.sum())
    region = mmap.mmap(-1, FRESH_BYTES)
    fresh = numpy.frombuffer(region, dtype=numpy.float64)
    fresh.fill(total)
    del fresh
    region.close()
    return time.perf_counter() - start


class Probes:
    """Probe times of one process, taken in a budget of the measured time."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.stamps: List[float] = []  # perf_counter() at each probe's end
        self.total_s = 0.0

    def run(self, count: int = 1) -> None:
        """Probe ``count`` times after one untimed warm-up probe.

        The warm-up brings the probe's data back into the caches the
        measured work just used, so the recorded probes do not depend on
        how much memory the program touches.
        """
        self.total_s += probe()
        for _ in range(count):
            self.times.append(probe())
            self.stamps.append(time.perf_counter())
            self.total_s += self.times[-1]

    def top_up(self, measured_s: float) -> None:
        """Probe until probing has taken ``PROBE_SHARE`` of ``measured_s``."""
        if not self.times:
            self.run()
        while self.total_s < PROBE_SHARE * measured_s:
            missing = PROBE_SHARE * measured_s - self.total_s
            self.run(math.ceil(missing / self.times[-1]))

    def median_s(self) -> float:
        return statistics.median(self.times)

    def speed(self) -> float:
        """Reference-speed factor of the whole process: multiply raw times by it."""
        return REFERENCE_PROBE_S / self.median_s()

    def speed_at(self, when: float) -> float:
        """Reference-speed factor at ``when`` (a ``perf_counter()`` reading).

        The median of the ``LOCAL_PROBES`` probes nearest in time, so that
        a slow spell of the host a few seconds long is scaled away from
        the requests it slowed, not only from the run's median.
        """
        middle = bisect.bisect_left(self.stamps, when)
        low = max(0, min(middle - LOCAL_PROBES // 2, len(self.times) - LOCAL_PROBES))
        return REFERENCE_PROBE_S / statistics.median(self.times[low:low + LOCAL_PROBES])
