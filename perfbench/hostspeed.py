"""Host-speed calibration: host seconds scaled to a reference speed.

The benchmark runs on shared hosts whose speed drifts by a third or more
within seconds and minutes while the program's work stays the same, and
process CPU time drifts with it.  So the host time of a simulation run
is taken together with a calibration loop of fixed work
(:func:`calibration_slice`), interleaved with the simulated events, and
is scaled by the ratio of the slice's reference time to its time at
that moment::

    reference seconds = host seconds * REFERENCE_SLICE_S / mean slice time

A host that runs everything at half speed doubles both host seconds and
slice time, so the reference seconds stay put; a change to the program
moves only the host seconds.  Slice time is never counted as the
program's.

Start-up (interpreter start and imports) is other work: it does not
track the loop, so set-up time is scaled the same way by
:func:`startup_slice`, a fresh interpreter that imports a fixed set of
standard-library modules, timed just before and after each set-up probe.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time

#: the slice's host time at the speed reference seconds are expressed in
#: (the median on a 2-core shared x86-64 container)
REFERENCE_SLICE_S = 0.004

#: minimum host seconds of measured work between two slices
SLICE_EVERY_S = 0.05

#: what :func:`startup_slice` imports
STARTUP_MODULES = (
    "asyncio, email.mime.multipart, http.server, xml.etree.ElementTree, json, "
    "decimal, dataclasses, typing, argparse, logging, unittest, difflib, tarfile, "
    "zipfile, csv, statistics, fractions, inspect, pydoc, concurrent.futures, "
    "urllib.request"
)

#: :func:`startup_slice`'s host time at the reference speed (the median
#: on the machine of :data:`REFERENCE_SLICE_S`)
REFERENCE_STARTUP_S = 0.16


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key * 3

    def score(self, bias: int) -> int:
        return self.weight + bias


def calibration_slice() -> int:
    """Fixed interpreter work like the simulator's own: object creation,
    method calls, dict stores and a small heap."""
    table = {}
    heap = []
    acc = 0
    for i in range(4000):
        item = _Item(i)
        acc += item.score(i & 7)
        table[i & 255] = item
        heapq.heappush(heap, (i * 7919) % 1009)
        if len(heap) > 64:
            acc += heapq.heappop(heap)
    return acc


def startup_slice(cwd) -> float:
    """Host seconds for a fresh interpreter to import
    :data:`STARTUP_MODULES` and exit."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {STARTUP_MODULES}"],
                   cwd=cwd, check=True, timeout=120)
    return time.perf_counter() - started


class Meter:
    """Slices interleaved with measured work; see the module docstring."""

    def __init__(self) -> None:
        self.slice_s = 0.0
        self.slices = 0
        self._last = time.perf_counter()

    def slice(self) -> None:
        """Run one slice now."""
        started = time.perf_counter()
        calibration_slice()
        ended = time.perf_counter()
        self.slice_s += ended - started
        self.slices += 1
        self._last = ended

    def tick(self) -> None:
        """Run a slice if :data:`SLICE_EVERY_S` of work has passed."""
        if time.perf_counter() - self._last >= SLICE_EVERY_S:
            self.slice()

    def scale(self) -> float:
        """Reference seconds per host second, over the slices so far."""
        return REFERENCE_SLICE_S * self.slices / self.slice_s
