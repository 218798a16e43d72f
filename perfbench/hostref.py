"""A fixed reference kernel that gauges how fast the host runs Python now.

On a shared host the same drive takes anywhere from 1x to 1.8x its best
time within a few minutes, and the slowdown is common to whatever Python
code runs at that moment.  Raw times measured minutes apart therefore
differ by more than most changes to the program do.

:func:`run_interleaved` lets an operation's processes run in turns with
short slices of this kernel: every ``RUN_S`` it stops the operation's
process group, runs one slice in the benchmark's own process (which never
imports ``repro``) and lets the group continue.  Nothing runs alongside
the program -- on a shared 2-vCPU guest a second busy process takes CPU
time from the first -- yet the kernel samples the host every ``RUN_S``
for as long as the operation lasts.  The caller subtracts the stopped
intervals from the operation's wall times and scales its times by
``NOMINAL_SLICE_S`` over the kernel's mean slice time: each timing
metric is the time the operation would have taken on a host where a
slice takes ``NOMINAL_SLICE_S``.  Host drift cancels; a change to the
program moves the metric one for one, since the kernel does not change.

The kernel mixes what the simulator spends its time on: walking a
shuffled ring of slotted objects (cache misses), heap and dict updates,
and small numpy calls.
"""

from __future__ import annotations

import heapq
import os
import random
import signal
import subprocess
import time
from typing import List, Tuple

import numpy as np

#: About the fastest slice time seen on a 2-vCPU Intel Xeon (Sapphire
#: Rapids) KVM guest, Python 3.11.  It only sets the scale of the scaled
#: metrics.
NOMINAL_SLICE_S = 0.02
#: How long the operation runs between two slices.
RUN_S = 0.25

RING_NODES = 100_000
CHASE_STEPS = 20_000
DICT_STEPS = 40_000
NUMPY_CALLS = 1_200


class _Node:
    __slots__ = ("nxt", "val")

    def __init__(self, val: float):
        self.nxt = None
        self.val = val


class Reference:
    """Builds the kernel's data once; :meth:`run` times one slice."""

    def __init__(self, seed: int = 1):
        rng = random.Random(seed)
        self._nodes = [_Node(float(i)) for i in range(RING_NODES)]
        order = list(range(RING_NODES))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            self._nodes[a].nxt = self._nodes[b]
        self._node = self._nodes[0]
        self._taps = np.linspace(0.0, 1.0, 64)
        for _ in range(10):  # warm caches and the allocator
            self.run()

    def run(self) -> Tuple[float, float]:
        """One slice of the kernel; returns its (wall, thread CPU) seconds."""
        w0, c0 = time.perf_counter(), time.thread_time()
        self._chase()
        self._dicts()
        self._numpy()
        return time.perf_counter() - w0, time.thread_time() - c0

    def _chase(self) -> float:
        node = self._node
        heap: list = []
        seen = {}
        acc = 0.0
        for i in range(CHASE_STEPS):
            node = node.nxt
            acc += node.val * 1e-6
            if i & 7 == 0:
                heapq.heappush(heap, (acc, i))
                if len(heap) > 512:
                    heapq.heappop(heap)
            seen[i & 4095] = node
        self._node = node  # the next slice walks on from here
        return acc

    @staticmethod
    def _dicts() -> int:
        table = {}
        x = 0
        for i in range(DICT_STEPS):
            table[i & 1023] = x
            x = (x * 31 + i) & 0xFFFF
        return x

    def _numpy(self) -> float:
        taps = self._taps
        acc = 0.0
        for i in range(NUMPY_CALLS):
            acc += float(np.exp(-taps * (i % 7)).sum())
        return acc


#: (start, end, wall, CPU) of one slice; start and end are time.monotonic().
Slice = Tuple[float, float, float, float]


def run_interleaved(proc: subprocess.Popen, reference: Reference,
                    timeout: float) -> Tuple[str, str, List[Slice]]:
    """Wait for ``proc`` (a process-group leader), running one kernel slice
    while its group is stopped every ``RUN_S``.

    Returns its standard output and error and the slices.  Raises
    ``subprocess.TimeoutExpired`` after ``timeout`` seconds; the group is
    never left stopped.
    """
    slices: List[Slice] = []
    deadline = time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        try:
            out, err = proc.communicate(timeout=max(0.0, min(RUN_S, left)))
            return out, err, slices
        except subprocess.TimeoutExpired:
            if left <= RUN_S:
                raise
        start = time.monotonic()
        try:
            os.killpg(proc.pid, signal.SIGSTOP)
        except ProcessLookupError:
            continue
        try:
            wall, cpu = reference.run()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        slices.append((start, time.monotonic(), wall, cpu))


def host_speed(slices: List[Slice], reference: Reference
               ) -> Tuple[float, float]:
    """(wall, CPU) speed of the host relative to nominal over ``slices``;
    runs one more slice when an operation was too short to get one."""
    if not slices:
        wall, cpu = reference.run()
        return NOMINAL_SLICE_S / wall, NOMINAL_SLICE_S / cpu
    n = len(slices)
    return (NOMINAL_SLICE_S * n / sum(s[2] for s in slices),
            NOMINAL_SLICE_S * n / sum(s[3] for s in slices))


def stopped_s(slices: List[Slice], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` (time.monotonic()) spent stopped."""
    return sum(max(0.0, min(e, end) - max(s, start)) for s, e, _, _ in slices)
