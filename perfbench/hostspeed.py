"""How fast the host runs Python right now, from a fixed pure-Python kernel.

The host's speed swings by tens of percent within a minute (other tenants
share its cores), and every timing of the program swings with it.  The
timed loop runs ``kernel()`` around each sample, and ``run.py`` reports
each timing ``t`` as ``t * (REFERENCE_S / k) ** SENSITIVITY``, where ``k``
is the kernel's mean time around it: a slow stretch of the host slows
program and kernel together, and the scaling takes much of it back out.
The kernel touches nothing in ``repro``, so it is the same on both sides
of a comparison of two commits: the scaling cannot favour either, and
``SENSITIVITY`` only sets how much of the host's noise it removes (as in a
regression adjustment on a covariate).

The kernel spreads its time over much Python code, as the program does,
because a small hot loop slows far more than the program when a
neighbour competes for its core: regular-expression compilation (the
pure-Python ``re`` parser and compiler), ``Fraction`` arithmetic,
``difflib`` matching, and an event loop of slotted message objects on a
heap with per-node dicts and SHA-256 digests, like ``repro.sim``.

Importing this module does no work.
"""

from __future__ import annotations

import difflib
import hashlib
import heapq
import re
import time
from fractions import Fraction
from typing import List, Tuple

REFERENCE_S = 0.1
"""The kernel's time, in seconds, at the reference host speed: a round figure
near its mean on the host the benchmark was defined on (0.107 to 0.111 s on
a 2-core Xeon VM).  Reported times are scaled to this speed."""

SENSITIVITY = 0.75
"""The exponent of the scaling.  In most ten-run sets per workload on the
defining host the program followed the kernel closely: in the noisiest
one, the spread of matrix medians (quartile distance over median) was 0.36
as measured, 0.14 at exponent 0.5, 0.05 at 0.75 and 0.06 at 1.  In one calm
set it hardly followed (fuzz 0.03 as measured, 0.15 at 0.75).  Of 0.5,
0.75 and 1, 0.75 gave the least spread summed over all ten sets."""

ROUNDS = 40

EXPECTED = 1917556485
"""The kernel's checksum: a kernel that returns anything else did other work."""

_PATTERNS = [r"(?P<g%d>[a-z]{%d,%d})\s+(\d+|x%d)" % (i, i % 5 + 1, i % 5 + 3, i) for i in range(40)]
_SUBJECT = "abc 12 defgh x3 ijk 7"
_LINES_A = ["node%d sends echo %d to %d" % (i, i * 7 % 13, i % 5) for i in range(40)]
_LINES_B = ["node%d sends vote %d to %d" % (i, i * 5 % 13, i % 7) for i in range(40)]


class _Message:
    __slots__ = ("src", "dst", "kind", "body")

    def __init__(self, src: int, dst: int, kind: str, body: tuple):
        self.src, self.dst, self.kind, self.body = src, dst, kind, body


def _simulate(seed: int, steps: int) -> int:
    boxes = [dict() for _ in range(16)]
    queue = [(0, i, _Message(i, (i * 7) % 16, "init", (seed, i))) for i in range(16)]
    heapq.heapify(queue)
    sequence, state, acc = 16, seed, 0
    for _ in range(steps):
        time_, _, message = heapq.heappop(queue)
        box = boxes[message.dst]
        key = (message.kind, message.body[-1] % 97)
        box[key] = box.get(key, 0) + 1
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        if state % 4 == 0:
            acc ^= hashlib.sha256(repr((message.src, message.dst, key)).encode()).digest()[0]
        for kind in ("echo", "vote"):
            sequence += 1
            body = message.body[-2:] + (sequence,)
            dst = (state >> len(kind)) % 16
            heapq.heappush(queue, (time_ + 1 + (state >> 20) % 9, sequence, _Message(message.dst, dst, kind, body)))
        if len(queue) > 4000:
            queue = heapq.nsmallest(2000, queue)
        acc = (acc * 31 + box[key]) & 0xFFFFFFFF
    return acc


def _work(rounds: int) -> int:
    acc = 0
    for r in range(rounds):
        re.purge()
        for pattern in _PATTERNS[r % 4 :: 4]:
            match = re.compile(pattern).search(_SUBJECT)
            acc += match.end() if match else 1
        total = Fraction(0)
        for i in range(1, 30):
            total += Fraction((r + i) % 7 + 1, i)
        acc = (acc + total.numerator % 1000) & 0xFFFFFFFF
        matcher = difflib.SequenceMatcher(None, _LINES_A[r % 40], _LINES_B[(r * 3) % 40])
        acc += int(1000 * matcher.ratio())
        acc = (acc * 31 + _simulate(r, 300)) & 0xFFFFFFFF
    return acc


def kernel() -> Tuple[float, float]:
    """Run the kernel once; its wall and CPU time in seconds."""
    start, start_cpu = time.perf_counter(), time.thread_time()
    checksum = _work(ROUNDS)
    elapsed, cpu = time.perf_counter() - start, time.thread_time() - start_cpu
    if checksum != EXPECTED:
        raise RuntimeError(f"host-speed kernel checksum {checksum} != {EXPECTED}")
    return elapsed, cpu


def kernels_for(seconds: float) -> List[Tuple[float, float]]:
    """Run the kernel until it has taken ``seconds`` of wall time, at least once."""
    runs = [kernel()]
    while sum(wall for wall, _ in runs) < seconds:
        runs.append(kernel())
    return runs
