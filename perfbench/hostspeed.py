"""Host-speed sampling, to report times at a fixed reference speed.

The shared hosts this benchmark runs on change speed by ±20% over minutes
without taking the CPU away (no steal time, CPU time tracks wall time), so
raw seconds of the same code drift between runs. A `Sampler` runs a small
fixed CPU kernel from a SIGALRM handler every `INTERVAL_S` seconds, in the
measured process itself, so the kernel sees the same host at the same moments
as the program. `Sampler.normalize` then rescales an interval's duration,
minus the time the kernel itself took, by ``REFERENCE_S / median(kernel
durations inside the interval)``: the seconds the interval would have taken
on a host where the kernel takes exactly `REFERENCE_S`.

Python runs signal handlers in the main thread between bytecodes, so a
sample is delayed, not lost, while a long C call runs, and the program's
worker threads wait for the GIL while the kernel runs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 0.0027  # the kernel's median duration on the reference host
WINDOW = 40  # samples per piece of an interval, about 2 s
MIN_SAMPLES = 20  # fewer inside an interval: use the whole process's samples

# the kernel's inputs: a 30,000-key dict (about 3 MB) read in a scattered
# order, a text to split and hash, and three 100,000-float arrays
_TABLE = {f"k{i}": i for i in range(30_000)}
_KEYS = [f"k{i * 7919 % 30_000}" for i in range(1500)]
_TEXT = " ".join(f"Tok{i % 997} word{i % 31}" for i in range(800))
_A = np.linspace(0.0, 1.0, 100_000)
_B = _A[::-1].copy()
_C = np.empty_like(_A)


def _kernel() -> float:
    """About 2 ms of work like the program's, each part sensitive to a
    different kind of contention: scattered dict reads (memory latency),
    splitting and hashing text (the interpreter), and array passes (memory
    bandwidth). No single kind tracked the program's own slowdowns."""
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    counts: dict[int, float] = {}
    for token in _TEXT.lower().split():
        bucket = hash(token) & 4095
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    for _ in range(2):
        np.multiply(_A, _B, out=_C)
        np.add(_C, _A, out=_C)
    return total + len(counts) + float(_C[0])


class Sampler:
    """Samples the kernel from SIGALRM. `samples` holds (start, wall
    seconds, thread CPU seconds) per run of the kernel, on the time.monotonic
    clock. The kernel's speed is read from its thread CPU time, so time the
    main thread spends waiting for the GIL held by the program's worker
    threads does not count as a slow host."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        start, cpu_start = time.monotonic(), time.thread_time()
        _kernel()
        cpu = time.thread_time() - cpu_start
        self.samples.append((start, time.monotonic() - start, cpu))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, start: float, end: float) -> dict:
        """The interval [start, end) at reference speed. It is cut at every
        `WINDOW`-th sample; each piece, minus the kernel's own time in it, is
        rescaled by REFERENCE_S over its median kernel time, so drift within a
        long interval is followed. ``s`` is the sum, ``raw_s`` the same
        duration before rescaling, and ``speed`` their ratio (above 1: a
        faster host than the reference)."""
        inside = [x for x in self.samples if start <= x[0] < end]
        if not self.samples:  # a process too short to be sampled: as measured
            return {"s": end - start, "raw_s": end - start, "speed": 1.0, "samples": 0}
        if len(inside) < MIN_SAMPLES:
            pieces = [(start, end, inside, [cpu for _, _, cpu in self.samples])]
        else:
            cuts = list(range(0, max(1, len(inside) - WINDOW // 2), WINDOW))
            edges = [start] + [inside[i][0] for i in cuts[1:]] + [end]
            groups = [inside[i:j] for i, j in zip(cuts, cuts[1:] + [len(inside)])]
            pieces = [(a, b, g, [cpu for _, _, cpu in g]) for a, b, g in zip(edges, edges[1:], groups)]
        raw = scaled = 0.0
        for a, b, group, basis in pieces:
            piece = b - a - sum(wall for _, wall, _ in group)
            raw += piece
            scaled += piece * REFERENCE_S / statistics.median(basis)
        return {"s": scaled, "raw_s": raw, "speed": scaled / raw if raw else 1.0,
                "samples": len(inside)}
