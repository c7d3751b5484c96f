"""Reference kernel and the sampler that states times in reference seconds.

On a shared 2-vCPU virtual machine the CPU's speed drifts by up to 1.7x
within seconds, and CPU time drifts with wall time, so neither is a
steady measure of work on its own. A fixed kernel therefore runs while
every timed call runs: a SIGALRM timer interrupts the call every
INTERVAL_S seconds and times one kernel pass on the main thread's CPU
clock. A call's normalised time is

    (wall - n_inside * k_median) * REFERENCE_S * mean(1 / k_i)

over the kernel times k_i measured during the call and just before and
after it (n_inside of them inside): the call's duration in reference
seconds, with the kernel's own time taken out. On 150 s of repeated
corpus rounds on that machine this cut the per-round quartile spread
from 25 % (raw wall) to 2.5 %; the median or a low percentile of the k_i
did 4-15 times worse.

This holds for one busy thread only. Beside --jobs 2 worker threads a
kernel pass also measures GIL hand-offs and contention for the CPU's
other hyperthread, and no estimator tried (mean, harmonic mean, median,
low percentiles, samples before and after the call only) came below the
raw wall time's 11 % per-round spread; so --jobs 2 is reported raw and
is not a metric (see README.md).

The kernel imports nothing from foldkit and mixes the kinds of work
foldkit's profile shows today in about the same shares: interpreter-bound
numpy calls on 3-vectors (np.cross, np.linalg.norm, np.arctan2), plain
Python fixed-width text parsing with dict and tuple churn, and small
array reductions.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Kernel CPU time, in seconds, that defines one reference second: the
# median kernel time on the machine the README figures were taken on.
# Changing it rescales every normalised metric.
REFERENCE_S = 0.0013
INTERVAL_S = 0.02

_LINES = tuple(
    f"ATOM  {i:5d}  CA  ALA A{i % 997:4d}    "
    f"{(i * 7.123) % 99.0:8.3f}{(i * 3.331) % 99.0:8.3f}{(i * 1.777) % 99.0:8.3f}"
    f"  1.00{(i * 0.37) % 99.0:6.2f}           C"
    for i in range(60))
_POINTS = np.random.default_rng(0).standard_normal((64, 3)) * 10.0
_BLOCK = _POINTS[:6].copy()


def _small_vectors(rounds: int) -> float:
    acc = 0.0
    pts = _POINTS
    for i in range(rounds):
        p1, p2, p3, p4 = pts[i], pts[i + 1], pts[i + 2], pts[i + 3]
        b1, b2, b3 = p2 - p1, p3 - p2, p4 - p3
        n1 = np.cross(b1, b2)
        n2 = np.cross(b2, b3)
        b2n = b2 / np.linalg.norm(b2)
        acc += float(np.arctan2(np.dot(np.cross(n1, n2), b2n), np.dot(n1, n2)))
    return acc


def _parse_text(lines) -> float:
    residues: dict = {}
    acc = 0.0
    for line in lines:
        key = (line[21], int(line[22:26]))
        xyz = (float(line[30:38]), float(line[38:46]), float(line[46:54]))
        residues.setdefault(key, []).append((line[12:16].strip(), xyz))
        acc += xyz[0] * xyz[1] - xyz[2] + float(line[60:66])
    return acc + sum(len(v) for v in residues.values())


def _reductions(rounds: int) -> float:
    # Arrays stay below numpy's 500-element threshold for releasing the
    # GIL, so the kernel never runs beside a worker thread's Python code.
    acc = 0.0
    for i in range(rounds):
        d2 = ((_BLOCK[:, None, :] - _POINTS[None, i:i + 40, :]) ** 2).sum(-1)
        acc += float((d2 <= 12.25).sum())
    return acc


def run_kernel() -> tuple[float, float]:
    """One kernel pass: (CPU seconds of this thread, wall seconds)."""
    wall = time.perf_counter()
    cpu = time.thread_time()
    _small_vectors(8)
    _parse_text(_LINES)
    _reductions(16)
    return time.thread_time() - cpu, time.perf_counter() - wall


def normalise(seconds: float, kernel_times) -> float:
    """seconds * REFERENCE_S * mean(1 / k) over the kernel times."""
    return seconds * REFERENCE_S * sum(1.0 / k for k in kernel_times) / len(
        kernel_times)


class Sampler:
    """Samples the kernel during a timed call; one instance per call.

    Signal handlers run on the main thread, so this works only there.
    `on_sample(start, end)` lets a tracer account for the kernel's time.
    With sample_inside=False the kernel runs only before and after the
    call, whose raw_s is then plain wall time.
    """

    def __init__(self, on_sample=None, sample_inside: bool = True):
        self.kernel: list[float] = []
        self.inside = 0
        self.wall = 0.0
        self._on_sample = on_sample
        self._interval = INTERVAL_S if sample_inside else 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        cpu, wall = run_kernel()
        self.kernel.append(cpu)
        self.inside += 1
        if self._on_sample is not None:
            self._on_sample(start, start + wall)

    def __enter__(self):
        self.kernel.append(run_kernel()[0])
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.kernel.append(run_kernel()[0])
        return False

    @property
    def kernel_s(self) -> float:
        """Median kernel time over the call: the machine's speed."""
        return sorted(self.kernel)[len(self.kernel) // 2]

    @property
    def raw_s(self) -> float:
        """Wall seconds of the call, less the kernel passes inside it."""
        return self.wall - self.inside * self.kernel_s

    @property
    def normalised_s(self) -> float:
        """The call's duration in reference seconds."""
        return normalise(self.raw_s, self.kernel)

