"""Helpers shared by the three workloads and the command line."""

from __future__ import annotations

import os
import platform
import resource
import string
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from repro.apps import TextEditorApp

ROOT = Path(__file__).resolve().parent.parent

#: Characters typed between line breaks.
TYPED_ALPHABET = string.ascii_lowercase + "     "
#: Every this many keystrokes is a line break, so every seed makes the
#: editors scroll at the same rate.
LINE_KEYS = 24


def keystrokes(rng):
    """An endless seeded keystroke stream for a text editor."""
    count = 0
    while True:
        count += 1
        yield "\n" if count % LINE_KEYS == 0 else rng.choice(TYPED_ALPHABET)


def fill_terminal(terminal) -> None:
    """Print until the terminal is full, so each further line scrolls.

    A run is then in its steady state from the first measured round
    instead of changing character once the window fills.
    """
    for row in range(terminal.rows):
        terminal.append_line(f"[boot {row:03d}] ok")


def jittered(rng, mean: float) -> float:
    """An open-loop gap: ``mean`` seconds give or take 20%.

    Jitter spreads due times across scheduling rounds, so latency
    percentiles do not snap to the round grid.
    """
    return mean * rng.uniform(0.8, 1.2)


class RecordingEditor(TextEditorApp):
    """A text editor that logs every KeyTyped text the AH injects.

    The editor itself keeps only its visible lines, so the log is what
    proves that every typed key reached the AH, in order.
    """

    def __init__(self, window) -> None:
        super().__init__(window)
        self.received: list[str] = []

    def on_key_typed(self, text: str) -> None:
        self.received.append(text)
        super().on_key_typed(text)


# The benchmark computes its statistics and quality scores itself rather
# than with the program's LatencyRecorder or LossyDctCodec.psnr, so that
# a change to the program cannot change how it is measured.


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def psnr_db(reference: np.ndarray, decoded: np.ndarray) -> float:
    """PSNR of the RGB channels; ``inf`` for identical images."""
    ref = reference[:, :, :3].astype(np.int32)
    out = decoded[:, :, :3].astype(np.int32)
    mse = float(np.mean((ref - out) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)


def peak_rss_mib() -> float:
    """This process's peak resident set size (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """The fingerprint recorded with every result."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": sys.platform,
    }


class Workload:
    """Defaults for what the runner and tracer read from a workload.

    A workload also provides ``setup()``, ``measure(units, wall_cap)``,
    ``drain()``, ``report()``, ``close()``, ``units`` and a
    :class:`SpeedProbe` ``probe`` that its set-up and measure loops
    tick.  ``measure``
    runs a fixed number of frames or rounds, so every run of a seed
    does the same work, stops early only at the wall-clock cap, and
    returns how many it ran.
    """

    name = ""
    unit = ""
    #: Frames or rounds measured per second of ``--seconds``: half to two
    #: thirds of the budget on the 2-core machine it was tuned on.
    work_per_second = 1.0
    #: Request id stamped on spans: the frame or round in progress.
    request = 0
    #: Relay nodes whose counters feed the ``relay.*`` ledger entries.
    relays: tuple = ()
    #: Timed set-ups per seed in ``run.SETUP_SEEDS``: more for a short
    #: set-up, so that its median is steady.
    setup_repeats = 1

    def retained_samples(self) -> int:
        """Histogram samples held by the program's metrics registry."""
        return 0


class CpuTimer:
    """Accumulates this thread's CPU time over ``with`` blocks."""

    __slots__ = ("total_ns", "_start")

    def __init__(self) -> None:
        self.total_ns = 0
        self._start = 0

    def __enter__(self) -> "CpuTimer":
        self._start = time.thread_time_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.total_ns += time.thread_time_ns() - self._start

    @property
    def seconds(self) -> float:
        return self.total_ns / 1e9


_REF_RNG = np.random.default_rng(0)
_REF_BLOCKS = _REF_RNG.random((64, 8, 8), dtype=np.float32)
_REF_BASIS = _REF_RNG.random((8, 8), dtype=np.float32)
_REF_BYTES = _REF_RNG.integers(0, 8, 24_000, dtype=np.uint8).tobytes()


def reference_task() -> int:
    """A fixed slice of the kinds of work the workloads do.

    Interpreted loops over small objects, 8x8 block transforms and
    deflate, in roughly the mix the three workloads spend their CPU
    on.  It touches nothing of the program, so its speed is the
    machine's alone.
    """
    table: dict[int, int] = {}
    for i in range(6_000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + (i >> 3)
    coeffs = np.einsum("ij,njk,lk->nil", _REF_BASIS, _REF_BLOCKS, _REF_BASIS)
    packed = zlib.compress(_REF_BYTES, 6)
    return len(table) + int(coeffs[0, 0, 0]) + len(packed)


class SpeedProbe:
    """Times :func:`reference_task` now and then through a measured pass.

    On a shared machine the CPU time of identical work drifts by tens
    of per cent within minutes.  ``speed`` (reference speed over the
    speed seen) rescales the pass's CPU-bound figures to a machine that
    runs the reference task in ``NOMINAL_NS``, so that drift largely
    cancels while a change to the program still shows in full.  The
    probe's own time is kept out of every figure it rescales.
    """

    #: ``reference_task`` CPU time on the machine the benchmark was tuned on.
    NOMINAL_NS = 3_000_000
    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval  # wall seconds between samples
        self.samples: list[int] = []
        self.cpu_ns = 0
        self._next = 0.0

    def tick(self) -> None:
        """Sample the reference task if ``interval`` has passed."""
        if time.perf_counter() >= self._next:
            self.sample()
            self._next = time.perf_counter() + self.interval

    def sample(self, count: int = 1) -> float:
        """Time the reference task ``count`` times; the mean in ns."""
        for _ in range(count):
            start = time.thread_time_ns()
            reference_task()
            spent = time.thread_time_ns() - start
            self.samples.append(spent)
            self.cpu_ns += spent
        return sum(self.samples[-count:]) / count

    @property
    def speed(self) -> float:
        """How much faster than nominal this machine ran the probe."""
        if not self.samples:
            return 1.0
        return self.NOMINAL_NS * len(self.samples) / sum(self.samples)


class Ops:
    """Attempted and failed operations plus the latency of each success.

    An operation that misses its deadline is failed and contributes no
    latency sample.
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []

    def complete(self, latency: float) -> None:
        if latency > self.deadline:
            self.failed += 1
        else:
            self.latencies.append(latency)

    def fail(self, count: int = 1) -> None:
        self.failed += count
