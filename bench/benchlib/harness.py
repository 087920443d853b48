"""Measurement plumbing shared by every workload.

Nothing here knows about the compiler: it times callables in blocks,
summarises samples, calibrates the machine, tracks operations attempted
and failed, and owns the one scratch directory a run may write to.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Timed sections are cut into this many blocks with a ``gc.collect()``
#: between them; a workload's latency is the median of the block medians,
#: so one slow stretch of the machine moves one block, not the result.
BLOCKS = 3

#: A run is flagged ``noisy`` when the calibration kernel's own quartile
#: distance over the timed section exceeds this share of its median.
CALIBRATION_TOLERANCE = 0.10

#: Reported times are wall times divided by the machine's speed factor
#: ``calibrate() / CALIBRATION_NOMINAL_MS``: on a machine where the
#: kernel takes this long they are plain milliseconds.  This box swings
#: between two speeds ~40 % apart for tens of seconds at a time
#: (neighbours, not us); a calibration pass next to every operation
#: follows those swings and divides them out.
CALIBRATION_NOMINAL_MS = 10.0


# ---------------------------------------------------------------------- #
# sample statistics
# ---------------------------------------------------------------------- #
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        return (math.nan, math.nan, math.nan)
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); nan for no samples."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, summed in sorted order so it repeats exactly."""
    if not values:
        return math.nan
    return math.exp(math.fsum(sorted(math.log(v) for v in values)) / len(values))


# ---------------------------------------------------------------------- #
# machine
# ---------------------------------------------------------------------- #
class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


_VECTOR = numpy.arange(64, dtype=numpy.float64)


#: One calibration is the median of this many passes of the kernel: a
#: single pass (≈ 7 ms) is itself disturbed often enough to add noise
#: to the times it normalises.
CALIBRATION_PASSES = 3


def calibrate() -> float:
    """Milliseconds one pass of a fixed kernel takes right now.

    The kernel mixes what the program's hot paths are made of — integer
    arithmetic, small objects and tuple-keyed dicts, sorting, many small
    numpy calls — so that when a neighbour slows this machine down, the
    kernel slows down by about the same factor as the code under test.
    """
    return statistics.median(_kernel_pass() for _ in range(CALIBRATION_PASSES))


def _kernel_pass() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    table: Dict[Tuple[int, int], int] = {}
    for i in range(4_000):
        cell = _Cell(i, (i * 7) % 13)
        key = (cell.a % 97, cell.b)
        table[key] = table.get(key, 0) + cell.a
    ranked = sorted(table.items(), key=lambda item: item[1])
    total += len([str(key) for key, _ in ranked[:200]])
    for i in range(800):
        total += int(numpy.minimum(_VECTOR * 1.5 + i, 100.0).sum())
    return (time.perf_counter() - start) * 1000.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def machine_block() -> Dict[str, object]:
    """Recorded beside every number: numbers from other machines do not compare."""
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------- #
# one run's bookkeeping
# ---------------------------------------------------------------------- #
@dataclass
class Timings:
    """Per-block times (seconds) of a workload's operation."""

    #: Machine-normalised operation times, one list per block.
    blocks: List[List[float]] = field(default_factory=list)
    #: The same operations as plain wall time.
    raw_blocks: List[List[float]] = field(default_factory=list)
    #: Time base of the throughput: per block, the sum of the normalised
    #: operation times (sequential workloads) or the block's wall
    #: (several closed-loop clients).
    block_walls: List[float] = field(default_factory=list)
    #: Work items (models, requests, points) completed per block.
    block_items: List[int] = field(default_factory=list)
    #: Every calibration pass taken during the section (ms).
    calibrations: List[float] = field(default_factory=list)

    @property
    def samples(self) -> List[float]:
        return [wall for block in self.blocks for wall in block]

    @property
    def raw_samples(self) -> List[float]:
        return [wall for block in self.raw_blocks for wall in block]

    @property
    def p50_ms(self) -> float:
        """Median of the block medians, in milliseconds."""
        medians = [statistics.median(block) for block in self.blocks if block]
        return statistics.median(medians) * 1000.0 if medians else math.nan

    @property
    def throughput_per_s(self) -> float:
        """Items completed per second of timed wall (mean-based: stalls count)."""
        wall = sum(self.block_walls)
        return sum(self.block_items) / wall if wall > 0 else math.nan


class Stopwatch:
    """Times one operation, dividing out the machine's speed as it goes.

    The operation may call :meth:`lap` at its step boundaries; each
    stretch between two calibration passes is scaled by the mean of the
    two, so a speed change in the middle of a long operation is followed.
    Calibration passes are not part of the operation's time.
    """

    def __init__(self, opening_calibration: float) -> None:
        self.calibrations = [opening_calibration]
        self.raw = 0.0
        self.normalised = 0.0
        self._since = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._since
        self.calibrations.append(calibrate())
        self.add(wall, (self.calibrations[-2] + self.calibrations[-1]) / 2.0)
        self._since = time.perf_counter()

    def add(self, wall: float, calibration: float) -> None:
        """Count ``wall`` seconds that ran while the kernel took ``calibration`` ms."""
        self.raw += wall
        self.normalised += wall / (calibration / CALIBRATION_NOMINAL_MS)


class Run:
    """State of one benchmark invocation: inputs, scratch space, verdicts."""

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        started: float,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.started = started
        #: The only randomness a workload may use: it shapes the generated
        #: inputs (model order, job draw, trace) and nothing else.
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures: List[str] = []
        #: Times set-up from process start; workloads call ``lap`` between
        #: its stages so a long set-up is normalised piecewise.
        imports = time.perf_counter() - started
        for _ in range(5):  # a fresh process's first passes read up to 3x high
            _kernel_pass()
        self.setup_watch = Stopwatch(calibrate())
        # Nothing could be sampled before the imports were done.
        self.setup_watch.add(imports, self.setup_watch.calibrations[0])
        self._workdir: Optional[str] = None
        self._children: List[subprocess.Popen] = []

    def lap(self) -> None:
        """Sample the machine's speed at a stage boundary of set-up."""
        self.setup_watch.lap()

    # operations ------------------------------------------------------- #
    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def check(self, what: str, ok: bool) -> bool:
        """An output check is an operation: a failed one fails the run."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")
        return bool(ok)

    # scratch ---------------------------------------------------------- #
    @property
    def workdir(self) -> str:
        """The run's scratch directory (under ``bench/out/``), made on demand."""
        if self._workdir is None:
            os.makedirs(OUT_DIR, exist_ok=True)
            self._workdir = tempfile.mkdtemp(prefix=f"run-{self.workload}-", dir=OUT_DIR)
        return self._workdir

    def subdir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path

    # child processes --------------------------------------------------- #
    def adopt(self, proc: subprocess.Popen) -> None:
        """Make ``proc`` this run's to stop: every exit path reaps it."""
        self._children.append(proc)

    def reap(self, grace: float = 15.0) -> None:
        """SIGTERM every adopted child, wait, SIGKILL the deaf (idempotent)."""
        while self._children:
            proc = self._children.pop()
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def cleanup(self) -> None:
        """Stop children, then remove the scratch directory (idempotent)."""
        self.reap()
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None


def run_blocks(
    op: Callable[[Callable[[], None]], int],
    seconds: float,
    after_op: Optional[Callable[[], None]] = None,
    blocks: int = BLOCKS,
) -> Timings:
    """Call ``op`` back to back for about ``seconds``, in ``blocks`` blocks.

    ``op(lap)`` returns the number of work items it completed and may
    call ``lap()`` between its steps (see :class:`Stopwatch`).
    ``after_op`` (output bookkeeping) runs untimed after each call.
    Every block makes at least one call, so a run shorter than three
    operations still reports three samples.
    """
    timings = Timings()
    share = seconds / blocks
    for _ in range(blocks):
        gc.collect()
        calibration = calibrate()
        timings.calibrations.append(calibration)
        normalised: List[float] = []
        raw: List[float] = []
        items = 0
        began = time.perf_counter()
        while not raw or time.perf_counter() - began < share:
            watch = Stopwatch(calibration)
            items += op(watch.lap)
            watch.lap()
            calibration = watch.calibrations[-1]
            timings.calibrations.extend(watch.calibrations[1:])
            normalised.append(watch.normalised)
            raw.append(watch.raw)
            if after_op is not None:
                after_op()
        timings.blocks.append(normalised)
        timings.raw_blocks.append(raw)
        timings.block_walls.append(sum(normalised))
        timings.block_items.append(items)
    return timings


def dir_bytes(path: Optional[str]) -> int:
    """Total size of the regular files under ``path`` (0 for none)."""
    if not path or not os.path.isdir(path):
        return 0
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total
