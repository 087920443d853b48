"""The contract every workload fulfils, and the inputs several of them share."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.compiler import CompilerOptions
from repro.models import Workload as ModelWorkload, build_model

from .harness import BLOCKS, Run, Timings, run_blocks
from .tracing import Tracer

#: (model, workload) pairs compiled for the paper's chip.  They span the
#: regimes the allocator sees: mobilenet, many cheap windows (664 solves);
#: vgg16, few expensive ones; bert and gpt2, repeated transformer blocks
#: where dual mode gains almost nothing; llama2-7b, partitioned operators
#: and the largest dual-mode gain (1.65x).  resnet18 is left out: it alone
#: doubles the cold pass, and the regime it adds (expensive solves) is
#: vgg16's.
PAPER_SET: Tuple[Tuple[str, ModelWorkload], ...] = (
    ("mobilenet", ModelWorkload()),
    ("vgg16", ModelWorkload()),
    ("bert", ModelWorkload()),
    ("gpt2", ModelWorkload()),
    ("llama2-7b", ModelWorkload(seq_len=32)),
)
PAPER_CHIP = "dynaplasia"

#: The synthetic models of the test chip: sub-second compiles, small
#: enough for the functional simulator to execute.
TINY_SET: Tuple[Tuple[str, ModelWorkload], ...] = (
    ("tiny-mlp", ModelWorkload()),
    ("tiny-cnn", ModelWorkload()),
    ("tiny-transformer", ModelWorkload(seq_len=16)),
)
TINY_CHIP = "small-test-chip"

#: CIM-MLC as this repository models it: the same pipeline with every
#: array pinned to compute mode.
CIMMLC_OPTIONS = CompilerOptions(allow_memory_mode=False, generate_code=False)


class Workload:
    """One set of inputs the benchmark runs.

    The runner calls ``setup`` (timed as ``setup_s``), ``measure`` (the
    timed section), ``check`` and ``quality`` (untimed), then ``close``.
    ``layer`` collects per-layer numbers a workload measures directly
    rather than through spans.
    """

    name = ""
    #: What ``throughput_per_s`` counts for this workload.
    items = "operations"

    def __init__(self, run: Run) -> None:
        self.run = run
        self.layer: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, lap: Callable[[], None]) -> int:
        """One timed operation; returns the work items it completed.

        A long operation calls ``lap()`` between its steps so the
        machine's speed is sampled inside it (see ``harness.Stopwatch``).
        """
        raise NotImplementedError

    def after_op(self) -> None:
        """Untimed bookkeeping after each operation (keep outputs to check)."""

    def measure(self, seconds: float, blocks: int = BLOCKS) -> Timings:
        def counted(lap: Callable[[], None]) -> int:
            self.run.attempt()
            return self.op(lap)

        return run_blocks(counted, seconds, self.after_op, blocks)

    def check(self) -> None:
        """Output checks; each goes through ``run.check``."""

    def quality(self) -> Dict[str, float]:
        """``plan_cycles_geomean`` and ``speedup_vs_cimmlc`` of the delivered programs."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        """Workload-specific per-layer numbers of the traced section."""
        return {}

    def cache_dir(self) -> Optional[str]:
        """The disk tier this workload wrote, for ``store.bytes``."""
        return None

    def close(self) -> None:
        """Release sessions, processes and sockets."""


def build_graphs(models: Sequence[Tuple[str, ModelWorkload]]) -> List:
    return [build_model(name, model_workload) for name, model_workload in models]


def build_graphs_timed(workload: Workload, models: Sequence[Tuple[str, ModelWorkload]]) -> List:
    """Build the graphs once (part of set-up) and record the models layer."""
    start = time.perf_counter()
    graphs = build_graphs(models)
    workload.layer["models.build_ms"] = (time.perf_counter() - start) * 1000.0
    workload.layer["models.operators"] = float(sum(len(g.operators) for g in graphs))
    return graphs


def segmentation_shape(programs: Sequence) -> Dict[str, float]:
    """Units the DP saw and segments it chose, summed over ``programs``."""
    return {
        "segmentation.units": float(
            sum(p.metadata.get("num_flattened_units", 0) for p in programs)
        ),
        "segmentation.segments": float(sum(p.num_segments for p in programs)),
    }
