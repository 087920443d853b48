"""Design-space sweeps: many small compiles with high overlap, cold and warm."""

from __future__ import annotations

import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.dse import DesignSpace, DSERunner
from repro.hardware import small_test_chip
from repro.models import Workload as ModelWorkload

from . import checks
from .base import TINY_SET, Workload, build_graphs_timed
from .tracing import Tracer, covered

#: One compile thread: the sweep's default pool races duplicate solves of
#: shared windows, so its solve counts would not repeat.
WORKERS = 1


def design_space(smoke: bool) -> DesignSpace:
    """3 tiny models x 5 array counts x dual/fixed mode on the test chip (30 points)."""
    models = [name for name, _ in TINY_SET]
    return DesignSpace(
        models=models[:2] if smoke else models,
        base_hardware=small_test_chip(),
        workloads=[ModelWorkload(batch_size=1, seq_len=16)],
        hardware_axes={"num_arrays": [4, 8] if smoke else [4, 6, 8, 12, 16]},
        option_axes={"allow_memory_mode": [True, False]},
    )


def frontier_of(result) -> List[Tuple[str, float]]:
    return sorted((record.point_key, record.cycles) for record in result.frontier())


class _DseWorkload(Workload):
    items = "points"

    def _prepare(self) -> None:
        build_graphs_timed(self, TINY_SET)
        self.space = design_space(self.run.smoke)
        self.result = None
        self.reference: Optional[List[Tuple[str, float]]] = None
        self.crashed = 0

    def _sweep(self, cache_dir: str, fidelity: str = "compile"):
        runner = DSERunner(
            self.space, strategy="grid", fidelity=fidelity, cache_dir=cache_dir,
            max_workers=WORKERS,
        )
        try:
            return runner.run()
        finally:
            runner.service.close()

    def after_op(self) -> None:
        if self.reference is None:
            self.reference = frontier_of(self.result)
        self.run.check(
            f"{self.name}: sweep covers the space with the reference Pareto frontier",
            len(self.result.records) == self.space.size
            and frontier_of(self.result) == self.reference,
        )
        self.crashed += sum(1 for record in self.result.records if record.failed)

    def check(self) -> None:
        self.run.check(f"{self.name}: no design point crashed", self.crashed == 0)

    def quality(self) -> Dict[str, float]:
        """Dual- against fixed-mode latency of the sweep's own feasible pairs."""
        by_point: Dict[Tuple[str, int], Dict[bool, float]] = {}
        for record in self.result.records:
            if record.feasible:
                by_point.setdefault((record.model, record.num_arrays), {})[
                    record.allow_memory_mode
                ] = record.cycles
        pairs = [modes for _, modes in sorted(by_point.items()) if len(modes) == 2]
        return checks.plan_quality(
            [modes[True] for modes in pairs], [modes[False] for modes in pairs]
        )

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        result = self.result
        compiles = [(s[3], s[4]) for s in tracer.spans if s[2] == "service.compile"]
        sweep_ms = tracer.total_ms("dse.run")
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            self._sweep(self.run.subdir("analytical"), fidelity="analytical")
            walls.append(time.perf_counter() - start)
        return {
            "segmentation.segments": float(sum(r.num_segments for r in result.records)),
            "dse.evaluated": float(result.evaluated),
            "dse.replicated": float(result.replicated),
            "dse.warm_planned": float(result.warm_planned),
            "dse.cold_planned": float(result.cold_planned),
            "dse.allocator_solves": float(result.allocator_solves),
            "dse.disk_hits": float(result.disk_hits),
            # Share of a sweep's wall with no compile running on any
            # thread: planning, evaluation records, Pareto bookkeeping.
            "dse.overhead_share": (
                1.0 - covered(compiles) * 1000.0 / sweep_ms if sweep_ms else 0.0
            ),
            "dse.analytical_points_per_s": self.space.size / min(walls),
        }


class DseCold(_DseWorkload):
    name = "dse_cold"

    def setup(self) -> None:
        self._prepare()
        self._dirs: List[str] = []
        self._sweeps = 0

    def op(self, lap: Callable[[], None]) -> int:
        self._sweeps += 1
        self._dirs.append(self.run.subdir(f"sweep-{self._sweeps}"))
        self.result = self._sweep(self._dirs[-1])
        return self.space.size

    def after_op(self) -> None:
        super().after_op()
        for stale in self._dirs[:-1]:
            shutil.rmtree(stale, ignore_errors=True)
        del self._dirs[:-1]

    def check(self) -> None:
        super().check()
        cold = self.result
        warm = self._sweep(self._dirs[-1])
        self.run.check("dse_cold: the cold sweep solved windows", cold.allocator_solves > 0)
        self.run.check(
            "dse_cold: a fresh runner over the written cache solves nothing, same frontier",
            warm.allocator_solves == 0 and frontier_of(warm) == self.reference,
        )

    def cache_dir(self) -> Optional[str]:
        return self._dirs[-1]


class DseWarm(_DseWorkload):
    name = "dse_warm"

    def setup(self) -> None:
        self._prepare()
        self._cache_dir = self.run.subdir("cache")
        self.reference = frontier_of(self._sweep(self._cache_dir))
        self.solves = 0

    def op(self, lap: Callable[[], None]) -> int:
        self.result = self._sweep(self._cache_dir)
        return self.space.size

    def after_op(self) -> None:
        super().after_op()
        self.solves += self.result.allocator_solves

    def check(self) -> None:
        super().check()
        self.run.check("dse_warm: warm sweeps solved nothing", self.solves == 0)

    def cache_dir(self) -> Optional[str]:
        return self._cache_dir
