"""Compile workloads: the same model set, cold, memory-warm and disk-warm."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.api import Session

from . import checks
from .base import (
    CIMMLC_OPTIONS,
    PAPER_CHIP,
    PAPER_SET,
    TINY_CHIP,
    TINY_SET,
    Workload,
    build_graphs,
    build_graphs_timed,
    segmentation_shape,
)
from .tracing import Tracer


class _CompileWorkload(Workload):
    """Shared shape: one operation compiles every graph of the set once."""

    items = "models"

    def _prepare(self) -> None:
        smoke = self.run.smoke
        self.chip = TINY_CHIP if smoke else PAPER_CHIP
        self.graphs = build_graphs_timed(self, TINY_SET if smoke else PAPER_SET)
        # One throwaway compile so lazy imports (scipy, the MILP back
        # end) are paid in set-up, as a long-lived user pays them once.
        with Session(hardware=TINY_CHIP) as warmup:
            warmup.compile(TINY_SET[0][0], TINY_SET[0][1])
        self.run.lap()
        self.session: Optional[Session] = None
        self.programs: List = []
        self.reference: Optional[List[str]] = None
        self.order = list(range(len(self.graphs)))

    def _compile_all(self, session: Session, lap: Optional[Callable[[], None]] = None) -> int:
        """Compile the set on ``session`` in a seeded order."""
        self.run.rng.shuffle(self.order)
        programs = [None] * len(self.graphs)
        for index in self.order:
            programs[index] = session.compile(self.graphs[index])
            if lap is not None:
                lap()
        self.programs = programs
        return len(programs)

    def after_op(self) -> None:
        checks.check_fingerprints(
            self.run, f"{self.name} pass", self.reference, self.programs
        )

    def quality(self) -> Dict[str, float]:
        # Served from the session's cache: the fixed-mode fallback pass
        # already solved every window the fixed-mode compile asks for.
        fixed = [
            self.session.compile(graph, options=CIMMLC_OPTIONS) for graph in self.graphs
        ]
        return checks.plan_quality(
            [p.end_to_end_cycles for p in self.programs],
            [p.end_to_end_cycles for p in fixed],
        )

    def check(self) -> None:
        checks.check_programs(self.run, self.name, self.programs, self.graphs)
        self.layer.update(
            checks.functional_check(self.run, self.name, self._functional_cases())
        )

    def _functional_cases(self) -> List:
        """The tiny models, freshly compiled for the test chip."""
        with Session(hardware=TINY_CHIP) as session:
            return [(session.compile(graph), graph) for graph in build_graphs(TINY_SET)]

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        return segmentation_shape(self.programs)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class CompileCold(_CompileWorkload):
    name = "compile_cold"

    def setup(self) -> None:
        self._prepare()

    def op(self, lap: Callable[[], None]) -> int:
        if self.session is not None:
            self.session.close()
        self.session = Session(hardware=self.chip)
        # A cold pass lasts seconds: sample the machine after every model.
        return self._compile_all(self.session, lap)

    def after_op(self) -> None:
        if self.reference is None:
            self.reference = [program.fingerprint() for program in self.programs]
        super().after_op()

    def _functional_cases(self) -> List:
        cases = super()._functional_cases()
        if not self.run.smoke:
            # bert is the one paper-chip model small enough to execute.
            index = [name for name, _ in PAPER_SET].index("bert")
            cases.append((self.programs[index], self.graphs[index]))
        return cases


class CompileWarm(_CompileWorkload):
    name = "compile_warm"
    #: Whether each operation starts from a fresh Session over the disk tier.
    from_disk = False

    def setup(self) -> None:
        self._prepare()
        self._cache_dir = self.run.subdir("cache")
        # The populate pass: a cold compile that writes the disk tier.
        self.session = Session(hardware=self.chip, cache_dir=self._cache_dir)
        self._compile_all(self.session, self.run.lap)
        self.reference = [program.fingerprint() for program in self.programs]
        self.solves = 0
        self.disk_hits = 0

    def op(self, lap: Callable[[], None]) -> int:
        if self.from_disk:
            self.session.close()
            self.session = Session(hardware=self.chip, cache_dir=self._cache_dir)
        return self._compile_all(self.session)

    def after_op(self) -> None:
        super().after_op()
        self.solves += sum(p.stats["allocator_solves"] for p in self.programs)
        self.disk_hits += sum(p.stats["allocation_disk_hits"] for p in self.programs)

    def check(self) -> None:
        super().check()
        self.run.check(f"{self.name}: warm passes solved nothing", self.solves == 0)
        if self.from_disk:
            self.run.check(f"{self.name}: passes were served from disk", self.disk_hits > 0)

    def cache_dir(self) -> Optional[str]:
        return self._cache_dir


class CompileDiskWarm(CompileWarm):
    name = "compile_diskwarm"
    from_disk = True
