"""Search strategies driving iterative design-space exploration.

Strategies speak a small ask/tell protocol the runner drives:

* :meth:`Strategy.bind` attaches the strategy to a
  :class:`~repro.dse.space.DesignSpace`;
* :meth:`Strategy.ask` proposes up to ``n`` not-yet-proposed points;
* :meth:`Strategy.tell` feeds back evaluation records (objects exposing
  ``coords``, ``feasible`` and ``objective_value``) so adaptive
  strategies can steer;
* :attr:`Strategy.exhausted` reports when the whole space was proposed.

Four built-ins cover the common sweep shapes:

* ``grid`` — the full factorial grid in deterministic lexicographic
  order; the right default for small spaces and for reproducible runs.
* ``random`` — a seeded uniform shuffle of the grid, proposed without
  replacement; the standard budget-limited baseline for spaces too big
  to enumerate.
* ``greedy`` — successive-halving-flavoured local refinement: an initial
  seeded sample, then each round keeps the best-scoring half of what has
  been evaluated and proposes the unvisited grid *neighbours* of those
  survivors (falling back to random exploration when the neighbourhoods
  are exhausted).  Converges on a good region of a smooth objective with
  a fraction of the grid budget.
* ``successive-halving`` — the multi-fidelity schedule the analytical
  bound (:mod:`repro.dse.bound`) enables: rung 0 proposes *every* candidate
  at ``analytical`` fidelity (closed-form lower bounds, zero allocator
  solves) and the best ``keep_fraction`` survivors are compiled.  The
  strategy announces the fidelity of its current rung via
  :attr:`Strategy.fidelity`, which a runner in ``--fidelity auto`` mode
  obeys.

All randomness flows from an explicit seed — two runs with the same seed
propose the same points in the same order, which the resumable run state
relies on for clean restarts.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .space import DesignPoint, DesignSpace

__all__ = [
    "GreedyStrategy",
    "GridStrategy",
    "RandomStrategy",
    "STRATEGIES",
    "Strategy",
    "SuccessiveHalvingStrategy",
    "make_strategy",
]


class Strategy:
    """Base class: proposal bookkeeping shared by every strategy.

    :attr:`fidelity` is the multi-fidelity hook: a strategy that
    schedules evaluation tiers (``successive-halving``) sets it to the
    fidelity its *latest* :meth:`ask` batch should be evaluated at, and
    a runner in ``auto`` fidelity mode obeys it.  Fidelity-agnostic
    strategies leave it ``None`` (the runner then applies its own
    default).
    """

    name = "base"

    #: Fidelity requested for the latest ask() batch (None = runner's choice).
    fidelity: Optional[str] = None

    #: Whether the strategy schedules evaluation fidelities itself.
    multi_fidelity = False

    def __init__(self) -> None:
        self.space: DesignSpace = None  # type: ignore[assignment]
        self._proposed: set = set()
        self._total = 0

    def bind(self, space: DesignSpace) -> None:
        """Attach to a space; resets all proposal state."""
        self.space = space
        self._proposed = set()
        self._total = space.size

    @property
    def exhausted(self) -> bool:
        """Whether every point of the space has been proposed."""
        return len(self._proposed) >= self._total

    def ask(self, n: int) -> List[DesignPoint]:
        """Propose up to ``n`` new design points."""
        raise NotImplementedError

    def tell(self, records: Sequence) -> None:
        """Feed evaluation results back (default: ignored)."""

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _propose(self, coords: Tuple[int, ...]) -> DesignPoint:
        self._proposed.add(coords)
        return self.space.point_at(coords)


class GridStrategy(Strategy):
    """Deterministic lexicographic sweep of the whole grid."""

    name = "grid"

    def bind(self, space: DesignSpace) -> None:
        super().bind(space)
        self._pending = list(space.coordinates())

    def ask(self, n: int) -> List[DesignPoint]:
        batch = []
        while self._pending and len(batch) < n:
            batch.append(self._propose(self._pending.pop(0)))
        return batch


class RandomStrategy(Strategy):
    """Seeded uniform sampling of the grid without replacement."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed

    def bind(self, space: DesignSpace) -> None:
        super().bind(space)
        self._pending = list(space.coordinates())
        random.Random(self.seed).shuffle(self._pending)

    def ask(self, n: int) -> List[DesignPoint]:
        batch = []
        while self._pending and len(batch) < n:
            batch.append(self._propose(self._pending.pop(0)))
        return batch


class GreedyStrategy(Strategy):
    """Successive-halving-style neighbourhood refinement.

    Round 0 proposes a seeded random sample.  Every later round ranks all
    evaluated points by objective (infeasible points score ``inf``),
    keeps the top ``keep_fraction`` — the "halving" — and proposes the
    unvisited grid neighbours of those survivors, best survivor first.
    When the survivors' neighbourhoods are exhausted the strategy falls
    back to seeded random exploration so a budget is never stranded.

    Args:
        seed: RNG seed for the initial sample and the exploration order.
        keep_fraction: Fraction of evaluated points whose neighbourhoods
            are explored each round (default 0.5).
    """

    name = "greedy"

    def __init__(self, seed: int = 0, keep_fraction: float = 0.5) -> None:
        super().__init__()
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        self.seed = seed
        self.keep_fraction = keep_fraction

    def bind(self, space: DesignSpace) -> None:
        super().bind(space)
        self._explore = list(space.coordinates())
        random.Random(self.seed).shuffle(self._explore)
        # coords -> best objective seen (records may repeat on resume).
        self._scores: Dict[Tuple[int, ...], float] = {}
        # Point keys already proposed or told.  Distinct coordinates can
        # materialise to the same point key (duplicate axis values,
        # option canonicalisation), and near a space edge a survivor's
        # neighbourhood collapses onto such aliases — without key-level
        # dedup the strategy re-proposes an already-told point and the
        # batch burns budget evaluating it again.
        self._seen_keys: set = set()

    def _propose_unseen(self, coords: Tuple[int, ...]) -> Optional[DesignPoint]:
        """Propose ``coords`` unless its point key was already seen.

        An aliased coordinate is still marked proposed (it is consumed
        either way) so the exhaustion accounting stays correct.
        """
        point = self.space.point_at(coords)
        self._proposed.add(coords)
        if point.key in self._seen_keys:
            return None
        self._seen_keys.add(point.key)
        return point

    def ask(self, n: int) -> List[DesignPoint]:
        batch: List[DesignPoint] = []
        # Exploit: neighbours of the best-scoring survivors.
        if self._scores:
            ranked = sorted(self._scores.items(), key=lambda item: item[1])
            keep = max(1, math.ceil(len(ranked) * self.keep_fraction))
            for coords, _ in ranked[:keep]:
                for neighbor in self.space.neighbors(coords):
                    if neighbor in self._proposed:
                        continue
                    point = self._propose_unseen(neighbor)
                    if point is None:
                        continue
                    batch.append(point)
                    if len(batch) >= n:
                        return batch
        # Explore: seeded random fill.
        while self._explore and len(batch) < n:
            coords = self._explore.pop(0)
            if coords in self._proposed:
                continue
            point = self._propose_unseen(coords)
            if point is not None:
                batch.append(point)
        return batch

    def tell(self, records: Sequence) -> None:
        for record in records:
            key = getattr(record, "point_key", None)
            if key:
                self._seen_keys.add(key)
            value = getattr(record, "objective_value", None)
            if value is None or not getattr(record, "feasible", False):
                value = math.inf
            coords = tuple(getattr(record, "coords", ()))
            if not coords:
                continue
            previous = self._scores.get(coords, math.inf)
            self._scores[coords] = min(previous, float(value))


class SuccessiveHalvingStrategy(Strategy):
    """Two-rung successive halving: bound the whole space, compile the best.

    Rung 0 proposes every candidate of the space (seeded order) at
    ``analytical`` fidelity — closed-form lower bounds, zero allocator
    solves.  It is a sound screen: an infeasible bound proves the point
    infeasible, and the bound is monotone in the same hardware/option
    knobs the real cost is.  Once every rung-0 answer is told back, the
    feasible candidates are ranked by objective and the best
    ``keep_fraction`` of them are re-proposed at ``compile`` fidelity.
    The runner reads :attr:`fidelity` after each :meth:`ask` to evaluate
    the batch at the rung's tier.

    Records already known at sufficient fidelity (a resumed run)
    short-circuit naturally: the runner feeds them back as ``resumed``
    without paying for re-evaluation, at either rung.

    Args:
        seed: RNG seed for the rung-0 proposal order.
        keep_fraction: Fraction of ranked feasible candidates promoted
            to the compile rung (``1/eta`` in successive-halving terms;
            default 0.5).
    """

    name = "successive-halving"
    multi_fidelity = True

    def __init__(self, seed: int = 0, keep_fraction: float = 0.5) -> None:
        super().__init__()
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        self.seed = seed
        self.keep_fraction = keep_fraction

    def bind(self, space: DesignSpace) -> None:
        super().bind(space)
        self._queue = list(space.coordinates())
        random.Random(self.seed).shuffle(self._queue)
        self._asked = 0
        self._told = 0
        # coords -> best rung-0 objective told (records may repeat on resume).
        self._scores: Dict[Tuple[int, ...], float] = {}
        self.fidelity = "analytical"

    @property
    def exhausted(self) -> bool:
        # An empty rung 0 still owes its promotion; the compile rung is
        # done once fully proposed (its tells rank nothing).
        return self.fidelity == "compile" and not self._queue

    def ask(self, n: int) -> List[DesignPoint]:
        if not self._queue:
            if self.fidelity == "compile" or self._told < self._asked:
                # Done, or still waiting for rung 0's answers (the runner
                # always tells between asks, so that only guards misuse).
                return []
            self._promote()
        batch: List[DesignPoint] = []
        while self._queue and len(batch) < n:
            batch.append(self.space.point_at(self._queue.pop(0)))
        self._asked += len(batch)
        return batch

    def _promote(self) -> None:
        """Queue rung 0's best feasible candidates for the compile rung."""
        ranked = sorted(
            (value, coords)
            for coords, value in self._scores.items()
            if math.isfinite(value)
        )
        keep = math.ceil(len(ranked) * self.keep_fraction)
        self._queue = [coords for _, coords in ranked[:keep]]
        self.fidelity = "compile"

    def tell(self, records: Sequence) -> None:
        if self.fidelity == "compile":
            # The last rung's answers rank nothing further.
            return
        for record in records:
            self._told += 1
            coords = tuple(getattr(record, "coords", ()))
            if not coords:
                continue
            value = getattr(record, "objective_value", None)
            if value is None or not getattr(record, "feasible", False):
                value = math.inf
            previous = self._scores.get(coords, math.inf)
            self._scores[coords] = min(previous, float(value))


STRATEGIES = {
    "grid": GridStrategy,
    "random": RandomStrategy,
    "greedy": GreedyStrategy,
    "successive-halving": SuccessiveHalvingStrategy,
}


def make_strategy(name: str, seed: int = 0) -> Strategy:
    """Instantiate a strategy by name (see :data:`STRATEGIES`)."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; known: {', '.join(sorted(STRATEGIES))}"
        ) from None
    if cls is GridStrategy:
        return cls()
    return cls(seed=seed)
