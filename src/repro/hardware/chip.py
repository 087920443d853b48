"""Run-time state of a dual-mode CIM chip.

The compiler reasons about the chip through the static
:class:`~repro.hardware.deha.DualModeHardwareAbstraction`; the simulators
and the meta-operator interpreter additionally need *state*: which mode
every array is currently in, which operator owns it, and how many
switches have been performed.  :class:`CIMChip` models exactly that and
enforces the paper's constraint that an array can serve only one role at
a time (Eq. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .deha import ArrayMode, DualModeHardwareAbstraction


class ChipStateError(RuntimeError):
    """Raised when an operation violates the chip's physical constraints."""


@dataclass
class CIMArray:
    """State of one dual-mode array.

    Attributes:
        index: Array index (flattened ``(x, y)`` coordinate).
        mode: Current operating mode.
        owner: Name of the operator / buffer currently occupying the array,
            or ``None`` when free.
    """

    index: int
    mode: ArrayMode = ArrayMode.IDLE
    owner: Optional[str] = None


class CIMChip:
    """Mutable run-time model of the dual-mode CIM accelerator.

    Args:
        hardware: The static hardware abstraction.
    """

    def __init__(self, hardware: DualModeHardwareAbstraction) -> None:
        self.hardware = hardware
        self.arrays: List[CIMArray] = [CIMArray(index=i) for i in range(hardware.num_arrays)]
        self.switch_count_m2c = 0
        self.switch_count_c2m = 0
        self.switch_cycles = 0.0

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def count(self, mode: ArrayMode) -> int:
        """Number of arrays currently in ``mode``."""
        return sum(1 for array in self.arrays if array.mode is mode)

    @property
    def num_compute(self) -> int:
        """Number of arrays in compute mode."""
        return self.count(ArrayMode.COMPUTE)

    @property
    def num_memory(self) -> int:
        """Number of arrays in memory mode."""
        return self.count(ArrayMode.MEMORY)

    @property
    def num_idle(self) -> int:
        """Number of idle arrays."""
        return self.count(ArrayMode.IDLE)

    # ------------------------------------------------------------------ #
    # state transitions
    # ------------------------------------------------------------------ #
    def _array(self, index: int) -> CIMArray:
        if not 0 <= index < len(self.arrays):
            raise ChipStateError(
                f"array index {index} out of range (chip has {len(self.arrays)} arrays)"
            )
        return self.arrays[index]

    def switch_mode(self, indices: Iterable[int], mode: ArrayMode) -> float:
        """Switch the given arrays to ``mode`` and return the cycle cost.

        Arrays already in the requested mode cost nothing (the paper only
        charges for actual transitions, Eq. 1).  Switching an array drops
        its ownership — data must have been saved beforehand (step 1 of the
        inter-segment procedure) or be dead.
        """
        cycles = 0.0
        for index in indices:
            array = self._array(index)
            if array.mode is mode:
                continue
            if mode is ArrayMode.COMPUTE:
                if array.mode is ArrayMode.MEMORY:
                    self.switch_count_m2c += 1
                    cycles += self.hardware.switch_latency_m2c
            elif mode is ArrayMode.MEMORY:
                if array.mode is ArrayMode.COMPUTE:
                    self.switch_count_c2m += 1
                    cycles += self.hardware.switch_latency_c2m
            array.mode = mode
            array.owner = None
        self.switch_cycles += cycles
        return cycles

    def assign(self, indices: Iterable[int], owner: str, mode: ArrayMode) -> float:
        """Assign arrays to an owner in the requested mode.

        Returns the mode-switch cycles incurred.  Raises if any array is
        already owned by a different owner — the same array cannot serve
        two operators simultaneously (constraint Eq. 5/7).
        """
        indices = list(indices)
        for index in indices:
            array = self._array(index)
            if array.owner is not None and array.owner != owner:
                raise ChipStateError(
                    f"array {index} already owned by {array.owner!r}; cannot assign to {owner!r}"
                )
        cycles = self.switch_mode(indices, mode)
        for index in indices:
            self._array(index).owner = owner
        return cycles

    def release(self) -> List[int]:
        """Release every owned array (modes are kept); returns their indices."""
        released = []
        for array in self.arrays:
            if array.owner is not None:
                array.owner = None
                released.append(array.index)
        return released

    def allocate_free(
        self, count: int, owner: str, mode: ArrayMode
    ) -> Tuple[List[int], List[int]]:
        """Grab ``count`` free arrays for ``owner`` (prefer mode matches).

        Free arrays already in the requested mode are taken first (lowest
        index first) to minimise switching, then the other free arrays
        (lowest index first), mirroring the compiler's assumption that
        arrays keep their mode across segments whenever possible.  One
        pass over the chip splits the free arrays into those two lists;
        only the chosen arrays of the second go through
        :meth:`switch_mode`, and all chosen arrays are then owned.

        Returns:
            ``(indices, switched)`` — the chosen indices and the subset
            whose mode had to change.

        Raises:
            ChipStateError: If fewer than ``count`` arrays are free.
        """
        matching: List[CIMArray] = []
        others: List[CIMArray] = []
        for array in self.arrays:
            if array.owner is None:
                (matching if array.mode is mode else others).append(array)
        free = matching + others
        if len(free) < count:
            raise ChipStateError(
                f"requested {count} arrays for {owner!r} but only {len(free)} are free"
            )
        chosen = free[:count]
        switched = [array.index for array in chosen[len(matching) :]]
        self.switch_mode(switched, mode)
        for array in chosen:
            array.owner = owner
        return [array.index for array in chosen], switched

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CIMChip {self.hardware.name}: {self.num_compute} compute / "
            f"{self.num_memory} memory / {self.num_idle} idle>"
        )
