"""Design-space declaration for dual-mode hardware/allocation exploration.

A :class:`DesignSpace` is the declarative input of the DSE engine: it
crosses *axes* — models, workloads, hardware-parameter overrides of a base
:class:`~repro.hardware.deha.DualModeHardwareAbstraction`, and compiler
options — into a grid of :class:`DesignPoint` candidates.  Each point is a
fully materialised (model, workload, hardware, options) tuple the compile
pipeline can evaluate.

Identity is taken seriously because everything downstream keys on it:

* :attr:`DesignPoint.key` is a stable SHA-256-derived digest of the
  point's model, workload, hardware parameters and solve-relevant options
  — identical across processes and interpreter restarts, so a resumable
  run directory written by one process lets any later process skip the
  points it already evaluated;
* :meth:`DesignSpace.fingerprint` digests the whole space declaration, so
  a run directory can record which space produced it (resuming with an
  *overlapping* but different space is allowed — completed points are
  matched by their point keys, not by the space).

Example::

    space = DesignSpace(
        models=["resnet18"],
        base_hardware="dynaplasia",
        hardware_axes={"num_arrays": [64, 96, 128]},
        option_axes={"allow_memory_mode": [True, False]},
    )
    for point in space.points():
        print(point.describe())
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.compiler import CompilerOptions
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import get_preset
from ..ir.graph import Graph
from ..models.workload import Workload, workload_to_payload

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "ParameterAxis",
    "options_signature",
]

#: Compiler-option fields a design point may legally vary.  ``generate_code``
#: is deliberately excluded: it changes what artefacts a compile emits, not
#: the plan or its cost, so two points differing only in it are identical
#: design candidates.
OPTION_AXIS_FIELDS = tuple(
    f.name for f in dataclass_fields(CompilerOptions) if f.name != "generate_code"
)

#: Hardware fields a design point may legally vary (everything the DEHA
#: serialises except its display name).
HARDWARE_AXIS_FIELDS = tuple(
    f.name for f in dataclass_fields(DualModeHardwareAbstraction) if f.name != "name"
)


def options_signature(options: CompilerOptions) -> Tuple:
    """Solve-relevant identity of compiler options (``generate_code`` excluded)."""
    return tuple(getattr(options, name) for name in OPTION_AXIS_FIELDS)


def _digest(payload) -> str:
    """Short stable digest of a JSON-compatible payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _coerce_axis_value(value):
    """Convert numpy scalars to plain Python values.

    Axis values flow into JSON digests (point keys, space fingerprints,
    run metadata), and ``np.arange``/``np.array`` sweeps are the natural
    input in this repo — an ``int64`` must not crash ``fingerprint()``
    three calls later with an opaque serialisation error.
    """
    if isinstance(value, (str, bytes, bool, int, float)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            return value
    return value


@dataclass(frozen=True)
class ParameterAxis:
    """One explored dimension of a design space.

    Attributes:
        name: Axis name — ``"model"``, ``"workload"``, a DEHA field name
            (e.g. ``"num_arrays"``) or a compiler-option field name
            (e.g. ``"allow_memory_mode"``).
        values: The candidate values, in declaration order (never sorted —
            the grid walks them in the order declared).
        kind: ``"model"`` / ``"workload"`` / ``"hardware"`` / ``"option"``.
    """

    name: str
    values: Tuple
    kind: str

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


@dataclass
class DesignPoint:
    """One fully materialised design candidate.

    Attributes:
        model: Registered model name or a prebuilt graph.
        workload: Workload the model is built for (ignored for graphs).
        hardware: The candidate chip (base preset + axis overrides).
        options: Compiler options of the candidate.
    """

    model: Union[str, Graph]
    workload: Workload
    hardware: DualModeHardwareAbstraction
    options: CompilerOptions

    @property
    def model_name(self) -> str:
        """Display name of the point's model."""
        return self.model if isinstance(self.model, str) else self.model.name

    @property
    def key(self) -> str:
        """Stable cross-process identity of the point.

        Two points with the same key compile to bit-identical programs
        (same model, workload, hardware parameters and solve-relevant
        options), so a resumable run may skip a point whose key already
        appears in its results file.  A graph-object model is identified
        by :meth:`~repro.ir.graph.Graph.digest` — its whole serialisation,
        name and metadata (``block_repeat``) included.
        """
        model_id = (
            self.model
            if isinstance(self.model, str)
            else f"graph:{self.model.digest()}"
        )
        return _digest(
            {
                "model": model_id,
                "workload": workload_to_payload(self.workload),
                "hardware": self.hardware.to_dict(),
                "options": list(options_signature(self.options)),
            }
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        mode = "dual" if self.options.allow_memory_mode else "fixed"
        return (
            f"{self.model_name} [{self.workload.describe()}] on "
            f"{self.hardware.name}/{self.hardware.num_arrays} arrays ({mode})"
        )


class DesignSpace:
    """A grid of design candidates over models, workloads, hardware and options.

    The axis order is fixed — model, workload, hardware axes (declaration
    order), option axes (declaration order) — and :meth:`points` iterates
    the grid lexicographically in that order, so a sweep is deterministic
    and a run directory's point order is reproducible.

    Args:
        models: Registered model names and/or prebuilt graphs (non-empty).
        base_hardware: Preset name or DEHA instance every hardware axis
            overrides.
        workloads: Workloads to cross with the models (default: one
            default :class:`Workload`).
        hardware_axes: Mapping of DEHA field name -> candidate values.
        option_axes: Mapping of :class:`CompilerOptions` field name ->
            candidate values.
        base_options: Options every option axis overrides (default:
            paper defaults with code generation off).

    Raises:
        ValueError: Empty model/workload/axis lists or unknown axis names.
    """

    def __init__(
        self,
        models: Sequence[Union[str, Graph]],
        base_hardware: Union[str, DualModeHardwareAbstraction] = "dynaplasia",
        workloads: Optional[Sequence[Workload]] = None,
        hardware_axes: Optional[Mapping[str, Sequence]] = None,
        option_axes: Optional[Mapping[str, Sequence]] = None,
        base_options: Optional[CompilerOptions] = None,
    ) -> None:
        models = list(models)
        if not models:
            raise ValueError("DesignSpace requires at least one model")
        workloads = list(workloads) if workloads is not None else [Workload()]
        if not workloads:
            raise ValueError("DesignSpace requires at least one workload")
        if isinstance(base_hardware, str):
            base_hardware = get_preset(base_hardware)
        self.base_hardware = base_hardware
        self.base_options = base_options or CompilerOptions(generate_code=False)
        self.models = models
        self.workloads = workloads

        axes: List[ParameterAxis] = [
            ParameterAxis("model", tuple(range(len(models))), "model"),
            ParameterAxis("workload", tuple(range(len(workloads))), "workload"),
        ]
        for name, values in (hardware_axes or {}).items():
            if name not in HARDWARE_AXIS_FIELDS:
                raise ValueError(
                    f"unknown hardware axis {name!r}; known fields: "
                    f"{', '.join(HARDWARE_AXIS_FIELDS)}"
                )
            values = tuple(_coerce_axis_value(v) for v in values)
            axes.append(ParameterAxis(name, values, "hardware"))
        for name, values in (option_axes or {}).items():
            if name not in OPTION_AXIS_FIELDS:
                raise ValueError(
                    f"unknown option axis {name!r}; known fields: "
                    f"{', '.join(OPTION_AXIS_FIELDS)}"
                )
            values = tuple(_coerce_axis_value(v) for v in values)
            axes.append(ParameterAxis(name, values, "option"))
        self.axes: Tuple[ParameterAxis, ...] = tuple(axes)
        self._variants: Optional[Tuple[List, List]] = None

    # ------------------------------------------------------------------ #
    # the grid
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of points in the grid."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def _combinations(self, kind: str, base, override) -> List:
        """``base`` overridden by every value combination of the ``kind``
        axes, in grid order (``[base]`` when there are none)."""
        axes = [axis for axis in self.axes if axis.kind == kind]
        names = [axis.name for axis in axes]
        return [
            override(base, **dict(zip(names, values))) if names else base
            for values in itertools.product(*(axis.values for axis in axes))
        ]

    def points(self) -> Iterator[DesignPoint]:
        """All design points in lexicographic grid order (last axis fastest)."""
        if self._variants is None:
            # One hardware instance per override combination, shared by
            # every point and every sweep of the space: the DEHA
            # fingerprint is memoised per instance.
            self._variants = (
                self._combinations(
                    "hardware", self.base_hardware,
                    lambda base, **overrides: base.with_overrides(**overrides),
                ),
                self._combinations("option", self.base_options, replace),
            )
        hardware, options = self._variants
        for model, workload, chip, chosen in itertools.product(
            self.models, self.workloads, hardware, options
        ):
            yield DesignPoint(model, workload, chip, chosen)

    # ------------------------------------------------------------------ #
    # identity / persistence
    # ------------------------------------------------------------------ #
    def to_spec(self) -> Dict:
        """JSON-compatible declaration of the space (for run directories).

        Graph-object models are recorded by :meth:`Graph.digest`.  The
        spec documents the run; a resume matches completed points by
        point key, not by spec.
        """
        return {
            "models": [
                model if isinstance(model, str) else {
                    "graph": model.name,
                    "digest": model.digest(),
                }
                for model in self.models
            ],
            "base_hardware": self.base_hardware.to_dict(),
            "workloads": [workload_to_payload(w) for w in self.workloads],
            "axes": [
                {"name": axis.name, "kind": axis.kind, "values": list(axis.values)}
                for axis in self.axes
                if axis.kind in ("hardware", "option")
            ],
            "base_options": {
                name: getattr(self.base_options, name) for name in OPTION_AXIS_FIELDS
            },
        }

    def fingerprint(self) -> str:
        """Stable digest of the whole space declaration (memoised —
        the declaration is immutable after construction)."""
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = _digest(self.to_spec())
            self._fingerprint = cached
        return cached

    def describe(self) -> str:
        """One-line human-readable summary of the space."""
        parts = [f"{len(self.models)} model(s)", f"{len(self.workloads)} workload(s)"]
        for axis in self.axes:
            if axis.kind in ("hardware", "option"):
                parts.append(f"{axis.name} x {len(axis.values)}")
        return f"{self.size} points ({', '.join(parts)})"

