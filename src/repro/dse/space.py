"""Design-space declaration for dual-mode hardware/allocation exploration.

A :class:`DesignSpace` is the declarative input of the DSE engine: it
crosses *axes* — models, workloads, hardware-parameter overrides of a base
:class:`~repro.hardware.deha.DualModeHardwareAbstraction`, and compiler
options — into a grid of :class:`DesignPoint` candidates.  Each point is a
fully materialised (model, workload, hardware, options) tuple the compile
pipeline can evaluate, plus the coordinate vector that locates it in the
grid (which is what neighbourhood-based strategies navigate).

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
from ..models.workload import (
    Phase,
    Workload,
    workload_from_payload as _workload_from_payload,
    workload_to_payload as _workload_to_payload,
)

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "ParameterAxis",
    "options_signature",
    "workload_payload",
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


def workload_payload(workload: Workload) -> Dict:
    """Canonical JSON-compatible rendering of a workload.

    Thin alias of :func:`repro.models.workload.workload_to_payload` —
    the trace format (:mod:`repro.sim.traces`) shares the same
    serialisation, so workloads round-trip identically between DSE run
    directories and request traces.
    """
    return _workload_to_payload(workload)


def workload_from_payload(payload: Mapping) -> Workload:
    """Rebuild a workload from :func:`workload_payload` output."""
    return _workload_from_payload(payload)


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
            neighbourhood strategies step along the declared order).
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
        coords: Axis-index vector locating the point in its space.
        model_digest: Structural digest standing in for graph-object
            models in the point key (None for registered names).
    """

    model: Union[str, Graph]
    workload: Workload
    hardware: DualModeHardwareAbstraction
    options: CompilerOptions
    coords: Tuple[int, ...] = ()
    model_digest: Optional[str] = None

    @property
    def model_name(self) -> str:
        """Display name of the point's model."""
        return self.model if isinstance(self.model, str) else self.model.name

    @property
    def key(self) -> str:
        """Stable cross-process identity of the point.

        Two points with the same key compile to bit-identical programs
        (same model structure, workload, hardware parameters and
        solve-relevant options), so a resumable run may skip a point
        whose key already appears in its results file.
        """
        model_id = self.model if isinstance(self.model, str) else (
            self.model_digest or f"graph:{self.model.name}"
        )
        return _digest(
            {
                "model": model_id,
                "workload": workload_payload(self.workload),
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
    the grid lexicographically in that order, so a ``grid`` strategy is
    deterministic and a run directory's point order is reproducible.

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

        # Hardware instances are memoised per override combination: the
        # DEHA fingerprint is memoised per instance, so sharing instances
        # across points keeps fingerprinting O(#hardware configs).
        self._hardware_memo: Dict[Tuple[int, ...], DualModeHardwareAbstraction] = {}
        self._options_memo: Dict[Tuple[int, ...], CompilerOptions] = {}
        # Graph-object models get a structural digest once (their name is
        # not a trustworthy identity; see DesignPoint.key).
        self._model_digests: Dict[int, str] = {}
        for index, model in enumerate(models):
            if isinstance(model, Graph):
                self._model_digests[index] = _graph_digest(model)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of points in the grid."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def coordinates(self) -> Iterator[Tuple[int, ...]]:
        """All coordinate vectors in lexicographic order."""
        ranges = [range(len(axis.values)) for axis in self.axes]
        return iter(itertools.product(*ranges))

    def neighbors(self, coords: Sequence[int]) -> List[Tuple[int, ...]]:
        """Coordinates differing from ``coords`` by one step on one axis."""
        coords = tuple(coords)
        result: List[Tuple[int, ...]] = []
        for axis_index, axis in enumerate(self.axes):
            for delta in (-1, 1):
                value = coords[axis_index] + delta
                if 0 <= value < len(axis.values):
                    neighbor = list(coords)
                    neighbor[axis_index] = value
                    result.append(tuple(neighbor))
        return result

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def point_at(self, coords: Sequence[int]) -> DesignPoint:
        """Materialise the design point at a coordinate vector."""
        coords = tuple(coords)
        if len(coords) != len(self.axes):
            raise ValueError(
                f"expected {len(self.axes)} coordinates, got {len(coords)}"
            )
        model_index = coords[0]
        workload_index = coords[1]
        hardware_coords = []
        hardware_overrides: Dict[str, object] = {}
        option_overrides: Dict[str, object] = {}
        option_coords = []
        for axis, value_index in zip(self.axes[2:], coords[2:]):
            value = axis.values[value_index]
            if axis.kind == "hardware":
                hardware_overrides[axis.name] = value
                hardware_coords.append(value_index)
            else:
                option_overrides[axis.name] = value
                option_coords.append(value_index)
        hw_key = tuple(hardware_coords)
        hardware = self._hardware_memo.get(hw_key)
        if hardware is None:
            hardware = (
                self.base_hardware.with_overrides(**hardware_overrides)
                if hardware_overrides
                else self.base_hardware
            )
            self._hardware_memo[hw_key] = hardware
        opt_key = tuple(option_coords)
        options = self._options_memo.get(opt_key)
        if options is None:
            options = (
                replace(self.base_options, **option_overrides)
                if option_overrides
                else self.base_options
            )
            self._options_memo[opt_key] = options
        return DesignPoint(
            model=self.models[model_index],
            workload=self.workloads[workload_index],
            hardware=hardware,
            options=options,
            coords=coords,
            model_digest=self._model_digests.get(model_index),
        )

    def points(self) -> Iterator[DesignPoint]:
        """All design points in lexicographic coordinate order."""
        for coords in self.coordinates():
            yield self.point_at(coords)

    # ------------------------------------------------------------------ #
    # identity / persistence
    # ------------------------------------------------------------------ #
    def to_spec(self) -> Dict:
        """JSON-compatible declaration of the space (for run directories).

        Graph-object models are recorded by structural digest; such a
        spec documents the run but cannot rebuild the space (resume still
        works — completed points are matched by point key, not by spec).
        """
        return {
            "models": [
                model if isinstance(model, str) else {
                    "graph": model.name,
                    "digest": self._model_digests[index],
                }
                for index, model in enumerate(self.models)
            ],
            "base_hardware": self.base_hardware.to_dict(),
            "workloads": [workload_payload(w) for w in self.workloads],
            "axes": [
                {"name": axis.name, "kind": axis.kind, "values": list(axis.values)}
                for axis in self.axes
                if axis.kind in ("hardware", "option")
            ],
            "base_options": {
                name: getattr(self.base_options, name) for name in OPTION_AXIS_FIELDS
            },
        }

    @classmethod
    def from_spec(cls, spec: Mapping) -> "DesignSpace":
        """Rebuild a space from :meth:`to_spec` output (name-based models only)."""
        models = []
        for model in spec["models"]:
            if not isinstance(model, str):
                raise ValueError(
                    "cannot rebuild a DesignSpace containing graph-object models "
                    f"(found {model!r}); re-declare the space in code"
                )
            models.append(model)
        hardware_axes = {}
        option_axes = {}
        for axis in spec.get("axes", []):
            target = hardware_axes if axis["kind"] == "hardware" else option_axes
            target[axis["name"]] = axis["values"]
        return cls(
            models=models,
            base_hardware=DualModeHardwareAbstraction.from_dict(spec["base_hardware"]),
            workloads=[workload_from_payload(w) for w in spec["workloads"]],
            hardware_axes=hardware_axes,
            option_axes=option_axes,
            base_options=replace(
                CompilerOptions(generate_code=False), **spec.get("base_options", {})
            ),
        )

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


def _graph_digest(graph: Graph) -> str:
    """Structural digest of a prebuilt graph (profile signatures).

    Used as the model component of point keys when the model is a graph
    object rather than a registry name, so identically named but
    structurally different graphs never share a point key.
    """
    from ..core.cache import segment_signature
    from ..cost.arithmetic import profile_graph

    signature = segment_signature(profile_graph(graph))
    return _digest([list(row) for row in signature])
