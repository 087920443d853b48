"""CMSwitch reproduction: a dual-mode-aware DNN compiler for CIM accelerators.

This package reproduces the system described in *"Be CIM or Be Memory: A
Dual-mode-aware DNN Compiler for CIM Accelerators"* (ASPLOS 2025): a
compiler that decides, per network segment, how many of a CIM chip's
dual-mode arrays should operate in compute mode (holding weights and
executing MVMs in place) and how many in memory mode (serving as on-chip
scratchpad for activations and KV caches), then schedules the network onto
the chip and emits a dual-mode meta-operator flow.

Quickstart (the :class:`~repro.api.Session` facade is the public API)::

    from repro.api import Session

    session = Session(hardware="dynaplasia")
    program = session.compile("resnet18")
    print(program.summary())

Sub-packages:

* :mod:`repro.api` -- the stable :class:`Session` facade over
  compile / batch / DSE / cache
* :mod:`repro.ir` -- computation-graph IR (ONNX-like substrate)
* :mod:`repro.models` -- benchmark model zoo and workload descriptions
* :mod:`repro.hardware` -- dual-mode hardware abstraction (DEHA) and presets
* :mod:`repro.cost` -- latency and mode-switch cost models
* :mod:`repro.core` -- the CMSwitch compiler (DP segmentation + MIP allocation)
* :mod:`repro.pipeline` -- the pass-based compile pipeline the compilers run
* :mod:`repro.baselines` -- PUMA / OCC / CIM-MLC as pipeline configurations
* :mod:`repro.sim` -- functional and timing simulators
* :mod:`repro.analysis`, :mod:`repro.experiments` -- paper figure/table harness
* :mod:`repro.dse` -- cache-aware, multi-fidelity design-space
  exploration engine (each point is an analytical lower bound, or a
  plan compiled through :class:`CompileService`)
"""

from .api import Session
from .core.cache import AllocationCache
from .core.compiler import CMSwitchCompiler, CompilerOptions, NoFeasiblePlanError
from .core.store import DiskCacheStore
from .core.program import CompiledProgram, SegmentPlan
from .hardware import DualModeHardwareAbstraction, dynaplasia, get_preset, prime, small_test_chip
from .models import Phase, Workload, build_model, list_models
from .pipeline import Pipeline, PipelineContext, build_pipeline
from .service import CompileJob, CompileJobResult, CompileService

__version__ = "0.4.0"

__all__ = [
    "AllocationCache",
    "CMSwitchCompiler",
    "CompileJob",
    "CompileJobResult",
    "CompileService",
    "CompiledProgram",
    "CompilerOptions",
    "DiskCacheStore",
    "DualModeHardwareAbstraction",
    "NoFeasiblePlanError",
    "Phase",
    "Pipeline",
    "PipelineContext",
    "SegmentPlan",
    "Session",
    "Workload",
    "__version__",
    "build_model",
    "build_pipeline",
    "dynaplasia",
    "get_preset",
    "list_models",
    "prime",
    "small_test_chip",
]
