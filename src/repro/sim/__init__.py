"""Functional and timing simulators for compiled dual-mode CIM programs."""

from .functional import (
    FunctionalReport,
    FunctionalSimulationError,
    FunctionalSimulator,
    OperatorCheck,
    execute_tiled_matmul,
)
from .metrics import ReplayMetrics, compute_metrics
from .reference import ReferenceExecutor, ReferenceExecutionError, deterministic_tensor
from .replay import ReplayResult, ReplaySimulator, RequestOutcome, replay_schedule
from .timing import FlowError, TimingBreakdown, TimingReport, TimingSimulator
from .traces import (
    Trace,
    TraceFormatError,
    TraceRequest,
    load_trace,
    save_trace,
    synthetic_trace,
)

__all__ = [
    "FlowError",
    "FunctionalReport",
    "FunctionalSimulationError",
    "FunctionalSimulator",
    "OperatorCheck",
    "ReferenceExecutionError",
    "ReferenceExecutor",
    "ReplayMetrics",
    "ReplayResult",
    "ReplaySimulator",
    "RequestOutcome",
    "TimingBreakdown",
    "TimingReport",
    "TimingSimulator",
    "Trace",
    "TraceFormatError",
    "TraceRequest",
    "compute_metrics",
    "deterministic_tensor",
    "execute_tiled_matmul",
    "load_trace",
    "replay_schedule",
    "save_trace",
    "synthetic_trace",
]
