"""CMSwitch compiler core: segmentation, allocation, code generation."""

from .allocation import (
    AllocationCacheKey,
    AllocationCandidate,
    AllocationResult,
    ExactAllocator,
    GreedyAllocator,
    MIPAllocator,
    allocate_segment,
    candidate_allocations,
    refine_with_spare_arrays,
)
from .cache import AllocationCache, CacheStats
from .clock import SYSTEM_CLOCK, Clock, ManualClock
from .codegen import CodeGenerationError, generate_program
from .compiler import CMSwitchCompiler
from .metaop import (
    ComputeOp,
    MemoryReadOp,
    MemoryWriteOp,
    MetaOperator,
    MetaProgram,
    ParallelBlock,
    SwitchOp,
    SwitchType,
    WeightLoadOp,
)
from .program import CompiledProgram, SegmentPlan
from .store import DiskCacheStore, DiskStoreStats
from .segmentation import (
    CompilerOptions,
    FlattenedUnit,
    NetworkSegmenter,
    ProfiledOperator,
    assign_liveness,
    choose_plan,
    expand_profiled,
    flatten_graph,
    live_elements_at_boundary,
    plan_arrays,
    plan_cost,
    profile_graph,
)

__all__ = [
    "AllocationCache",
    "AllocationCacheKey",
    "AllocationCandidate",
    "AllocationResult",
    "CMSwitchCompiler",
    "CacheStats",
    "Clock",
    "CodeGenerationError",
    "CompiledProgram",
    "CompilerOptions",
    "ComputeOp",
    "DiskCacheStore",
    "DiskStoreStats",
    "FlattenedUnit",
    "ExactAllocator",
    "GreedyAllocator",
    "MIPAllocator",
    "ManualClock",
    "SYSTEM_CLOCK",
    "MemoryReadOp",
    "MemoryWriteOp",
    "MetaOperator",
    "MetaProgram",
    "NetworkSegmenter",
    "ParallelBlock",
    "ProfiledOperator",
    "SegmentPlan",
    "SwitchOp",
    "SwitchType",
    "WeightLoadOp",
    "allocate_segment",
    "assign_liveness",
    "candidate_allocations",
    "choose_plan",
    "expand_profiled",
    "flatten_graph",
    "generate_program",
    "live_elements_at_boundary",
    "plan_arrays",
    "plan_cost",
    "profile_graph",
    "refine_with_spare_arrays",
]
