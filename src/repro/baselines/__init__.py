"""Baseline CIM compilers used in the paper's comparison (Fig. 14).

Each baseline is a configuration of the shared pass pipeline
(:mod:`repro.pipeline`): CIM-MLC is the CMSwitch pipeline with memory
mode pinned off; PUMA and OCC swap in their own segmentation and
allocation passes (:mod:`repro.baselines.passes`) and reuse the rest.
"""

from ..core.compiler import CMSwitchCompiler
from .base import BaselineCompiler
from .cim_mlc import CIMMLCCompiler
from .occ import OCCCompiler
from .passes import BaselineAllocate, BaselineCodegen, BaselineSegment
from .puma import PUMACompiler

__all__ = [
    "COMPILERS",
    "BaselineAllocate",
    "BaselineCodegen",
    "BaselineCompiler",
    "BaselineSegment",
    "CIMMLCCompiler",
    "OCCCompiler",
    "PUMACompiler",
    "get_compiler",
]

#: The one compiler registry: name -> class.  Every class is built the
#: same way, ``cls(hardware, options, cache=, obs=)``.
COMPILERS = {
    cls.name: cls
    for cls in (CMSwitchCompiler, CIMMLCCompiler, PUMACompiler, OCCCompiler)
}


def get_compiler(name: str, hardware, options=None, cache=None, obs=None):
    """Build a compiler (baseline or CMSwitch) by name.

    Application code compiles by name through
    :meth:`repro.api.Session.compile` (``compiler=``), which resolves
    the name here on a program-table miss.

    Args:
        name: One of ``"cmswitch"``, ``"cim-mlc"``, ``"puma"``, ``"occ"``.
        hardware: Hardware abstraction to target.
        options: :class:`~repro.core.compiler.CompilerOptions`; a
            baseline pins the fields its strategy fixes.
        cache: Shared :class:`~repro.core.cache.AllocationCache` (only
            the compilers that solve windows read it).
        obs: Optional :class:`~repro.obs.Observability` bundle.

    Raises:
        KeyError: If the compiler name is unknown (the message lists the
            registered names).
    """
    if name not in COMPILERS:
        raise KeyError(f"unknown compiler {name!r}; known: {', '.join(sorted(COMPILERS))}")
    return COMPILERS[name](hardware, options, cache=cache, obs=obs)
