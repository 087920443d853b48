"""Baseline CIM compilers used in the paper's comparison (Fig. 14).

Each baseline is a subclass of the CMSwitch compiler with memory mode
pinned off.  CIM-MLC inherits its pass tuple, DP included; PUMA and OCC
run the greedy engine and put a :class:`BoundaryPolicySegment` in the
``segment`` slot of that tuple, so their plans come from the same plan
builder as everyone else's.
"""

from ..core.compiler import CMSwitchCompiler
from .base import BaselineCompiler, BoundaryPolicySegment
from .cim_mlc import CIMMLCCompiler
from .occ import OCCCompiler
from .puma import PUMACompiler

__all__ = [
    "COMPILERS",
    "BaselineCompiler",
    "BoundaryPolicySegment",
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
        cache: Shared :class:`~repro.core.cache.AllocationCache`; every
            registered compiler solves its windows through it, and builds
            its own, once, when it is omitted.
        obs: Optional :class:`~repro.obs.Observability` bundle.

    Raises:
        KeyError: If the compiler name is unknown (the message lists the
            registered names).
    """
    if name not in COMPILERS:
        raise KeyError(f"unknown compiler {name!r}; known: {', '.join(sorted(COMPILERS))}")
    return COMPILERS[name](hardware, options, cache=cache, obs=obs)
