"""Name kept for the repository benchmark; there is one window table.

The per-run ``SolveMemo`` tier is gone — in its only caller it shadowed
:class:`~repro.core.cache.AllocationCache` entry for entry
(``docs/architecture.md``, "Why one window table").  The read-only
``bench/benchlib/tracing.py`` still wraps ``memo.SolveMemo.lookup`` by
name, so the name resolves to the one table until the benchmark hooks
through :mod:`repro.obs` (ROADMAP item 4a).  Nothing under ``src/``
imports this module.
"""

from .cache import AllocationCache as SolveMemo  # noqa: F401
