"""Read-only containers of a sealed graph.

:meth:`repro.ir.graph.Graph.digest` seals the graph it digests: from then
on the graph's ``metadata``, ``graph_inputs`` / ``graph_outputs`` and every
operator's ``attrs`` are these containers, whose mutators raise
:class:`~repro.ir.graph.GraphError` instead of silently making the digest
(and every program key built from it) stale.  Nested dictionaries and
lists are sealed too.  They stay ``dict`` / ``list`` subclasses, so reading,
``dict(...)`` / ``list(...)`` copies and ``json.dumps`` work unchanged, and
:func:`thawed` turns them back into plain containers for
:meth:`~repro.ir.graph.Graph.to_dict`.
"""

from __future__ import annotations

__all__ = ["SealedDict", "SealedList", "frozen", "sealed_error", "thawed"]


def sealed_error(what: str):
    """The :class:`~repro.ir.graph.GraphError` of a write to a sealed graph."""
    from .graph import GraphError

    return GraphError(
        f"{what} is read-only: the graph was sealed when it was digested to "
        "key a compile, and an in-place edit would leave that key stale; edit "
        "a copy made with Graph.from_dict(graph.to_dict())"
    )


def _refuse(self, *args, **kwargs):
    raise sealed_error(self._what)


class SealedDict(dict):
    """A ``dict`` whose every mutator raises."""

    _what = "this mapping (graph metadata or operator attrs)"
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return SealedDict, (dict(self),)


class SealedList(list):
    """A ``list`` whose every mutator raises."""

    _what = "this list (graph inputs, outputs or a nested value)"
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = clear = extend = insert = pop = remove = reverse = sort = _refuse

    def __reduce__(self):
        return SealedList, (list(self),)


def frozen(value):
    """``value`` with every nested ``dict`` / ``list`` sealed (a copy)."""
    if isinstance(value, dict):
        return SealedDict({key: frozen(item) for key, item in value.items()})
    if isinstance(value, list):
        return SealedList([frozen(item) for item in value])
    return value


def thawed(value):
    """``value`` with every nested ``dict`` / ``list`` a plain, fresh copy."""
    if isinstance(value, dict):
        return {key: thawed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [thawed(item) for item in value]
    return value
