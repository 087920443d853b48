"""Shared fixtures for the test suite.

Most compiler-level tests run against the deliberately small test chip and
the tiny synthetic models so the whole suite stays fast; a handful of
integration tests exercise the full DynaPlasia-sized configuration and the
real benchmark networks.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import CMSwitchCompiler, CompilerOptions
from repro.hardware import dynaplasia, prime, small_test_chip
from repro.models import Phase, Workload, build_model
from repro.pipeline import FixedModeFallback


REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


class RecordingOracle(FixedModeFallback):
    """The fixed-mode oracle pass; keeps the context of the compile it last ran in."""

    context = None

    def run(self, ctx):
        super().run(ctx)
        self.context = ctx


class WithOracle(CMSwitchCompiler):
    """CMSwitch's passes with the oracle after ``allocate`` (``passes[4]``)."""

    passes = (
        *CMSwitchCompiler.passes[:4], RecordingOracle(), *CMSwitchCompiler.passes[4:]
    )


@pytest.fixture(scope="session")
def with_oracle():
    """A compiler class: the default passes plus the opt-in fixed-mode oracle.

    ``with_oracle.passes[4].context`` is the last oracle compile's context
    (``segments``, ``segmenters``, ``fallback_used``).
    """
    return WithOracle


#: The priced fields of a ``SegmentPlan``, compared in this order.
PRICED_TERMS = (
    "index", "intra_cycles", "inter_breakdown", "inter_cycles", "resources",
    "boundary_memory_arrays", "profiles",
)


@pytest.fixture(scope="session")
def assert_repriced():
    """``check(program, graph, options)``: every segment of ``program``
    equals its re-pricing by the cost model
    (:func:`repro.core._reference.reprice_segments`) with ``==``, term
    by term.  A mismatch names the segment and the term; a plan the
    re-pricer rejects raises its ``ValueError``.  Returns the re-priced
    segments.
    """
    from repro.core._reference import reprice_segments

    def check(program, graph, options):
        plan = [(segment.operator_names, segment.allocations) for segment in program.segments]
        repriced = reprice_segments(graph, program.hardware, options, plan)
        for position, (ours, theirs) in enumerate(zip(program.segments, repriced)):
            for term in PRICED_TERMS:
                got, want = getattr(ours, term), getattr(theirs, term)
                assert got == want, f"segment {position}: {term} {got!r} != re-priced {want!r}"
        return repriced

    return check


@pytest.fixture(scope="session")
def small_chip():
    """The 8-array test chip."""
    return small_test_chip()


@pytest.fixture(scope="session")
def dynaplasia_chip():
    """The paper's DynaPlasia-like target (Table 2)."""
    return dynaplasia()

@pytest.fixture(scope="session")
def prime_chip():
    """The PRIME-like ReRAM target of the scalability study."""
    return prime()


@pytest.fixture(scope="session")
def tiny_mlp_graph():
    """Three-layer MLP."""
    return build_model("tiny-mlp", Workload(batch_size=1))


@pytest.fixture(scope="session")
def tiny_cnn_graph():
    """Four-convolution CNN at 32x32."""
    return build_model("tiny-cnn", Workload(batch_size=1))


@pytest.fixture(scope="session")
def tiny_transformer_graph():
    """Two-block, 128-hidden transformer at sequence length 16."""
    return build_model("tiny-transformer", Workload(batch_size=1, seq_len=16))


@pytest.fixture(scope="session")
def tiny_transformer_decode_graph():
    """Tiny transformer single decode step with a KV cache of 16 tokens."""
    return build_model(
        "tiny-transformer", Workload(batch_size=1, seq_len=16, phase=Phase.DECODE)
    )


@pytest.fixture(scope="session")
def compiled_tiny_cnn(small_chip, tiny_cnn_graph):
    """Tiny CNN compiled for the small chip with code generation enabled."""
    return CMSwitchCompiler(small_chip, CompilerOptions(generate_code=True)).compile(
        tiny_cnn_graph
    )


@pytest.fixture(scope="session")
def compiled_tiny_transformer(small_chip, tiny_transformer_graph):
    """Tiny transformer compiled for the small chip."""
    return CMSwitchCompiler(small_chip, CompilerOptions(generate_code=True)).compile(
        tiny_transformer_graph
    )


@pytest.fixture(scope="session")
def resnet18_graph():
    """ResNet-18 at ImageNet resolution (used by a few integration tests)."""
    return build_model("resnet18", Workload(batch_size=1))


@pytest.fixture
def graph_serialisations(monkeypatch):
    """Names of the graphs ``graph_to_json`` serialises while the test runs.

    Every loaded ``repro`` module that bound the function is patched, not
    only :mod:`repro.ir.serialization`, so a caller that imported the name
    directly is counted too.
    """
    from repro.ir import serialization

    calls = []
    real = serialization.graph_to_json

    def counting(graph, *args, **kwargs):
        calls.append(graph.name)
        return real(graph, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "graph_to_json", None) is real:
            monkeypatch.setattr(module, "graph_to_json", counting)
    return calls


@pytest.fixture(scope="session")
def cli_process():
    """Run ``python -m repro.cli ARGS...`` in a fresh interpreter.

    For properties about a *second process*: a warm start from a program
    store another process wrote, a same-seed replay in another process.
    Returns the :class:`subprocess.CompletedProcess` (text mode).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *map(str, args)],
            capture_output=True, text=True, env=env, timeout=300,
        )

    return run


def _load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def check_trace():
    """``scripts/check_trace.py`` as a module."""
    return _load_module(REPO / "scripts" / "check_trace.py", "check_trace")


@pytest.fixture
def bench_script(monkeypatch):
    """Load ``benchmarks/<name>.py`` in-process to call its ``--quick`` smokes.

    The scripts import their own ``conftest`` by name, so the benchmark
    harness's ``conftest`` stands in for this one while the test runs.
    """
    monkeypatch.setitem(
        sys.modules, "conftest", _load_module(REPO / "benchmarks" / "conftest.py", "conftest")
    )
    return lambda name: _load_module(REPO / "benchmarks" / f"{name}.py", name)
