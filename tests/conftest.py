"""Shared fixtures for the test suite.

Most compiler-level tests run against the deliberately small test chip and
the tiny synthetic models so the whole suite stays fast; a handful of
integration tests exercise the full DynaPlasia-sized configuration and the
real benchmark networks.

The zoo itself is compiled once per run, into the session-scoped
``corpus``: every zoo-wide property is a test over it
(``tests/test_corpus.py``), never a zoo loop of its own.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest
from hypothesis import settings
from oracle import latency_rows, reprice_segments

from repro.api import Session
from repro.baselines import COMPILERS
from repro.core import CMSwitchCompiler, CompiledProgram, CompilerOptions
from repro.core.allocation import UnitColumns, UnitWindow
from repro.core.segmentation import flatten_graph
from repro.cost.arithmetic import ProfileVectors
from repro.hardware import DualModeHardwareAbstraction, dynaplasia, prime, small_test_chip
from repro.ir import Graph
from repro.models import Phase, Workload, build_model, list_models
from repro.pipeline import FixedModeFallback


REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Tier-1 is a function of the tree: every hypothesis test draws the same
#: examples on every run of one checkout, with no random seed and no
#: example database carried over from an earlier run.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


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
    (:func:`oracle.reprice_segments` over the graph's flattened units)
    with ``==``, term by term.  A mismatch names the segment and the
    term; a plan the re-pricer rejects raises its ``ValueError``.
    Returns the re-priced segments' terms.
    """

    def check(program, graph, options):
        plan = [(segment.operator_names, segment.allocations) for segment in program.segments]
        units = flatten_graph(graph, program.hardware)
        repriced = reprice_segments(units, program.hardware, options, plan)
        for position, (ours, theirs) in enumerate(zip(program.segments, repriced)):
            for term in PRICED_TERMS:
                got, want = getattr(ours, term), getattr(theirs, term)
                assert got == want, f"segment {position}: {term} {got!r} != re-priced {want!r}"
        return repriced

    return check


def window_of(profiles, hardware):
    """A ``name -> profile`` mapping as an allocation window: columns built
    from exactly its profiles, in its order (``from conftest import
    window_of``)."""
    columns = UnitColumns(list(profiles.values()), hardware)
    return UnitWindow(columns, 0, len(columns))


def greedy_stop_violation(profiles, pairs, hardware, allow_memory_mode=False):
    """Why ``pairs`` (one ``(compute, memory)`` per profile of ``profiles``)
    is not where the greedy hand-out stops, or None where it is (``from
    conftest import greedy_stop_violation``).

    The rule: the chip is full, or one more array on the first
    maximum-latency operator — a compute array, or in dual mode also a
    memory array — lowers its Eq. 10 latency by at most 1e-9 cycles.
    """
    if sum(compute + memory for compute, memory in pairs) >= hardware.num_arrays:
        return None
    compute_time, supply_time = latency_rows(ProfileVectors(profiles, hardware), hardware)
    latencies = [max(compute_time[k, c], supply_time[k, m]) for k, (c, m) in enumerate(pairs)]
    k = latencies.index(max(latencies))
    compute, memory = pairs[k]
    grown = {"compute": max(compute_time[k, compute + 1], supply_time[k, memory])}
    if allow_memory_mode:
        grown["memory"] = max(compute_time[k, compute], supply_time[k, memory + 1])
    mode = min(grown, key=grown.get)
    if grown[mode] < latencies[k] - 1e-9:
        return (
            f"operator {k} at {pairs[k]} bounds the window at {latencies[k]!r} cycles, "
            f"one more {mode} array makes it {grown[mode]!r}, and the chip has "
            f"{hardware.num_arrays} arrays"
        )
    return None


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


@pytest.fixture
def asked_windows(monkeypatch):
    """Every ``AllocationCacheKey`` a window table is asked while the test
    runs, in order.  Without evictions a pass solves each distinct key
    once (unless a cross-mode hit answers it) and hits on the rest."""
    from repro.core.cache import AllocationCache

    asked = []
    real = AllocationCache.lookup

    def recording(self, key, inbound_arrays=0):
        asked.append(key)
        return real(self, key, inbound_arrays)

    monkeypatch.setattr(AllocationCache, "lookup", recording)
    return asked


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


@pytest.fixture
def check_trace():
    """``scripts/check_trace.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "check_trace", REPO / "scripts" / "check_trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------- #
# the corpus: the zoo compiled once per run
# ---------------------------------------------------------------------- #
#: The presets the zoo is compiled for.
CORPUS_CHIPS = ("dynaplasia", "prime", "small-test-chip")
#: The options of every zoo compile; a case states only where it differs.
CORPUS_OPTIONS = CompilerOptions(generate_code=True)
CORPUS_WORKLOAD = Workload(seq_len=32)
#: On the 8-array chip the LLaMA 2s, the OPTs and the VGGs partition into
#: thousands of one-unit segments (0.12-0.75 s per compile without a flow,
#: best of 3 on a 2-core machine; opt-13b and llama2-13b are the slowest).
#: There they enter the corpus as one CMSwitch compile without a flow; no
#: CI job compiles them any other way (ROADMAP item 5 is what brings them
#: in).
SMALL_CHIP_SKIPS = ("llama2", "opt-", "vgg")
#: The option matrix, CMSwitch on the tiny models and the test chip; code
#: generation is off unless an entry turns it on.
OPTION_MATRIX = (
    {},
    {"allow_memory_mode": False},
    {"allow_memory_mode": False, "refine": False},
    {"refine": False},
    {"use_milp": False},
    {"pipelined": False},
    {"include_switch_cost": False},
    {"max_segment_operators": 3},
    {"generate_code": True},
)
TINY_MODELS = ("tiny-mlp", "tiny-cnn", "tiny-transformer")


class Case(NamedTuple):
    """One corpus compile: ``model`` on preset ``chip`` by ``compiler``,
    with ``CORPUS_OPTIONS`` changed by the ``(field, value)`` pairs of
    ``overrides``."""

    model: str
    chip: str
    compiler: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, model, chip, compiler, options):
        overrides = tuple(
            (field.name, value)
            for field in dataclasses.fields(CompilerOptions)
            if (value := getattr(options, field.name)) != getattr(CORPUS_OPTIONS, field.name)
        )
        return cls(model, chip, compiler, overrides)

    @property
    def options(self) -> CompilerOptions:
        """The options asked for (a baseline pins some of them)."""
        return dataclasses.replace(CORPUS_OPTIONS, **dict(self.overrides))

    @property
    def heavy(self) -> bool:
        """A ``SMALL_CHIP_SKIPS`` family on the test chip: one CMSwitch
        compile without a flow, in the corpus for the program codec."""
        return _heavy(self.model, self.chip)

    @property
    def id(self) -> str:
        """``model@chip/compiler``, then ``:field=value,...`` for the overrides."""
        changed = ",".join(f"{name}={value}" for name, value in self.overrides)
        return f"{self.model}@{self.chip}/{self.compiler}" + (f":{changed}" if changed else "")


def _heavy(model: str, chip: str) -> bool:
    return chip == "small-test-chip" and model.startswith(SMALL_CHIP_SKIPS)


def _corpus_cases():
    cases = []
    for chip in CORPUS_CHIPS:
        for model in list_models():
            if _heavy(model, chip):
                cases.append(Case(model, chip, "cmswitch", (("generate_code", False),)))
            else:
                cases.extend(Case(model, chip, name) for name in COMPILERS)
    for model in TINY_MODELS:
        for overrides in OPTION_MATRIX:
            options = CompilerOptions(**{"generate_code": False, **overrides})
            case = Case.of(model, "small-test-chip", "cmswitch", options)
            if case not in cases:
                cases.append(case)
    return tuple(cases)


CORPUS_CASES = _corpus_cases()


class Entry(NamedTuple):
    """A compiled corpus case; ``options`` are the ones the compiler ran
    with (a baseline's pinned options)."""

    program: CompiledProgram
    graph: Graph
    hardware: DualModeHardwareAbstraction
    options: CompilerOptions


class Corpus:
    """``CORPUS_CASES`` compiled on first use, each once per run.

    One ``Session`` per chip compiles every case of that chip, so the
    cases share one window table and one program table.  Index it with a
    ``Case`` (``corpus[case]``) or look a compile up by its parts
    (``corpus.find(model, chip, compiler, options)``).
    """

    #: The workload every corpus graph is built at.
    workload = CORPUS_WORKLOAD

    def __init__(self) -> None:
        self.sessions = {chip: Session(hardware=chip) for chip in CORPUS_CHIPS}
        self._graphs = {}
        self._entries = {}

    def graph(self, model: str) -> Graph:
        if model not in self._graphs:
            self._graphs[model] = build_model(model, self.workload)
        return self._graphs[model]

    def models(self, chip: str):
        """The models all four compilers compile on ``chip``, in registry order."""
        return [
            case.model for case in CORPUS_CASES
            if case.chip == chip and case.compiler == "occ" and not case.overrides
        ]

    def __getitem__(self, case: Case) -> Entry:
        if case not in self._entries:
            if case not in CORPUS_CASES:
                raise KeyError(f"{case.id} is not a corpus case")
            session, graph = self.sessions[case.chip], self.graph(case.model)
            program = session.compile(graph, options=case.options, compiler=case.compiler)
            options = COMPILERS[case.compiler].pin_options(case.options)
            self._entries[case] = Entry(program, graph, session.hardware, options)
            # Corpus programs live for the whole run: frozen, they are not
            # re-scanned by every later full collection (seconds of GC).
            gc.freeze()
        return self._entries[case]

    def find(self, model, chip, compiler="cmswitch", options=CORPUS_OPTIONS) -> Entry:
        return self[Case.of(model, chip, compiler, options)]


@pytest.fixture(scope="session")
def corpus():
    """The zoo compiled once per run (:class:`Corpus`)."""
    return Corpus()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "corpus(predicate): parametrise the test's ``case`` argument over the "
        "corpus cases the predicate accepts (every case without one)",
    )
    config.addinivalue_line(
        "markers", "option_matrix: parametrise the test's ``overrides`` over OPTION_MATRIX"
    )


def pytest_generate_tests(metafunc):
    marker = metafunc.definition.get_closest_marker("corpus")
    if marker is not None:
        accepts = marker.args[0] if marker.args else (lambda case: True)
        cases = [case for case in CORPUS_CASES if accepts(case)]
        metafunc.parametrize("case", cases, ids=[case.id for case in cases])
    if metafunc.definition.get_closest_marker("option_matrix") is not None:
        metafunc.parametrize("overrides", OPTION_MATRIX)
