"""Dependencies point one way: the compiler layers never import the serving
ones, and below the CLI nothing reaches up into ``repro.serve``."""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LOWER = ("core", "cost", "ir", "hardware", "pipeline", "obs")
UPPER = ("repro.serve", "repro.service", "repro.api", "repro.cli")


def _imported_modules(path: Path):
    """Absolute dotted names of everything ``path`` imports (at any depth)."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            # ``from .. import api`` names the module in the alias.
            for alias in node.names:
                yield f"{module}.{alias.name}"


@pytest.mark.parametrize("layer", LOWER)
def test_lower_layer_never_imports_the_serving_layers(layer):
    offenders = [
        f"{path.relative_to(SRC)} -> {module}"
        for path in sorted((SRC / "repro" / layer).rglob("*.py"))
        for module in _imported_modules(path)
        if any(module == upper or module.startswith(upper + ".") for upper in UPPER)
    ]
    assert not offenders, offenders


def test_only_the_cli_imports_the_serve_package():
    serve = SRC / "repro" / "serve"
    importers = sorted(
        {
            str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            if serve not in path.parents
            for module in _imported_modules(path)
            if module == "repro.serve" or module.startswith("repro.serve.")
        }
    )
    assert importers == ["repro/cli.py"]


def test_numpy_is_the_only_third_party_import():
    third_party = sorted(
        {
            f"{path.relative_to(SRC)} -> {module}"
            for path in (SRC / "repro").rglob("*.py")
            for module in _imported_modules(path)
            if (top := module.split(".")[0]) not in sys.stdlib_module_names
            and top not in ("repro", "numpy")
        }
    )
    assert not third_party, third_party


def test_nothing_imports_a_worker_pool():
    """A batch is a loop: several cores are used by running several
    ``repro`` processes over one ``cache_dir``, never by a pool in here."""
    pools = ("concurrent.futures", "multiprocessing")
    offenders = sorted(
        {
            f"{path.relative_to(SRC)} -> {module}"
            for path in (SRC / "repro").rglob("*.py")
            for module in _imported_modules(path)
            if any(module == pool or module.startswith(pool + ".") for pool in pools)
        }
    )
    assert not offenders, offenders


def test_there_is_one_window_table():
    """``core/memo.py`` is a name for the benchmark's hooks, not a table:
    nothing in the package imports it and it defines nothing."""
    memo = SRC / "repro" / "core" / "memo.py"
    importers = sorted(
        {
            str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            for module in _imported_modules(path)
            if module == "repro.core.memo"
        }
    )
    assert not importers, importers
    definitions = [
        node
        for node in ast.walk(ast.parse(memo.read_text(encoding="utf-8")))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert not definitions

    from repro.api import Session
    from repro.core.allocation import allocate_segment
    from repro.core.cache import AllocationCache
    from repro.core.segmentation import NetworkSegmenter
    from repro.pipeline import PipelineContext
    from repro.service import CompileService

    assert "memo" not in inspect.signature(allocate_segment).parameters
    # No table is injected above the compiler, and its bound is no knob.
    for owner in (CompileService, Session):
        assert "cache" not in inspect.signature(owner).parameters, owner
    assert "max_entries" not in inspect.signature(AllocationCache).parameters
    # Below it, every window is solved through a table the caller names.
    for needs_table in (allocate_segment, NetworkSegmenter, PipelineContext):
        cache = inspect.signature(needs_table).parameters["cache"]
        assert cache.default is inspect.Parameter.empty, needs_table
    # No second table or pass-through beside it, and no uncached branch.
    for path in (SRC / "repro").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for gone in ("_allocation_cache", "make_key", "lookup_segment"):
            assert gone not in text, (path.relative_to(SRC), gone)
    for module in ("allocation.py", "segmentation.py"):
        text = (SRC / "repro" / "core" / module).read_text(encoding="utf-8")
        assert "cache is None" not in text and "cache is not None" not in text, module


def test_every_in_memory_table_is_one_bounded_lru():
    """LRU bookkeeping lives in ``core/lru.py`` alone, and the daemon's
    result table is its request table's retained flights."""
    users = sorted(
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        if any(
            mark in path.read_text(encoding="utf-8")
            for mark in ("popitem(last=False)", "move_to_end")
        )
    )
    assert users == ["repro/core/lru.py"]
    from repro.serve import daemon

    assert not hasattr(daemon, "ResultTable")
    assert not any(
        "ResultTable" in path.read_text(encoding="utf-8")
        for path in (SRC / "repro").rglob("*.py")
    )


def test_figures_and_the_cli_compile_through_the_session():
    """One compile path: the experiment runners, the analyses, the DSE
    and the CLI name a compiler (``Session.compile(compiler=)``, a
    ``CompileJob`` for the service), never construct one."""
    from repro.baselines import COMPILERS, BaselineCompiler

    classes = {cls.__name__ for cls in COMPILERS.values()} | {BaselineCompiler.__name__}
    paths = [
        *sorted((SRC / "repro" / "experiments").rglob("*.py")),
        *sorted((SRC / "repro" / "analysis").rglob("*.py")),
        *sorted((SRC / "repro" / "dse").rglob("*.py")),
        SRC / "repro" / "cli.py",
    ]
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in classes
    ]
    assert not offenders, offenders


def test_there_is_one_service_configuration(capsys):
    """Every compile walks the one tier order — recipe memo, program
    table, store, pipeline: no constructor takes a switch that turns the
    tiers off, and ``compile-batch`` has no ``--no-cache``.  A cold
    compile is a fresh ``Session``."""
    from repro.api import Session
    from repro.cli import main
    from repro.serve import CompileDaemon
    from repro.service import CompileService

    for cls in (CompileService, Session, CompileDaemon):
        assert "use_cache" not in inspect.signature(cls).parameters, cls.__name__
    with pytest.raises(SystemExit):
        main(["compile-batch", "--help"])
    assert "--no-cache" not in capsys.readouterr().out
    users = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*"))
        if path.is_file()
        and "__pycache__" not in path.parts
        and b"use_cache" in path.read_bytes()
    ]
    assert not users, users


def test_a_named_compile_builds_its_graph_in_one_place():
    """One named-compile path: ``CompileService.compile(job)`` and
    ``Session.compile("name")`` hand ``compile_graph`` a ``ModelRecipe``.
    Across ``service.py`` and ``api.py`` exactly one call builds a
    registered model — ``ModelRecipe.build`` running the builder object
    the recipe memo is keyed on — and nothing calls ``build_model``; the
    memo is a ``BoundedLRU``."""
    from repro.core.lru import BoundedLRU
    from repro.service import PROGRAM_TABLE_ENTRIES, CompileService

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in ("build_model", "builder"):
                    yield f"{scope}: {name}"
            yield from calls(child, inner)

    sites = [
        f"{module}::{site}"
        for module in ("service.py", "api.py")
        for site in calls(ast.parse((SRC / "repro" / module).read_text(encoding="utf-8")), "")
    ]
    assert sites == ["service.py::ModelRecipe.build: builder"], sites
    assert not any(
        module.startswith("repro.models.registry")
        for module in _imported_modules(SRC / "repro" / "api.py")
    )
    memo = CompileService().recipes
    assert isinstance(memo, BoundedLRU) and memo.max_entries == PROGRAM_TABLE_ENTRIES


def test_a_design_point_is_a_compile_service_call():
    """No evaluator layer between the DSE and ``CompileService``: the
    ``repro.eval`` package is gone and nothing imports it."""
    assert not list((SRC / "repro" / "eval").rglob("*.py"))
    importers = sorted(
        {
            str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            for module in _imported_modules(path)
            if module == "repro.eval" or module.startswith("repro.eval.")
        }
    )
    assert not importers, importers


def test_one_loop_runs_a_compilers_passes():
    """A compiler is its ``passes`` tuple and ``CMSwitchCompiler.compile``
    is the one loop over it: no second runner (the deleted ``Pipeline``)
    and no constructor knob that swaps the tuple."""
    import inspect

    import repro.pipeline
    from repro.core import CMSwitchCompiler

    loops = [
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Attribute)
        and node.iter.attr == "passes"
    ]
    assert loops == ["repro/core/compiler.py"]
    assert list(inspect.signature(CMSwitchCompiler).parameters) == [
        "hardware", "options", "cache", "obs",
    ]
    for gone in ("Pipeline", "build_pipeline", "default_passes", "finalize"):
        assert not hasattr(repro.pipeline, gone), gone
    assert not (SRC / "repro" / "pipeline" / "pipeline.py").exists()


def test_plans_have_one_builder():
    """Every compiler's plans come from ``NetworkSegmenter.build_plans``:
    ``SegmentPlan`` is built there, in the program decoder and in the
    independent oracle, and nowhere else."""
    builders = sorted(
        {
            str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            == "SegmentPlan"
        }
    )
    assert builders == [
        "repro/core/_reference.py",
        "repro/core/program.py",
        "repro/core/segmentation.py",
    ]


def test_only_the_passes_compose_the_dp_and_the_plan_builder():
    """``choose_boundaries`` and ``build_plans`` are called from the
    pipeline passes alone: no second flatten → DP → plans loop."""
    callers = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in (SRC / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("choose_boundaries", "build_plans")
        and path.relative_to(SRC).as_posix() != "repro/pipeline/passes.py"
    )
    assert not callers, callers


def test_there_is_one_options_type():
    """One compile driver reads one options type: the segmenter takes
    ``CompilerOptions`` (defined next to it, re-exported by the compiler
    facade), the pipeline passes are the only composition of flatten →
    DP → plans, and chip fit has one rule (the compute floors).  The
    options stay declarative: runtime objects (a cache, an obs bundle)
    travel as constructor arguments, and every field takes part in
    equality and repr."""
    import repro.core
    from repro.core import CompilerOptions, NetworkSegmenter
    from repro.core import compiler, segmentation

    for gone in ("SegmentationOptions", "SegmentationResult", "FeasibilityModel"):
        assert not hasattr(repro.core, gone), gone
        assert gone not in repro.core.__all__, gone
    assert not hasattr(NetworkSegmenter, "segment")
    assert not (SRC / "repro" / "core" / "feasibility.py").exists()
    assert compiler.CompilerOptions is segmentation.CompilerOptions is CompilerOptions
    fields = dataclasses.fields(CompilerOptions)
    assert len(fields) == 7
    for field in fields:
        assert field.compare and field.repr, field.name


def test_every_cost_name_has_a_caller_in_src():
    """``repro.cost`` exports only what the program reads: every name in
    its ``__all__`` is loaded somewhere under ``src/repro`` outside
    ``cost/__init__.py`` (a ``def`` or ``class`` statement is not a use),
    and no cost function keeps a knob only tests ever set."""
    import importlib
    import pkgutil

    import repro.cost

    reads = set()
    for path in (SRC / "repro").rglob("*.py"):
        if path == SRC / "repro" / "cost" / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    assert sorted(set(repro.cost.__all__) - reads) == []

    knobs = {"d_main_share", "include_offchip_transfer", "parameters"}
    offenders = []
    for info in pkgutil.iter_modules(repro.cost.__path__):
        module = importlib.import_module(f"repro.cost.{info.name}")
        for name, member in vars(module).items():
            if getattr(member, "__module__", None) != module.__name__:
                continue
            functions = [member] if inspect.isfunction(member) else []
            if inspect.isclass(member):
                functions = [f for f in vars(member).values() if inspect.isfunction(f)]
            for function in functions:
                taken = knobs & set(inspect.signature(function).parameters)
                offenders.extend(
                    f"{module.__name__}.{function.__qualname__}: {knob}" for knob in taken
                )
    assert not offenders, offenders


#: The ``repro.dse`` exports that nothing in ``src/``, ``bench/``,
#: ``scripts/`` or ``examples/`` reads: public entry points for library
#: users, each documented in ``docs/dse.md``.
DOCUMENTED_DSE_API = {"run_dse"}


def test_every_dse_name_has_a_caller_or_is_documented():
    """``repro.dse`` exports only what the program, the benchmark, the
    scripts or the examples read, or a documented entry point: every name
    in its ``__all__`` is loaded somewhere under those trees outside
    ``dse/__init__.py``, or is in :data:`DOCUMENTED_DSE_API`, whose every
    member ``docs/dse.md`` names."""
    import repro.dse

    reads = set()
    for root in ("src", "bench", "scripts", "examples"):
        for path in (SRC.parent / root).rglob("*.py"):
            if path == SRC / "repro" / "dse" / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
    assert sorted(set(repro.dse.__all__) - reads - DOCUMENTED_DSE_API) == []
    assert DOCUMENTED_DSE_API <= set(repro.dse.__all__)
    guide = (SRC.parent / "docs" / "dse.md").read_text(encoding="utf-8")
    assert [name for name in sorted(DOCUMENTED_DSE_API) if f"{name}(" not in guide] == []


def test_there_is_one_flow_interpreter():
    """One walk of the meta-operator flow: ``sim/timing.py`` applies it to
    the one chip state machine, and the functional simulator takes its
    switch accounting from that walk.  Only codegen (which places arrays)
    and the interpreter build a ``CIMChip``; outside ``core/metaop.py``
    only the interpreter reads ``MetaProgram.items``."""
    chips, walks = set(), set()
    for path in (SRC / "repro").rglob("*.py"):
        name = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            ) == "CIMChip":
                chips.add(name)
            # ``.items()`` is a dict's; a bare ``.items`` is the flow's.
            elif isinstance(node, ast.Attribute) and node.attr == "items":
                if id(node) not in called:
                    walks.add(name)
    assert sorted(chips) == ["repro/core/codegen.py", "repro/sim/timing.py"]
    assert sorted(walks) == ["repro/core/metaop.py", "repro/sim/timing.py"]


def test_a_replay_reads_the_trace_columns():
    """A trace is columns and a replay reads them: no per-request
    program index is rebuilt (``_index_programs`` is gone), ``Trace``
    keeps no list of ``TraceRequest`` records, the pool is the trace's
    table, and ``sim/replay.py`` never reads ``trace.requests``."""
    import repro.sim.replay as replay_module
    from repro.sim.traces import Trace, TraceRequest, poisson_trace

    assert not hasattr(replay_module, "_index_programs")
    assert list(inspect.signature(replay_module.ReplaySimulator.compile_pool).parameters) == [
        "self", "trace",
    ]
    trace = poisson_trace(["tiny-mlp", "tiny-cnn"], num_requests=20, seed=1)
    assert not hasattr(trace, "__dict__")
    for slot in Trace.__slots__:
        value = getattr(trace, slot)
        assert not isinstance(value, list), slot
        if isinstance(value, tuple):
            assert not any(isinstance(item, TraceRequest) for item in value), slot
    path = SRC / "repro" / "sim" / "replay.py"
    reads = [
        ast.unparse(node)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr == "requests"
        and ast.unparse(node.value).split(".")[-1] == "trace"
    ]
    assert not reads, reads


def test_every_graph_has_a_plan_so_no_code_handles_none():
    """Partitioning makes every unit fit the chip, so a graph without a
    plan is not an outcome: no exception type, branch or verdict for it
    exists in the package (``tests/test_partition_guarantee.py`` pins the
    guarantee; a unit over the chip is the segmenter's ``ValueError``)."""
    users = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*"))
        if path.is_file()
        and "__pycache__" not in path.parts
        and b"NoFeasiblePlanError" in path.read_bytes()
    ]
    assert not users, users
