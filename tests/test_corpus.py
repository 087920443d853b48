"""Zoo-wide properties: each one test over the corpus.

The ``corpus`` fixture (``tests/conftest.py``) compiles the zoo once per
run: every registered model on three presets by the four compilers,
with code generation on, plus the option matrix on the tiny models.
The ``SMALL_CHIP_SKIPS`` families enter on the test chip as one CMSwitch
compile without a flow (``case.heavy``).
Each property below is parametrised over the corpus cases it applies to
(``@pytest.mark.corpus(predicate)``), one test id per
``model@chip/compiler``, and reads the compiled ``(program, graph,
hardware, options)``; none compiles a program of its own.  The first is
a property of the registry, one id per model: it reads only the
corpus's graphs.
"""

import json
import math
from dataclasses import asdict, replace

import pytest
from conftest import CORPUS_CASES, greedy_stop_violation

from repro.baselines import COMPILERS
from repro.core.codegen import generate_program
from repro.core.program import program_from_payload, program_to_payload
from repro.core.segmentation import flatten_graph
from repro.cost.arithmetic import ProfileVectors, profile_signature
from repro.ir import MatmulDims, tile_counts
from repro.models import build_model, list_models
from repro.sim import TimingSimulator


@pytest.mark.parametrize("model", list_models())
def test_a_model_builds_the_same_graph_twice(model, corpus):
    """A registered builder is a pure function of its workload.  The
    compile service's recipe memo relies on it: it keeps one graph digest
    per (name, builder, workload) and never builds that recipe again."""
    assert build_model(model, corpus.workload).digest() == corpus.graph(model).digest()


@pytest.mark.parametrize("model", list_models())
def test_every_unit_fits_a_one_to_three_array_chip(model, corpus):
    """Partitioning is why every graph has a plan: on each preset cut to
    1, 2 or 3 arrays, every flattened unit's compute floor is in
    ``[1, num_arrays]``.  Flattening only, no compile; the
    ``SMALL_CHIP_SKIPS`` families skip the test chip (seconds each)."""
    for chip, session in corpus.sessions.items():
        if model not in corpus.models(chip):
            continue
        for num_arrays in (1, 2, 3):
            hardware = replace(session.hardware, num_arrays=num_arrays)
            units = flatten_graph(corpus.graph(model), hardware)
            floors = ProfileVectors([unit.profile for unit in units], hardware).floors
            assert 1 <= floors.min() and floors.max() <= num_arrays, (chip, num_arrays)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 22: the compute floor counts capacity, ceil(K*N / (rows*cols)), "
    "not weight tiles, so a plan can hold fewer compute arrays than its tiles",
)
def test_every_cmswitch_allocation_holds_its_weight_tiles(corpus):
    """A compute array holds one ``rows x cols`` weight tile
    (``ir/transforms.tile_counts``), so every operator of every CMSwitch
    zoo plan needs at least as many compute arrays as tiles.
    One test over the zoo's default-option programs (the option matrix
    left out), so the expected failure is one ``xfail``."""
    short, programs = {}, 0
    for case in CORPUS_CASES:
        if case.compiler != "cmswitch" or (case.overrides and not case.heavy):
            continue
        programs += 1
        program, _, hardware, _ = corpus[case]
        for segment in program.segments:
            for name, profile, (compute, _) in zip(
                segment.operator_names, segment.profiles, segment.pairs
            ):
                tiles = math.prod(tile_counts(
                    MatmulDims(1, profile.matmul_k, profile.matmul_n),
                    hardware.array_rows, hardware.array_cols,
                ))
                if compute < tiles:
                    short.setdefault(case.id, []).append((name, compute, tiles))
    allocations = sum(len(names) for names in short.values())
    assert not short, (
        f"{len(short)} of {programs} programs put {allocations} operators on fewer "
        f"compute arrays than weight tiles: {sorted(short)}"
    )


@pytest.mark.corpus(lambda case: not case.heavy)
def test_plan_reprices_exactly(case, corpus, assert_repriced):
    """Every segment equals its re-pricing by the cost model, term by term."""
    program, graph, _, options = corpus[case]
    assert_repriced(program, graph, options)


@pytest.mark.corpus(lambda case: case.options.generate_code)
def test_flow_replays_legally(case, corpus):
    """The meta-operator flow makes only legal array claims: the flow
    interpreter walks it without a ``FlowError``."""
    program, _, hardware, _ = corpus[case]
    assert TimingSimulator(hardware).run(program).total_cycles > 0


@pytest.mark.corpus(lambda case: case.compiler in ("puma", "occ"))
def test_a_baseline_plan_has_its_policys_boundaries(case, corpus):
    """PUMA's and OCC's segments are the windows their boundary policy
    draws over the flattened units."""
    program, graph, hardware, _ = corpus[case]
    units = flatten_graph(graph, hardware)
    segment = next(p for p in COMPILERS[case.compiler].passes if p.name == "segment")
    assert [plan.operator_names for plan in program.segments] == [
        [unit.name for unit in units[first : last + 1]]
        for first, last in segment.policy(units, hardware)
    ]


@pytest.mark.corpus(lambda case: case.compiler in ("puma", "occ"))
def test_a_baseline_allocates_in_compute_mode_at_or_above_the_floors(case, corpus):
    """A fixed-mode plan holds no memory-mode array, boundary buffers
    included, and no operator below its compute floor."""
    program, _, hardware, _ = corpus[case]
    for segment in program.segments:
        assert segment.boundary_memory_arrays == 0 == segment.resources.memory_arrays
        for name, profile, (compute, memory) in zip(
            segment.operator_names, segment.profiles, segment.pairs
        ):
            assert memory == 0, (segment.index, name)
            assert compute >= profile.compute_floor(hardware)


@pytest.mark.corpus(lambda case: case.compiler in ("puma", "occ"))
def test_a_baseline_window_stops_at_the_greedy_rule(case, corpus):
    """Each segment is where the greedy hand-out stops: the chip is full,
    or one more compute array on the first bottleneck gains nothing."""
    program, _, hardware, _ = corpus[case]
    violations = {}
    for segment in program.segments:
        violation = greedy_stop_violation(segment.profiles, segment.pairs, hardware)
        if violation is not None:
            violations[segment.index] = violation
    assert not violations, violations


@pytest.mark.corpus(lambda case: case.compiler in ("puma", "occ"))
def test_a_baseline_flow_is_the_lowering_of_its_segments(case, corpus):
    program, graph, hardware, _ = corpus[case]
    assert program.meta_program == generate_program(graph.name, program.segments, hardware)


@pytest.mark.corpus()
def test_encoding_is_the_asdict_rendering_and_round_trips(case, corpus):
    """The encoder reads the flat records by field name; no byte may move.

    Reference: the values of ``dataclasses.asdict`` over each profile
    and resources record (``tests/test_program_codec.py`` pins the fields
    to the versions), laid out as format version 7 / wire version 3
    define it: each distinct profile one table row, in first-appearance
    order, and each segment's allocations, profile rows and resources by
    operator position.  JSON text is compared in emission order
    (stricter than the store's sorted rendering).  The decoded payload
    encodes to itself.
    """
    program = corpus[case].program
    payload = program_to_payload(program)
    rows = {}
    segments = []
    for encoded, segment in zip(payload["segments"], program.segments):
        segments.append(
            dict(
                encoded,
                allocations=[[compute, memory] for compute, memory in segment.pairs],
                profiles=[
                    rows.setdefault(tuple(asdict(profile).values()), len(rows))
                    for profile in segment.profiles
                ],
                resources=(
                    None if segment.resources is None else list(asdict(segment.resources).values())
                ),
            )
        )
    reference = dict(payload, profiles=[list(row) for row in rows], segments=segments)
    assert json.dumps(payload) == json.dumps(reference)
    assert program_to_payload(program_from_payload(payload)) == payload


@pytest.mark.corpus()
def test_a_payload_stores_each_profile_once(case, corpus):
    """The profile table has one row per distinct ``profile_signature``,
    and the decoded program (read back from JSON text, as the store and
    the wire read it) holds one ``OperatorProfile`` object per row."""
    program = corpus[case].program
    payload = program_to_payload(program)
    signatures = {
        profile_signature(profile)
        for segment in program.segments
        for profile in segment.profiles
    }
    assert len(payload["profiles"]) == len(signatures)
    decoded = program_from_payload(json.loads(json.dumps(payload)))
    objects = {id(p) for segment in decoded.segments for p in segment.profiles}
    assert len(objects) == len(payload["profiles"])
    assert decoded.fingerprint() == program.fingerprint()


@pytest.mark.corpus(lambda case: case.compiler == "cim-mlc")
def test_cmswitch_never_loses_to_cim_mlc(case, corpus):
    """Dual-mode awareness never costs end-to-end cycles: CMSwitch is at
    most its memory-mode-off twin, CIM-MLC, on the same chip."""
    cim_mlc = corpus[case].program
    cmswitch = corpus[case._replace(compiler="cmswitch")].program
    assert cmswitch.end_to_end_cycles <= cim_mlc.end_to_end_cycles


@pytest.mark.corpus(lambda case: not case.heavy)
def test_plan_arithmetic(case, corpus):
    """A program's totals are its segments' sums, and it flattened the
    graph into as many units as ``flatten_graph`` does."""
    program, graph, hardware, _ = corpus[case]
    assert program.end_to_end_cycles == program.graph_cycles * program.block_repeat
    assert program.graph_cycles == sum(segment.total_cycles for segment in program.segments)
    assert program.metadata["num_flattened_units"] == len(flatten_graph(graph, hardware))
