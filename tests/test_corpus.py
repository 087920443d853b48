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
from dataclasses import asdict, replace

import pytest

from repro.core.program import program_from_payload, program_to_payload
from repro.core.segmentation import flatten_graph
from repro.core.store import FORMAT_VERSION
from repro.cost.arithmetic import ProfileVectors
from repro.models import build_model, list_models
from repro.serve.wire import WIRE_VERSION
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


@pytest.mark.corpus(lambda case: case.compiler in ("cmswitch", "cim-mlc") and not case.heavy)
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
def test_baseline_equals_the_scalar_reference(case, corpus):
    """PUMA and OCC equal their independent scalar oracle
    (``reference_baseline_compile``) bit for bit, flow included."""
    program = corpus[case].program
    expected = corpus.reference(case.model, case.chip, case.compiler)
    assert program.fingerprint() == expected.fingerprint()


@pytest.mark.corpus()
def test_encoding_is_the_asdict_rendering_and_round_trips(case, corpus):
    """The encoder reads the flat records by field name; no byte may move.

    Reference: ``dataclasses.asdict`` over each profile and resources
    record, which is how format version 4 / wire version 1 were defined;
    JSON text is compared in emission order (stricter than the store's
    sorted rendering).  The decoded payload encodes to itself.
    """
    assert (FORMAT_VERSION, WIRE_VERSION) == (4, 1)
    program = corpus[case].program
    payload = program_to_payload(program)
    reference = dict(
        payload,
        segments=[
            dict(
                encoded,
                profiles={name: asdict(profile) for name, profile in segment.profiles.items()},
                resources=None if segment.resources is None else asdict(segment.resources),
            )
            for encoded, segment in zip(payload["segments"], program.segments)
        ],
    )
    assert json.dumps(payload) == json.dumps(reference)
    assert program_to_payload(program_from_payload(payload)) == payload


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
