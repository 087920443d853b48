"""Every graph has a plan: the partitioning guarantee, as a property.

``PartitionOversized`` splits an operator whose stationary operand
exceeds the chip into shards of at most ``num_arrays`` array tiles, and
no tensor has a zero dimension, so every flattened unit's compute floor
is in ``[1, num_arrays]``.  One unit per segment is then always a plan:
the segmenter refuses a unit over the chip as the caller's error, and
nothing downstream handles a graph without one.  This module draws
Linear, Conv2d (dense, grouped, depthwise) and attention ``MatMul``
chains on chips of 1 to 64 arrays and checks both halves: the floors,
and a finite CMSwitch compile.  The zoo half (every registered model on
each preset cut to 1-3 arrays) is ``tests/test_corpus.py::
test_every_unit_fits_a_one_to_three_array_chip``.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CMSwitchCompiler, CompilerOptions, flatten_graph
from repro.cost.arithmetic import ProfileVectors
from repro.hardware import small_test_chip
from repro.ir import GraphBuilder

TILE_SIDES = st.sampled_from((8, 16, 32, 64))

#: Half the chips have 1-3 arrays, where most drawn layers are partitioned.
CHIPS = st.builds(
    lambda n, rows, cols: dataclasses.replace(
        small_test_chip(), num_arrays=n, array_rows=rows, array_cols=cols
    ),
    st.one_of(st.integers(1, 3), st.integers(1, 64)),
    TILE_SIDES,
    TILE_SIDES,
)


@st.composite
def conv_chains(draw):
    """Conv2d layers (each dense, grouped or depthwise), then a classifier."""
    builder = GraphBuilder("conv-chain")
    channels = draw(st.integers(1, 24))
    size = draw(st.integers(3, 8))
    x = builder.input("x", (1, channels, size, size))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("dense", "grouped", "depthwise")))
        if kind == "depthwise":
            groups, out = channels, channels * draw(st.integers(1, 2))
        elif kind == "grouped":
            groups = draw(st.sampled_from([g for g in range(1, channels + 1) if channels % g == 0]))
            out = groups * draw(st.integers(1, 4))
        else:
            groups, out = 1, draw(st.integers(1, 48))
        kernel = draw(st.sampled_from((1, 3)))
        x = builder.relu(builder.conv2d(x, out, kernel, padding=kernel // 2, groups=groups))
        channels = out
    builder.output(builder.linear(builder.global_avg_pool(x), draw(st.integers(1, 32))))
    return builder.finish()


@st.composite
def sequence_chains(draw):
    """Linear layers and multi-head attention blocks (two ``MatMul`` each)."""
    builder = GraphBuilder("sequence-chain")
    seq = draw(st.integers(1, 8))
    hidden = draw(st.integers(1, 96))
    x = builder.input("x", (1, seq, hidden))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            heads = draw(st.sampled_from([h for h in (1, 2, 4) if hidden % h == 0]))
            head_dim = hidden // heads
            q, k, v = (builder.linear(x, hidden) for _ in range(3))
            scores = builder.matmul(
                builder.reshape(q, (heads, seq, head_dim)),
                builder.reshape(k, (heads, head_dim, seq)),
            )
            context = builder.matmul(
                builder.softmax(scores), builder.reshape(v, (heads, seq, head_dim))
            )
            x = builder.linear(builder.reshape(context, (1, seq, hidden)), hidden)
        else:
            hidden = draw(st.integers(1, 96))
            x = builder.gelu(builder.linear(x, hidden))
    builder.output(x)
    return builder.finish()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph=st.one_of(conv_chains(), sequence_chains()), hardware=CHIPS)
def test_every_unit_fits_and_every_graph_has_a_plan(graph, hardware):
    units = flatten_graph(graph, hardware)
    floors = ProfileVectors([unit.profile for unit in units], hardware).floors
    assert 1 <= floors.min() and floors.max() <= hardware.num_arrays
    program = CMSwitchCompiler(hardware, CompilerOptions(generate_code=False)).compile(graph)
    assert program.num_segments >= 1
    assert math.isfinite(program.end_to_end_cycles)
