"""Unit tests for the computation graph container (repro.ir.graph)."""

import copy
import hashlib
import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    Graph,
    GraphBuilder,
    GraphError,
    Linear,
    Operator,
    TensorSpec,
    graph_from_json,
    graph_to_json,
)
from repro.ir.serialization import SerializationError


def linear(name, in_name, out_name, k=8, n=8, m=4):
    return Linear(
        name,
        input=TensorSpec(in_name, (m, k)),
        output=TensorSpec(out_name, (m, n)),
        weight=TensorSpec(f"{name}_w", (k, n)),
    )


def dependency_pairs(graph):
    """The relation ``W``: pairs ``(producer, consumer)`` of operator names."""
    return {
        (pred.name, op.name) for op in graph.operators for pred in graph.predecessors(op)
    }


@pytest.fixture
def chain_graph():
    graph = Graph("chain")
    graph.add_input(TensorSpec("x", (4, 8)))
    graph.add_operator(linear("fc1", "x", "h1"))
    graph.add_operator(linear("fc2", "h1", "h2"))
    graph.add_operator(linear("fc3", "h2", "y"))
    graph.add_output(TensorSpec("y", (4, 8)))
    return graph


class TestConstruction:
    def test_len_and_contains(self, chain_graph):
        assert len(chain_graph) == 3
        assert "fc2" in chain_graph
        assert "missing" not in chain_graph

    def test_duplicate_operator_name_rejected(self, chain_graph):
        with pytest.raises(GraphError):
            chain_graph.add_operator(linear("fc1", "y", "z"))

    def test_duplicate_producer_rejected(self, chain_graph):
        with pytest.raises(GraphError):
            chain_graph.add_operator(linear("fc4", "x", "h1"))

    def test_operator_lookup(self, chain_graph):
        assert chain_graph.operator("fc2").name == "fc2"
        with pytest.raises(GraphError):
            chain_graph.operator("nope")


class TestQueries:
    def test_consumers_of(self, chain_graph):
        consumers = chain_graph.consumers_of("h1")
        assert [op.name for op in consumers] == ["fc2"]

    def test_predecessors_successors(self, chain_graph):
        fc2 = chain_graph.operator("fc2")
        assert [op.name for op in chain_graph.predecessors(fc2)] == ["fc1"]
        assert [op.name for op in chain_graph.successors(fc2)] == ["fc3"]

    def test_topological_order_is_deterministic(self, chain_graph):
        order = [op.name for op in chain_graph.topological_order()]
        assert order == ["fc1", "fc2", "fc3"]

    def test_topological_order_respects_dependencies(self, tiny_transformer_graph):
        order = [op.name for op in tiny_transformer_graph.topological_order()]
        position = {name: i for i, name in enumerate(order)}
        for producer, consumer in dependency_pairs(tiny_transformer_graph):
            assert position[producer] < position[consumer]

    def test_cim_operators_subset(self, tiny_cnn_graph):
        cim = tiny_cnn_graph.cim_operators()
        assert all(op.is_cim_mappable for op in cim)
        assert len(cim) < len(tiny_cnn_graph)

    def test_derived_views_follow_add_operator(self, chain_graph):
        """The consumer index and the memoised order are rebuilt after a
        mutation, and callers get their own lists."""
        assert chain_graph.consumers_of("y") == []
        order = chain_graph.topological_order()
        order.reverse()  # a caller's scribbling must not leak into the memo
        chain_graph.consumers_of("h1").clear()
        assert [op.name for op in chain_graph.topological_order()] == ["fc1", "fc2", "fc3"]
        chain_graph.add_operator(linear("fc4", "y", "z"))
        chain_graph.add_operator(linear("side", "h1", "s"))
        assert [op.name for op in chain_graph.consumers_of("y")] == ["fc4"]
        assert [op.name for op in chain_graph.consumers_of("h1")] == ["fc2", "side"]
        assert [op.name for op in chain_graph.topological_order()] == [
            "fc1", "fc2", "fc3", "fc4", "side",
        ]

    @pytest.mark.parametrize("model", ["tiny-transformer", "mobilenet", "bert"])
    def test_consumer_index_equals_the_list_scan(self, model):
        from repro.models import Workload, build_model

        graph = build_model(model, Workload(seq_len=16))
        for op in graph.operators:
            for tensor in (*op.inputs, *op.outputs):
                scanned = [
                    other
                    for other in graph.operators
                    if any(t.name == tensor.name for t in other.inputs)
                ]
                assert graph.consumers_of(tensor.name) == scanned


def node(name, inputs):
    """A bare operator producing one tensor, ``<name>_out``."""
    return Operator(
        name, [TensorSpec(t, (1,)) for t in inputs], [TensorSpec(f"{name}_out", (1,))]
    )


@st.composite
def shuffled_dags(draw, max_operators):
    """Operators ``n0 .. n<k>`` where ``n<j>`` may consume any ``n<i>``,
    ``i < j`` -- listed in an insertion order drawn independently of that
    dependency order."""
    count = draw(st.integers(1, max_operators))
    operators = [
        node(f"n{j}", [f"n{i}_out" for i in range(j) if draw(st.booleans())] or ["x"])
        for j in range(count)
    ]
    return draw(st.permutations(operators))


def scanned_producers(graph, op):
    """Names of the operators feeding ``op``, found without the graph's indices."""
    wanted = {t.name for t in op.inputs}
    return {
        other.name for other in graph.operators if wanted & {t.name for t in other.outputs}
    }


def brute_force_order(graph):
    """Repeatedly emit the first operator, in insertion order, whose producers
    have all been emitted."""
    order = []
    while len(order) < len(graph):
        order.append(
            next(
                op.name
                for op in graph.operators
                if op.name not in order and scanned_producers(graph, op) <= set(order)
            )
        )
    return order


def networkx_order(nx, graph):
    """The ordering this repository used to delegate to networkx."""
    index = {op.name: i for i, op in enumerate(graph.operators)}
    digraph = nx.DiGraph()
    digraph.add_nodes_from(index)
    digraph.add_edges_from(dependency_pairs(graph))
    return list(nx.lexicographical_topological_sort(digraph, key=index.__getitem__))


def names(operators):
    return [op.name for op in operators]


class TestTopologicalOrdering:
    @settings(max_examples=150, deadline=None)
    @given(shuffled_dags(max_operators=8))
    def test_smallest_ready_insertion_index_first(self, operators):
        """Checked after every ``add_operator``: an edge that appears only
        when a late producer is inserted must not be missed by a stale
        adjacency index or a stale memo."""
        graph = Graph("random")
        for op in operators:
            graph.add_operator(op)
            order = names(graph.topological_order())
            assert sorted(order) == sorted(names(graph.operators))
            position = {name: i for i, name in enumerate(order)}
            for other in graph.operators:
                producers = scanned_producers(graph, other)
                assert sorted(names(graph.predecessors(other))) == sorted(producers)
                for producer in producers:
                    assert position[producer] < position[other.name]
                    assert other in graph.successors(graph.operator(producer))
            assert order == brute_force_order(graph)

    @settings(max_examples=50, deadline=None)
    @given(shuffled_dags(max_operators=8))
    def test_topological_insertion_order_comes_back_unchanged(self, operators):
        in_dependency_order = sorted(operators, key=lambda op: int(op.name[1:]))
        graph = Graph("sorted", in_dependency_order)
        assert graph.topological_order() == in_dependency_order

    @settings(max_examples=150, deadline=None)
    @given(shuffled_dags(max_operators=24))
    def test_random_dags_match_networkx(self, operators):
        nx = pytest.importorskip("networkx")
        graph = Graph("random", operators)
        assert names(graph.topological_order()) == networkx_order(nx, graph)

    def test_every_zoo_model_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        from repro.models import build_model, list_models

        for model in list_models():
            graph = build_model(model)
            assert names(graph.topological_order()) == networkx_order(nx, graph), model

    def test_multi_output_successors_follow_output_order(self):
        split = Operator(
            "split", [TensorSpec("x", (2,))], [TensorSpec("a", (1,)), TensorSpec("b", (1,))]
        )
        graph = Graph("split", [split, node("uses_b", ["b"]), node("uses_a", ["a", "b"])])
        assert names(graph.successors(split)) == ["uses_a", "uses_b"]
        assert names(graph.topological_order()) == ["split", "uses_b", "uses_a"]


CYCLIC_GRAPHS = {
    "two-cycle": (
        [node("a", ["b_out"]), node("b", ["a_out"])],
        "['a', 'b']",
    ),
    "cycle behind a valid prefix": (
        [
            node("late", ["q_out"]),
            node("head", ["x"]),
            node("p", ["head_out", "r_out"]),
            node("q", ["p_out"]),
            node("r", ["q_out"]),
            node("free", ["head_out"]),
        ],
        "['late', 'p', 'q', 'r']",
    ),
}


@pytest.mark.parametrize("case", CYCLIC_GRAPHS)
class TestCycles:
    def graph(self, case):
        operators, stuck = CYCLIC_GRAPHS[case]
        graph = Graph("cyclic", operators)
        graph.add_input(TensorSpec("x", (1,)))
        return graph, f"graph contains a cycle: {stuck}"

    def test_validate_names_the_stuck_operators(self, case):
        graph, message = self.graph(case)
        with pytest.raises(GraphError) as raised:
            graph.validate()
        assert str(raised.value) == message

    def test_topological_order_raises_and_memoises_nothing(self, case):
        graph, message = self.graph(case)
        for query in (graph.topological_order, graph.cim_operators, graph.topological_order):
            with pytest.raises(GraphError) as raised:
                query()
            assert str(raised.value) == message

    def test_compile_of_an_unvalidated_cyclic_graph(self, case, small_chip):
        from repro.core.compiler import CMSwitchCompiler

        graph, _ = self.graph(case)
        with pytest.raises(GraphError, match="graph contains a cycle"):
            CMSwitchCompiler(small_chip).compile(graph)


class TestValidation:
    def test_valid_graph_passes(self, chain_graph):
        chain_graph.validate()

    def test_unknown_input_rejected(self):
        graph = Graph("bad")
        graph.add_operator(linear("fc", "missing", "y"))
        with pytest.raises(GraphError):
            graph.validate()

    def test_builder_validates_on_finish(self):
        builder = GraphBuilder("ok")
        x = builder.input("x", (4, 8))
        builder.linear(x, 8)
        builder.finish()  # should not raise


class TestStats:
    def test_stats_totals(self, chain_graph):
        stats = chain_graph.stats()
        assert stats.num_operators == 3
        assert stats.num_cim_operators == 3
        assert stats.total_macs == 3 * 4 * 8 * 8
        assert stats.total_weight_elements == 3 * 64

    def test_mean_arithmetic_intensity_positive(self, tiny_cnn_graph):
        assert tiny_cnn_graph.stats().mean_arithmetic_intensity > 0

    def test_view_ops_excluded_from_activation_totals(self, tiny_transformer_graph):
        stats = tiny_transformer_graph.stats()
        direct = sum(
            op.output_elements for op in tiny_transformer_graph.operators if not op.is_view
        )
        assert stats.total_activation_elements == direct


class TestSerialization:
    def test_json_roundtrip(self, tiny_cnn_graph):
        restored = graph_from_json(graph_to_json(tiny_cnn_graph))
        assert len(restored) == len(tiny_cnn_graph)
        assert restored.name == tiny_cnn_graph.name
        assert restored.stats().total_macs == tiny_cnn_graph.stats().total_macs
        assert [op.name for op in restored.topological_order()] == [
            op.name for op in tiny_cnn_graph.topological_order()
        ]

    def test_metadata_roundtrip(self, tiny_transformer_graph):
        restored = graph_from_json(graph_to_json(tiny_transformer_graph))
        assert restored.metadata == tiny_transformer_graph.metadata

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_json("{not json")

    def test_wrong_document_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_json('{"format": "other", "version": 1}')

    def test_wrong_version_rejected(self, tiny_mlp_graph):
        text = graph_to_json(tiny_mlp_graph).replace('"version": 1', '"version": 99')
        with pytest.raises(SerializationError):
            graph_from_json(text)

    def test_non_object_payload_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_json("[1, 2, 3]")

    def test_bad_format_error_names_field(self):
        with pytest.raises(SerializationError, match="'format'"):
            graph_from_json('{"format": "other", "version": 1}')
        with pytest.raises(SerializationError, match="'format'"):
            graph_from_json('{"version": 1}')

    def test_newer_version_error_names_field(self, tiny_mlp_graph):
        text = graph_to_json(tiny_mlp_graph).replace('"version": 1', '"version": 99')
        with pytest.raises(SerializationError, match="'version'.*newer"):
            graph_from_json(text)

    def test_non_integer_version_rejected(self, tiny_mlp_graph):
        for bad in ('"1"', "0", "-2", "true", "null", "1.5"):
            text = graph_to_json(tiny_mlp_graph).replace('"version": 1', f'"version": {bad}')
            with pytest.raises(SerializationError, match="'version'"):
                graph_from_json(text)

    def test_missing_graph_section_rejected(self):
        with pytest.raises(SerializationError, match="'graph'"):
            graph_from_json('{"format": "repro-graph", "version": 1}')


json_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


class TestDigest:
    @settings(max_examples=100, deadline=None)
    @given(
        shuffled_dags(max_operators=8),
        st.dictionaries(st.text(max_size=4), json_values, max_size=3),
    )
    def test_digest_is_the_sha256_of_the_compact_serialisation(self, operators, metadata):
        """The bytes every program key and store entry name were built from."""

        def compact_sha256(graph):
            text = graph_to_json(graph, indent=None)
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        graph = Graph("random", operators)
        graph.metadata.update(metadata)
        expected = compact_sha256(graph)
        assert graph.digest() == expected
        # Sealing changes no byte of the serialisation, and copies keep the digest.
        assert compact_sha256(graph) == expected
        assert Graph.from_dict(graph.to_dict()).digest() == expected

    def test_digest_is_computed_once(self, graph_serialisations):
        graph = Graph("chain", [linear("fc1", "x", "h1")])
        assert graph.digest() == graph.digest() == graph.digest()
        assert graph_serialisations == ["chain"]

    def test_first_digests_racing_on_one_graph_serialise_it_once(
        self, graph_serialisations, monkeypatch
    ):
        from repro.ir import serialization

        counting = serialization.graph_to_json
        start = threading.Barrier(4)

        def slow(graph, *args, **kwargs):
            time.sleep(0.01)  # widen the window in which a second thread could enter
            return counting(graph, *args, **kwargs)

        monkeypatch.setattr(serialization, "graph_to_json", slow)
        graph = Graph("chain", [linear("fc1", "x", "h1")])
        digests = []

        def worker():
            start.wait(timeout=30)
            digests.append(graph.digest())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(digests) == 4 and len(set(digests)) == 1
        assert graph_serialisations == ["chain"]

    def test_a_copy_of_a_sealed_graph_is_editable_and_shares_nothing(self, tiny_cnn_graph):
        sealed = Graph.from_dict(tiny_cnn_graph.to_dict())
        sealed.digest()
        edited = Graph.from_dict(sealed.to_dict())
        edited.operators[0].attrs["stride"].append(2)
        edited.metadata["block_repeat"] = 2.0
        edited.add_input(TensorSpec("extra", (1,)))
        assert edited.digest() != sealed.digest()
        assert sealed.operators[0].attrs["stride"] == [1, 1]

    def test_sealing_is_idempotent_and_survives_copy_and_pickle(self, chain_graph):
        digest = chain_graph.digest()
        for clone in (copy.deepcopy(chain_graph), pickle.loads(pickle.dumps(chain_graph))):
            assert clone.digest() == digest
            with pytest.raises(GraphError):
                clone.metadata["block_repeat"] = 2.0
            with pytest.raises(GraphError):
                clone.operator("fc1").attrs["bias"] = False
