"""Unit tests for graph/model (de)serialization and networkx interop."""

import math
import re

import networkx as nx
import pytest

from repro.exceptions import (
    GraphError,
    InvalidParameterError,
    ReproError,
    UnknownTaskError,
)
from repro.graph import TaskGraph, from_networkx, to_networkx
from repro.graph.io import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    model_from_dict,
    model_to_dict,
)
from repro.speedup import (
    AmdahlModel,
    CallableModel,
    CommunicationModel,
    GeneralModel,
    LogParallelismModel,
    PowerLawModel,
    RooflineModel,
    TabulatedModel,
)

MODELS = [
    RooflineModel(5.0, 4),
    CommunicationModel(5.0, 0.5),
    AmdahlModel(5.0, 1.0),
    GeneralModel(5.0, d=1.0, c=0.5, max_parallelism=8),
    GeneralModel(5.0),
    PowerLawModel(5.0, 0.6),
    LogParallelismModel(2.0),
    TabulatedModel([3.0, 2.0, 1.5]),
]


class TestModelRoundTrip:
    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_round_trip_preserves_times(self, model):
        clone = model_from_dict(model_to_dict(model))
        assert type(clone) is type(model)
        for p in (1, 2, 5, 16):
            assert clone.time(p) == pytest.approx(model.time(p))

    @pytest.mark.parametrize(
        "base, args, kind",
        [
            (RooflineModel, (5.0, 4), "roofline"),
            (AmdahlModel, (5.0, 1.0), "amdahl"),
            (GeneralModel, (5.0,), "general"),
            (TabulatedModel, ([3.0, 2.0],), "tabulated"),
        ],
    )
    def test_subclass_serializes_as_its_nearest_known_base(self, base, args, kind):
        subclass = type(f"My{base.__name__}", (base,), {})
        data = model_to_dict(subclass(*args))
        assert data == model_to_dict(base(*args))
        assert data["kind"] == kind

    def test_callable_not_serializable(self):
        with pytest.raises(GraphError):
            model_to_dict(CallableModel(lambda p: 1.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            model_from_dict({"kind": "teleport"})


class TestGraphRoundTrip:
    def test_dict_round_trip(self, small_graph):
        clone = graph_from_dict(graph_to_dict(small_graph))
        assert list(clone) == list(small_graph)
        assert clone.edges() == small_graph.edges()

    def test_json_round_trip(self, small_graph):
        clone = graph_from_json(graph_to_json(small_graph))
        assert len(clone) == len(small_graph)
        assert clone.edges() == small_graph.edges()

    def test_tags_preserved(self):
        g = TaskGraph()
        g.add_task("a", AmdahlModel(1.0, 1.0), tag="POTRF")
        clone = graph_from_dict(graph_to_dict(g))
        assert clone.task("a").tag == "POTRF"


_AMDAHL_TASK = {"id": "a", "model": {"kind": "amdahl", "w": 1.0, "d": 1.0}}


class TestMalformedInput:
    @pytest.mark.parametrize(
        "load, data, names",
        [
            (graph_from_json, "", "does not parse"),
            (graph_from_dict, {}, "missing key 'tasks'"),
            (graph_from_dict, {"tasks": 3}, "{'tasks': 3}"),
            (graph_from_dict, {"tasks": [], "edges": [[1]]}, "entry [1]"),
            (graph_from_dict, {"tasks": [{"model": {}}], "edges": []}, "missing key 'id'"),
            (graph_from_dict, {"tasks": [_AMDAHL_TASK]}, "graph {'tasks': [{"),
            (graph_from_dict, {"tasks": [_AMDAHL_TASK], "edges": 3}, "graph {'edges': 3, "),
            (model_from_dict, {"kind": "roofline"}, "missing key 'w'"),
            (model_from_dict, [], "malformed model []"),
        ],
        ids=["empty-json", "no-tasks", "tasks-not-a-list", "short-edge",
             "task-without-id", "task-but-no-edges",
             "edges-not-a-list", "model-without-w", "model-not-a-dict"],
    )
    def test_raises_graph_error_naming_the_fault(self, load, data, names):
        with pytest.raises(GraphError, match=re.escape(names)):
            load(data)

    def test_typed_errors_pass_through(self):
        amdahl = {"kind": "amdahl", "w": 1.0, "d": 1.0}
        with pytest.raises(InvalidParameterError):
            model_from_dict({"kind": "amdahl", "w": 1.0, "d": -1.0})
        with pytest.raises(UnknownTaskError):
            graph_from_dict({"tasks": [{"id": "a", "model": amdahl}], "edges": [["a", "b"]]})


#: One valid wire form per model kind; the fuzz below swaps each field.
_VALID_MODELS = {
    "roofline": {"kind": "roofline", "w": 2.0, "max_parallelism": 4},
    "communication": {"kind": "communication", "w": 2.0, "c": 0.1},
    "amdahl": {"kind": "amdahl", "w": 2.0, "d": 0.5},
    "general": {"kind": "general", "w": 2.0, "d": 0.5, "c": 0.1, "max_parallelism": 4},
    "power": {"kind": "power", "w": 2.0, "exponent": 0.5},
    "log": {"kind": "log", "base": 2.0},
    "tabulated": {"kind": "tabulated", "times": [3.0, 2.0]},
}
_HOSTILE = [10**400, math.inf, math.nan, None, "x", True]


class TestModelFieldFuzz:
    """Every (kind, field) given a hostile value loads or raises ReproError."""

    @pytest.mark.parametrize(
        "kind, field",
        [(k, f) for k, d in _VALID_MODELS.items() for f in d if f != "kind"],
    )
    @pytest.mark.parametrize(
        "value", _HOSTILE, ids=["huge-int", "inf", "nan", "none", "str", "true"]
    )
    def test_only_typed_errors(self, kind, field, value):
        data = {**_VALID_MODELS[kind], field: value}
        try:
            model = model_from_dict(data)
        except ReproError:
            pass
        else:
            # A model the loader accepts evaluates on every vector path.
            model.times(4)
            model.areas(4)
            model.is_monotonic(4)
        if kind == "tabulated":
            with pytest.raises(ReproError):
                model_from_dict({**data, "times": [1.0, value]})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TabulatedModel([None, 1.0]),
            lambda: TabulatedModel(None),
            lambda: GeneralModel(1.0, max_parallelism=math.inf),
            lambda: AmdahlModel(10**400, 1.0),
            lambda: PowerLawModel(1.0, 10**400),
        ],
        ids=["table-none", "table-not-a-sequence", "inf-parallelism",
             "huge-int-work", "huge-int-exponent"],
    )
    def test_constructors_raise_invalid_parameter(self, build):
        with pytest.raises(InvalidParameterError):
            build()

    def test_huge_int_message_does_not_print_the_value(self):
        with pytest.raises(InvalidParameterError, match="beyond float range"):
            AmdahlModel(10**5000, 1.0)


class TestNetworkx:
    def test_to_networkx_structure(self, small_graph):
        nxg = to_networkx(small_graph)
        assert isinstance(nxg, nx.DiGraph)
        assert set(nxg.nodes) == set(small_graph)
        assert set(nxg.edges) == set(small_graph.edges())
        assert nxg.nodes["a"]["model"] is small_graph.task("a").model

    def test_round_trip(self, small_graph):
        clone = from_networkx(to_networkx(small_graph))
        assert set(clone.edges()) == set(small_graph.edges())

    def test_cyclic_digraph_rejected(self):
        g = nx.DiGraph([(1, 2), (2, 1)])
        with pytest.raises(GraphError, match="DAG"):
            from_networkx(g)

    def test_missing_model_rejected(self):
        g = nx.DiGraph()
        g.add_node("a")
        with pytest.raises(GraphError, match="model"):
            from_networkx(g)

    def test_interop_with_networkx_algorithms(self, small_graph):
        nxg = to_networkx(small_graph)
        assert nx.dag_longest_path_length(nxg) == 2  # edges on longest path


class TestDotExport:
    def test_contains_nodes_and_edges(self, small_graph):
        from repro.graph.io import to_dot

        dot = to_dot(small_graph, name="demo")
        assert dot.startswith('digraph "demo"')
        assert '"a" -> "b";' in dot
        assert dot.rstrip().endswith("}")

    def test_tags_in_labels(self):
        from repro.graph import TaskGraph
        from repro.graph.io import to_dot

        g = TaskGraph()
        g.add_task("k", AmdahlModel(1.0, 1.0), tag="GEMM")
        assert "GEMM" in to_dot(g)

    def test_quotes_escaped(self):
        from repro.graph import TaskGraph
        from repro.graph.io import to_dot

        g = TaskGraph()
        g.add_task('we"ird', AmdahlModel(1.0, 1.0))
        dot = to_dot(g)
        assert '\\"' in dot
