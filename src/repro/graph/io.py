"""Task-graph (de)serialization and :mod:`networkx` interoperability."""

from __future__ import annotations

import json
import reprlib
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import GraphError, ReproError
from repro.graph.taskgraph import TaskGraph
from repro.speedup.amdahl import AmdahlModel
from repro.speedup.arbitrary import LogParallelismModel, TabulatedModel
from repro.speedup.base import SpeedupModel
from repro.speedup.communication import CommunicationModel
from repro.speedup.general import GeneralModel
from repro.speedup.power import PowerLawModel
from repro.speedup.roofline import RooflineModel

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "model_to_dict",
    "model_from_dict",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "to_networkx",
    "from_networkx",
]


#: Each serializable model class and its dict form.  Exact types are looked
#: up directly; a subclass takes the first entry it is an instance of, so
#: the subclasses of ``GeneralModel`` come before it.
_MODEL_DICTS: dict[type, Callable[[Any], dict[str, Any]]] = {
    RooflineModel: lambda m: {
        "kind": "roofline", "w": m.w, "max_parallelism": m.max_parallelism,
    },
    CommunicationModel: lambda m: {"kind": "communication", "w": m.w, "c": m.c},
    AmdahlModel: lambda m: {"kind": "amdahl", "w": m.w, "d": m.d},
    GeneralModel: lambda m: {
        "kind": "general", "w": m.w, "d": m.d, "c": m.c,
        "max_parallelism": m.max_parallelism,
    },
    PowerLawModel: lambda m: {"kind": "power", "w": m.w, "exponent": m.exponent},
    LogParallelismModel: lambda m: {"kind": "log", "base": m.base},
    TabulatedModel: lambda m: {"kind": "tabulated", "times": list(m._times)},
}


def model_to_dict(model: SpeedupModel) -> dict[str, Any]:
    """Serialize a speedup model to a plain dict (JSON-compatible).

    Supports the Equation (1) family, the power-law model, the Theorem-9
    log model, and tabulated models.  Callable models cannot be serialized.
    """
    to_dict = _MODEL_DICTS.get(type(model))
    if to_dict is None:
        for cls, candidate in _MODEL_DICTS.items():
            if isinstance(model, cls):
                to_dict = candidate
                break
        else:
            raise GraphError(f"cannot serialize model of type {type(model).__name__}")
    return to_dict(model)


def _malformed(what: str, data: object, exc: Exception) -> GraphError:
    """The :class:`GraphError` a loader raises for input not in dict form."""
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return GraphError(f"malformed {what} {reprlib.repr(data)}: {reason}")


def model_from_dict(data: dict[str, Any]) -> SpeedupModel:
    """Inverse of :func:`model_to_dict`.

    Input not in :func:`model_to_dict` form raises
    :class:`~repro.exceptions.GraphError` naming the missing key or the
    bad value.
    """
    try:
        kind = data.get("kind")
        if kind == "roofline":
            return RooflineModel(data["w"], data["max_parallelism"])
        if kind == "communication":
            return CommunicationModel(data["w"], data["c"])
        if kind == "amdahl":
            return AmdahlModel(data["w"], data["d"])
        if kind == "general":
            return GeneralModel(
                data["w"], d=data.get("d", 0.0), c=data.get("c", 0.0),
                max_parallelism=data.get("max_parallelism"),
            )
        if kind == "power":
            return PowerLawModel(data["w"], data["exponent"])
        if kind == "log":
            return LogParallelismModel(data["base"])
        if kind == "tabulated":
            return TabulatedModel(data["times"])
    except ReproError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _malformed("model", data, exc) from exc
    raise GraphError(f"unknown model kind {kind!r}")


def graph_to_dict(graph: TaskGraph) -> dict[str, Any]:
    """Serialize a task graph (tasks, models, tags, edges) to a plain dict."""
    return {
        "tasks": [
            {"id": t.id, "tag": t.tag, "model": model_to_dict(t.model)}
            for t in graph.tasks()
        ],
        "edges": [[u, v] for u, v in graph.edges()],
    }


def graph_from_dict(data: dict[str, Any]) -> TaskGraph:
    """Inverse of :func:`graph_to_dict`.

    Input not in :func:`graph_to_dict` form raises
    :class:`~repro.exceptions.GraphError` naming the missing key or the
    bad task or edge entry.
    """
    g = TaskGraph()
    entry: Any = data
    try:
        tasks, edges = iter(data["tasks"]), iter(data["edges"])
        for entry in tasks:
            g.add_task(entry["id"], model_from_dict(entry["model"]), entry.get("tag", ""))
        for entry in edges:
            u, v = entry
            g.add_edge(u, v)
    except ReproError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        what = "graph" if entry is data else "graph entry"
        raise _malformed(what, entry, exc) from exc
    return g


def graph_to_json(graph: TaskGraph) -> str:
    """Serialize a task graph to a JSON string."""
    return json.dumps(graph_to_dict(graph))


def graph_from_json(text: str) -> TaskGraph:
    """Inverse of :func:`graph_to_json` (malformed input raises :class:`GraphError`)."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"graph JSON does not parse: {exc}") from exc
    return graph_from_dict(data)


def to_networkx(graph: TaskGraph) -> nx.DiGraph:
    """Convert to a :class:`networkx.DiGraph`.

    Node attributes: ``model`` (the :class:`SpeedupModel` object) and
    ``tag``.  Useful for visualization or graph-algorithm post-processing.
    """
    import networkx as nx

    g = nx.DiGraph()
    for task in graph.tasks():
        g.add_node(task.id, model=task.model, tag=task.tag)
    g.add_edges_from(graph.edges())
    return g


def from_networkx(g: nx.DiGraph) -> TaskGraph:
    """Convert a :class:`networkx.DiGraph` with ``model`` node attributes.

    Raises :class:`~repro.exceptions.GraphError` if the digraph is cyclic
    or a node lacks a ``model`` attribute.
    """
    import networkx as nx

    if not nx.is_directed_acyclic_graph(g):
        raise GraphError("networkx graph must be a DAG")
    out = TaskGraph()
    for node in nx.topological_sort(g):
        attrs = g.nodes[node]
        if "model" not in attrs:
            raise GraphError(f"node {node!r} has no 'model' attribute")
        out.add_task(node, attrs["model"], attrs.get("tag", ""))
    for u, v in g.edges():
        out.add_edge(u, v)
    return out


def to_dot(graph: TaskGraph, *, name: str = "taskgraph") -> str:
    """Render the graph in Graphviz DOT format.

    Nodes are labelled with the task id and tag; pipe the output through
    ``dot -Tsvg`` to visualize workflow shapes.
    """

    def quote(value: object) -> str:
        return '"' + str(value).replace('"', '\\"') + '"'

    lines = [f"digraph {quote(name)} {{", "  rankdir=TB;"]
    for task in graph.tasks():
        label = str(task.id) if not task.tag else f"{task.id}\\n{task.tag}"
        lines.append(f"  {quote(task.id)} [label={quote(label)}];")
    for u, v in graph.edges():
        lines.append(f"  {quote(u)} -> {quote(v)};")
    lines.append("}")
    return "\n".join(lines)
