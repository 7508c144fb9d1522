"""Structural queries over a CDFG's columns, for tests.

A :class:`~repro.graph.cdfg.CDFG` is columns only; these helpers phrase the
questions tests ask of a graph (which nodes have this optype or kind, which
ports serve that array, which edges of a kind there are) over those columns
and answer with node ids.  ``tests/`` is on ``sys.path`` under pytest and
``benchmarks/conftest.py`` appends it, so both import this as
``cdfg_queries``.
"""

from __future__ import annotations

from repro.graph.cdfg import FEATURE_COLUMN, CDFG, EdgeKind, NodeKind


def nodes_of_kind(graph: CDFG, kind: NodeKind) -> list[int]:
    """Ids of the nodes of one kind, in id order."""
    return [node for node, node_kind in enumerate(graph.node_kinds) if node_kind is kind]


def nodes_of_optype(graph: CDFG, optype: str) -> list[int]:
    """Ids of the nodes of one optype, in id order."""
    return [node for node, name in enumerate(graph.optype_list()) if name == optype]


def memory_ports(graph: CDFG, array: str | None = None) -> list[int]:
    """Ids of the memory-port nodes, of ``array`` only when it is given."""
    return [
        node for node in nodes_of_kind(graph, NodeKind.MEMORY_PORT)
        if array is None or graph.node_arrays[node] == array
    ]


def edges_of_kind(graph: CDFG, kind: EdgeKind) -> list[tuple[int, int]]:
    """``(src, dst)`` of every edge of one kind, in insertion order."""
    return [
        (int(src), int(dst))
        for src, dst, edge_kind in zip(graph.edge_src, graph.edge_dst, graph.edge_kinds)
        if edge_kind is kind
    ]


def feature(graph: CDFG, node: int, name: str) -> float:
    """One Table II feature of one node."""
    return float(graph.feature_matrix()[node, FEATURE_COLUMN[name]])
