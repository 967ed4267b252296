"""Most reliable paths via Dijkstra on ``-log p`` weights.

The probability of a path is the product of its edge probabilities, so
the most reliable path (Eq. 5) is the shortest path under the additive
weight ``w(e) = -log p(e)`` — non-negative because ``p(e) <= 1``.

Every routine supports an ``extra_edges`` overlay so candidate edges can
be searched without copying the graph.  Repeated searches over one
graph-plus-overlay (Yen's spur searches) share a :class:`PathGraph`
compiled once.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..graph import UncertainGraph
from ..reliability.estimator import Overlay, build_overlay

Path = List[int]


def path_probability(graph: UncertainGraph, path: Sequence[int],
                     extra_probs: Optional[Dict[Tuple[int, int], float]] = None) -> float:
    """Product of edge probabilities along ``path``.

    ``extra_probs`` supplies probabilities for edges that are not in the
    graph (candidate edges); keys may be given in either orientation for
    undirected graphs.
    """
    prob = 1.0
    for u, v in zip(path, path[1:], strict=False):
        if graph.has_edge(u, v):
            prob *= graph.probability(u, v)
        elif extra_probs is not None:
            if (u, v) in extra_probs:
                prob *= extra_probs[(u, v)]
            elif not graph.directed and (v, u) in extra_probs:
                prob *= extra_probs[(v, u)]
            else:
                raise KeyError(f"edge ({u}, {v}) on path but not in graph/extras")
        else:
            raise KeyError(f"edge ({u}, {v}) on path but not in graph")
    return prob


class PathGraph:
    """``G`` plus an overlay, compiled for repeated path searches.

    Yen's algorithm runs one Dijkstra per spur node over the same
    candidate-augmented graph ``G+``; compiling it once replaces the
    per-search dict walks, overlay rebuilds and ``math.log`` calls with
    list lookups.

    * Nodes get dense indices in **sorted node-id order**, so heap
      entries ``(d, index)`` break distance ties exactly as
      ``(d, node_id)`` would.
    * ``adjacency[i]`` lists ``(j, -log p)`` in traversal order: the
      graph's successors in insertion order, then the overlay edges in
      :func:`build_overlay` order.  Edges with ``p <= 0`` are dropped.
    * Every compiled node can start a search, overlay-only candidate
      endpoints included (a Yen spur search may start at one).

    ``d + (-log p)`` is bit-identical to ``d - log p``, so distances,
    paths and probabilities equal a search over the dict adjacency.
    """

    __slots__ = ("node_ids", "index_of", "adjacency")

    def __init__(self, graph: UncertainGraph,
                 extra_edges: Overlay = None) -> None:
        overlay = build_overlay(graph, extra_edges)
        nodes = set(graph.nodes())
        for u, pairs in overlay.items():
            nodes.add(u)
            nodes.update(v for v, _ in pairs)
        self.node_ids: List[int] = sorted(nodes)
        index_of = {u: i for i, u in enumerate(self.node_ids)}
        self.index_of: Dict[int, int] = index_of
        log = math.log
        adjacency: List[List[Tuple[int, float]]] = []
        for u in self.node_ids:
            arcs = [
                (index_of[v], -log(p))
                for v, p in graph.successors(u).items() if p > 0.0
            ]
            arcs.extend(
                (index_of[v], -log(p))
                for v, p in overlay.get(u, ()) if p > 0.0
            )
            adjacency.append(arcs)
        self.adjacency = adjacency


def most_reliable_path(
    graph: Union[UncertainGraph, PathGraph],
    source: int,
    target: int,
    extra_edges: Overlay = None,
    forbidden_nodes: Optional[Set[int]] = None,
    forbidden_edges: Optional[Set[Tuple[int, int]]] = None,
) -> Tuple[Optional[Path], float]:
    """The single most reliable path and its probability.

    ``graph`` is an :class:`UncertainGraph` (compiled with
    ``extra_edges`` on the spot) or an already compiled
    :class:`PathGraph`, which carries its overlay itself.

    Returns ``(None, 0.0)`` when no path with positive probability
    exists or an endpoint is in neither the graph nor the overlay; an
    overlay-only endpoint is searched like any other node.
    ``forbidden_nodes``/
    ``forbidden_edges`` support Yen's spur computations; forbidden
    edges are direction-sensitive keys as traversed (``(u, v)`` means
    the hop u→v is banned).
    """
    if source == target:
        return [source], 1.0
    if isinstance(graph, UncertainGraph):
        if not extra_edges and (source not in graph or target not in graph):
            return None, 0.0
        graph = PathGraph(graph, extra_edges)
    index_of = graph.index_of
    src = index_of.get(source)
    dst = index_of.get(target)
    if src is None or dst is None:
        return None, 0.0
    n = len(graph.node_ids)
    # Banned nodes are marked done up front: a done node is never
    # relaxed into, which is all a ban does (the source is exempt).
    done = bytearray(n)
    for node in forbidden_nodes or ():
        i = index_of.get(node)
        if i is not None and i != src:
            done[i] = 1
    banned_out: Dict[int, Set[int]] = {}
    for u, v in forbidden_edges or ():
        ui, vi = index_of.get(u), index_of.get(v)
        if ui is not None and vi is not None:
            banned_out.setdefault(ui, set()).add(vi)
    adjacency = graph.adjacency
    dist = [math.inf] * n
    parent = [-1] * n
    dist[src] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, src)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        if u == dst:
            break
        done[u] = 1
        banned = banned_out.get(u, ())
        for v, w in adjacency[u]:
            if done[v] or v in banned:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    if dist[dst] == math.inf:
        return None, 0.0
    node_ids = graph.node_ids
    path = [target]
    i = dst
    while i != src:
        i = parent[i]
        path.append(node_ids[i])
    path.reverse()
    return path, math.exp(-dist[dst])


def reliability_dijkstra_all(
    graph: UncertainGraph,
    source: int,
    extra_edges: Overlay = None,
    reverse: bool = False,
) -> Dict[int, float]:
    """Most-reliable-path probability from ``source`` to every node.

    With ``reverse=True`` the graph's edges are traversed backwards, so
    the result is the best path probability *to* ``source`` from every
    node — a deterministic proxy for reliability-to-target used by tests
    and by fast heuristics.
    """
    if source not in graph:
        return {}
    overlay = build_overlay(graph, extra_edges)
    if reverse and graph.directed:
        neighbor_fn = graph.predecessors
        reverse_overlay_map: Dict[int, List[Tuple[int, float]]] = {}
        for u, pairs in overlay.items():
            for v, p in pairs:
                reverse_overlay_map.setdefault(v, []).append((u, p))
        overlay = reverse_overlay_map
    else:
        neighbor_fn = graph.successors
    dist: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited: Set[int] = set()
    while heap:
        d, u = heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        neighbors = list(neighbor_fn(u).items())
        if overlay and u in overlay:
            neighbors.extend(overlay[u])
        for v, p in neighbors:
            if v in visited or p <= 0.0:
                continue
            nd = d - math.log(p)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heappush(heap, (nd, v))
    return {node: math.exp(-d) for node, d in dist.items()}


def hop_shortest_path(
    graph: UncertainGraph,
    source: int,
    target: int,
    extra_edges: Overlay = None,
) -> Optional[Path]:
    """Unweighted shortest path (BFS); used by the ESSSP baseline."""
    if source == target:
        return [source]
    if source not in graph:
        return None
    overlay = build_overlay(graph, extra_edges)
    parent: Dict[int, int] = {source: source}
    frontier = [source]
    while frontier:
        next_frontier = []
        for u in frontier:
            neighbors = list(graph.successors(u))
            if overlay and u in overlay:
                neighbors.extend(v for v, _ in overlay[u])
            for v in neighbors:
                if v in parent:
                    continue
                parent[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                next_frontier.append(v)
        frontier = next_frontier
    return None
