"""Search-space elimination (Algorithm 4) and top-l path pruning (§5.1).

Step 1 — *reliability-based elimination*: a candidate edge ``(u, v)``
only matters when ``u`` is reasonably reachable from the source and
``v`` reasonably reaches the target; keep the top-``r`` nodes on each
side and take the missing edges between them, reducing the candidate
universe from ``O(n^2)`` to ``O(r^2)``.

Step 2 — *top-l path pruning*: add the surviving candidates to the graph
(probability from the new-edge model), extract the top-``l`` most
reliable s-t paths, and drop every candidate edge that appears on none
of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..graph import UncertainGraph
from ..paths import top_l_most_reliable_paths
from ..reliability import ReliabilityEstimator
from ..baselines.common import Edge, NewEdgeProbability, ProbEdge


@dataclass
class CandidateSpace:
    """Result of reliability-based search-space elimination."""

    source_side: List[int]
    """Top-r nodes with the highest reliability *from* the source."""

    target_side: List[int]
    """Top-r nodes with the highest reliability *to* the target."""

    edges: List[ProbEdge]
    """Relevant candidate edges ``E+`` with model probabilities."""

    elapsed_seconds: float = 0.0

    def edge_pairs(self) -> List[Edge]:
        """Candidate edges as bare ``(u, v)`` pairs."""
        return [(u, v) for u, v, _ in self.edges]


@dataclass
class PathSet:
    """Top-l most reliable paths with candidate-edge annotations."""

    paths: List["PathInfo"]
    surviving_candidates: List[ProbEdge]
    elapsed_seconds: float = 0.0


@dataclass
class PathInfo:
    """A path plus the candidate edges it would require."""

    nodes: List[int]
    probability: float
    candidate_edges: FrozenSet[Edge]
    existing_edges: Tuple[Edge, ...] = field(default_factory=tuple)


def top_r_nodes(reachability: Dict[int, float], r: int, must_include: int) -> List[int]:
    """Highest-probability nodes, guaranteed to include the anchor node."""
    ranked = sorted(reachability.items(), key=lambda item: (-item[1], item[0]))
    chosen = [node for node, _ in ranked[:r]]
    if must_include not in chosen:
        chosen = [must_include, *chosen[: max(r - 1, 0)]]
    return chosen


def eliminate_search_space(
    graph: UncertainGraph,
    source: int,
    target: int,
    r: int,
    new_edge_prob: NewEdgeProbability,
    estimator: ReliabilityEstimator,
    h: Optional[int] = None,
    forbidden_nodes: Optional[Set[int]] = None,
) -> CandidateSpace:
    """Algorithm 4: relevant candidate edges for one s-t query.

    Parameters
    ----------
    r:
        Number of relevant nodes kept on each side.
    h:
        Optional hop-distance constraint: a candidate ``(u, v)`` is kept
        only when ``v`` is within ``h`` hops of ``u`` in the input graph.
    forbidden_nodes:
        Nodes that may not be endpoints of new edges (used by the
        influence application to protect its virtual super-source).
    """
    start = time.perf_counter()
    reach_from = estimator.reachability_from(graph, source)
    reach_to = estimator.reachability_to(graph, target)
    c_source = top_r_nodes(reach_from, r, source)
    c_target = top_r_nodes(reach_to, r, target)
    edges = candidate_edges_between(
        graph, c_source, c_target, new_edge_prob, h=h,
        forbidden_nodes=forbidden_nodes,
    )
    elapsed = time.perf_counter() - start
    return CandidateSpace(
        source_side=c_source,
        target_side=c_target,
        edges=edges,
        elapsed_seconds=elapsed,
    )


def candidate_edges_between(
    graph: UncertainGraph,
    source_side: Sequence[int],
    target_side: Sequence[int],
    new_edge_prob: NewEdgeProbability,
    h: Optional[int] = None,
    forbidden_nodes: Optional[Set[int]] = None,
) -> List[ProbEdge]:
    """Missing edges from the source side to the target side.

    Applies the h-hop physical constraint when requested.  For undirected
    graphs edges are canonicalized and de-duplicated.
    """
    forbidden = forbidden_nodes or set()
    target_set = [v for v in target_side if v not in forbidden]
    directed = graph.directed
    hop_cache: Dict[int, Set[int]] = {}
    seen: Set[Edge] = set()
    edges: List[ProbEdge] = []
    for u in source_side:
        if u in forbidden:
            continue
        if h is not None:
            if u not in hop_cache:
                hop_cache[u] = graph.within_hops(u, h)
            allowed = hop_cache[u]
        # has_edge(u, v) is ``v in successors(u)``: look the dict up once.
        successors = graph.successors(u)
        for v in target_set:
            if u == v or v in successors:
                continue
            if h is not None and v not in allowed:
                continue
            key = (u, v) if directed or u <= v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            edges.append((key[0], key[1], new_edge_prob(key[0], key[1])))
    return edges


def select_top_l_paths(
    graph: UncertainGraph,
    source: int,
    target: int,
    l: int,
    candidates: Sequence[ProbEdge],
) -> PathSet:
    """§5.1.2: top-l most reliable paths in ``G+`` and surviving candidates.

    Candidate edges that appear on none of the l paths are dropped from
    the search space.
    """
    start = time.perf_counter()
    raw_paths = top_l_most_reliable_paths(graph, source, target, l, candidates)
    candidate_keys = {
        ((u, v) if graph.directed or u <= v else (v, u)): p
        for u, v, p in candidates
    }
    infos: List[PathInfo] = []
    used: Set[Edge] = set()
    for nodes, prob in raw_paths:
        cand_on_path: Set[Edge] = set()
        existing: List[Edge] = []
        for a, b in zip(nodes, nodes[1:], strict=False):
            key = (a, b) if graph.directed or a <= b else (b, a)
            if graph.has_edge(a, b):
                existing.append(key)
            elif key in candidate_keys:
                cand_on_path.add(key)
            else:  # pragma: no cover - defensive
                raise AssertionError(f"path edge {key} neither existing nor candidate")
        used |= cand_on_path
        infos.append(
            PathInfo(
                nodes=nodes,
                probability=prob,
                candidate_edges=frozenset(cand_on_path),
                existing_edges=tuple(existing),
            )
        )
    surviving = [
        (u, v, p) for (u, v), p in candidate_keys.items() if (u, v) in used
    ]
    elapsed = time.perf_counter() - start
    return PathSet(paths=infos, surviving_candidates=surviving, elapsed_seconds=elapsed)
