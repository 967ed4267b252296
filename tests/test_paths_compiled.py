"""Compiled path search equals the dict-adjacency search it replaced.

:class:`repro.paths.PathGraph` compiles ``G`` plus a candidate overlay
once, and every Dijkstra/Yen search runs over its index arrays.  The
oracle below is the dict-adjacency Dijkstra and Yen the library used
before the compiled form: heap entries ``(d, node_id)``, neighbours in
``successors`` order then overlay order, ``d - log p`` relaxations.
The compiled search must return the same ``(path, probability)`` lists
with ``==`` — not approximately — including on graphs built to have
exact weight ties, so tie-breaking is pinned too.

Seeds are fixed here and never re-chosen.
"""

from __future__ import annotations

import math
import random
from heapq import heappop, heappush
from typing import Dict, List, Set, Tuple

import pytest

import repro.core.search_space as search_space
from repro.core.search_space import eliminate_search_space, select_top_l_paths
from repro.graph import (
    UncertainGraph,
    assign_uniform,
    erdos_renyi,
    fixed_new_edge_probability,
)
from repro.paths import PathGraph, most_reliable_path, top_l_most_reliable_paths
from repro.paths.dijkstra import path_probability
from repro.reliability import build_overlay, make_estimator

SEEDS = [3, 11, 29, 47, 83, 101, 149, 211]
TIE_PROBS = (0.25, 0.5, 1.0)
ZETA = 0.5


# ----------------------------------------------------------------------
# oracle: the dict-adjacency search
# ----------------------------------------------------------------------
def oracle_path(graph, source, target, extra_edges=None,
                forbidden_nodes=None, forbidden_edges=None):
    if source == target:
        return [source], 1.0
    if source not in graph or (target not in graph and not extra_edges):
        return None, 0.0
    overlay = build_overlay(graph, extra_edges)
    banned_nodes = forbidden_nodes or ()
    banned_edges = forbidden_edges or ()
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited: Set[int] = set()
    while heap:
        d, u = heappop(heap)
        if u in visited:
            continue
        if u == target:
            break
        visited.add(u)
        neighbors = list(graph.successors(u).items())
        if overlay and u in overlay:
            neighbors.extend(overlay[u])
        for v, p in neighbors:
            if v in visited or v in banned_nodes or p <= 0.0:
                continue
            if (u, v) in banned_edges:
                continue
            nd = d - math.log(p)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    if target not in dist:
        return None, 0.0
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path, math.exp(-dist[target])


def oracle_top_l(graph, source, target, l, extra_edges=None):
    extra = list(extra_edges) if extra_edges else None
    extra_probs: Dict[Tuple[int, int], float] = {}
    for u, v, p in extra or ():
        extra_probs[(u, v)] = p
        if not graph.directed:
            extra_probs[(v, u)] = p
    first_path, first_prob = oracle_path(graph, source, target, extra)
    if first_path is None or first_prob <= 0.0:
        return []
    found = [(first_path, first_prob)]
    candidates: List[Tuple[float, List[int]]] = []
    seen = {tuple(first_path)}
    while len(found) < l:
        prev_path = found[-1][0]
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root = prev_path[: i + 1]
            banned_edges = set()
            for path, _ in found:
                if len(path) > i and path[: i + 1] == root:
                    banned_edges.add((path[i], path[i + 1]))
                    if not graph.directed:
                        banned_edges.add((path[i + 1], path[i]))
            spur_path, spur_prob = oracle_path(
                graph, spur_node, target, extra,
                forbidden_nodes=set(root[:-1]),
                forbidden_edges=banned_edges,
            )
            if spur_path is None or spur_prob <= 0.0:
                continue
            total = root[:-1] + spur_path
            if tuple(total) in seen:
                continue
            seen.add(tuple(total))
            prob = path_probability(graph, total, extra_probs)
            if prob <= 0.0:
                continue
            heappush(candidates, (-math.log(prob), total))
        if not candidates:
            break
        weight, best = heappop(candidates)
        found.append((best, math.exp(-weight)))
    return found


# ----------------------------------------------------------------------
# graphs with deliberate exact ties
# ----------------------------------------------------------------------
def tie_graph(seed: int, directed: bool, n: int = 24, m: int = 60,
              zero_share: float = 0.1, ties: bool = True) -> UncertainGraph:
    """Random graph over shuffled, non-contiguous node ids.

    Probabilities come from {0.25, 0.5, 1.0} (so many paths weigh
    exactly the same), or with ``ties=False`` uniformly from (0, 1) (so
    the last bit of every weight matters), plus a share of p = 0 edges;
    nodes are inserted in shuffled order so insertion order and id
    order disagree.
    """
    rng = random.Random(seed)
    ids = rng.sample(range(5, 500), n)
    graph = UncertainGraph(directed=directed)
    for u in ids:
        graph.add_node(u)
    while graph.num_edges < m:
        u, v = rng.sample(ids, 2)
        if graph.has_edge(u, v):
            continue
        if rng.random() < zero_share:
            p = 0.0
        elif ties:
            p = rng.choice(TIE_PROBS)
        else:
            p = 1.0 - rng.random()
        graph.add_edge(u, v, p)
    return graph


def tie_overlay(graph: UncertainGraph, seed: int, k: int = 25,
                outsiders: int = 2) -> List[Tuple[int, int, float]]:
    """Candidate edges at p = zeta, some stacked on existing edges, some
    to endpoints the graph lacks, one at p = 0."""
    rng = random.Random(seed + 1)
    nodes = sorted(graph.nodes())
    fresh = [1000 + i for i in range(outsiders)]
    overlay = []
    for _ in range(k):
        u, v = rng.sample(nodes + fresh, 2)
        overlay.append((u, v, ZETA))
    u, v, _ = next(iter(graph.edges()))
    overlay.append((u, v, ZETA))  # stacked on an existing edge
    overlay.append((nodes[0], nodes[-1], 0.0))
    return overlay


CASES = [(seed, directed) for seed in SEEDS for directed in (False, True)]


@pytest.mark.parametrize("ties", [True, False])
@pytest.mark.parametrize("seed,directed", CASES)
def test_single_searches_match_oracle(seed, directed, ties):
    graph = tie_graph(seed, directed, ties=ties)
    overlay = tie_overlay(graph, seed)
    compiled = PathGraph(graph, overlay)
    rng = random.Random(seed + 2)
    nodes = sorted(graph.nodes())
    endpoints = nodes + [1000, 1001, 9999]  # overlay-only and unknown
    for _ in range(40):
        s, t = rng.choice(endpoints), rng.choice(endpoints)
        banned_nodes = set(rng.sample(nodes, 3))
        banned_edges = {
            (u, v) for u, v, _ in rng.sample(list(graph.edges()), 4)
        }
        for extra, bn, be in (
            (None, None, None),
            (overlay, None, None),
            (overlay, banned_nodes, banned_edges),
            (None, banned_nodes, banned_edges),
        ):
            want = oracle_path(graph, s, t, extra, bn, be)
            assert most_reliable_path(graph, s, t, extra, bn, be) == want
            if extra is not None:
                assert most_reliable_path(
                    compiled, s, t, forbidden_nodes=bn, forbidden_edges=be
                ) == want


@pytest.mark.parametrize("seed,directed", CASES)
def test_top_l_matches_oracle(seed, directed):
    graph = tie_graph(seed, directed)
    overlay = tie_overlay(graph, seed)
    rng = random.Random(seed + 3)
    nodes = sorted(graph.nodes())
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(6)]
    pairs += [(nodes[0], 1000), (1000, nodes[1]), (nodes[2], nodes[2]),
              (nodes[3], 9999), (9999, 9999)]
    for s, t in pairs:
        for extra in (None, overlay):
            want = oracle_top_l(graph, s, t, 12, extra)
            assert top_l_most_reliable_paths(graph, s, t, 12, extra) == want


def test_ties_are_exercised():
    """The tie graphs really do produce equal-probability paths."""
    graph = tie_graph(SEEDS[0], False)
    overlay = tie_overlay(graph, SEEDS[0])
    nodes = sorted(graph.nodes())
    paths = top_l_most_reliable_paths(graph, nodes[0], nodes[-1], 12, overlay)
    probs = [p for _, p in paths]
    assert len(set(probs)) < len(probs)


def test_source_must_be_a_graph_node():
    """An overlay-only node never starts a search, even a spur search."""
    graph = UncertainGraph.from_edges([(0, 1, 0.5)])
    overlay = [(1, 7, 0.5), (7, 2, 0.5), (1, 2, 0.1)]
    assert most_reliable_path(graph, 7, 2, overlay) == (None, 0.0)
    assert most_reliable_path(PathGraph(graph, overlay), 7, 2) == (None, 0.0)
    assert most_reliable_path(graph, 0, 2, overlay) == oracle_path(
        graph, 0, 2, overlay
    )
    assert top_l_most_reliable_paths(graph, 0, 2, 5, overlay) == (
        oracle_top_l(graph, 0, 2, 5, overlay)
    )


def test_path_graph_layout():
    graph = UncertainGraph(directed=True)
    for u in (9, 3, 5):
        graph.add_node(u)
    graph.add_edge(9, 5, 0.5)
    graph.add_edge(9, 3, 0.0)
    compiled = PathGraph(graph, [(9, 4, 0.25), (5, 9, 1.0)])
    assert compiled.node_ids == [3, 4, 5, 9]
    assert list(compiled.in_graph) == [1, 0, 1, 1]
    # Graph successors first (p = 0 dropped), then overlay edges.
    assert compiled.adjacency[3] == [(2, -math.log(0.5)), (1, -math.log(0.25))]
    assert compiled.adjacency[2] == [(3, -math.log(1.0))]


def test_be_path_set_matches_oracle(monkeypatch):
    """BE's §5.1.2 pruning on an eliminated candidate space."""
    graph = assign_uniform(erdos_renyi(300, num_edges=900, seed=5), 0.05, 0.5,
                           seed=5)
    estimator = make_estimator("mc", 200, seed=1)
    prob_model = fixed_new_edge_probability(ZETA)
    rng = random.Random(17)
    checked = 0
    for _ in range(3):
        s, t = rng.sample(range(300), 2)
        space = eliminate_search_space(
            graph, s, t, r=20, new_edge_prob=prob_model, estimator=estimator
        )
        got = select_top_l_paths(graph, s, t, 20, space.edges)
        with monkeypatch.context() as patch:
            patch.setattr(search_space, "top_l_most_reliable_paths",
                          oracle_top_l)
            want = select_top_l_paths(graph, s, t, 20, space.edges)
        assert [(p.nodes, p.probability, p.candidate_edges,
                 p.existing_edges) for p in got.paths] == [
            (p.nodes, p.probability, p.candidate_edges, p.existing_edges)
            for p in want.paths
        ]
        assert got.surviving_candidates == want.surviving_candidates
        checked += len(got.paths)
    assert checked > 0
