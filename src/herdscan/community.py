"""Greedy modularity maximization over weighted graphs (Louvain).

Conventions. The adjacency value A[i][j] is the edge weight between i and
j; A[i][i] is the self-loop weight. Degrees are row sums including the
self-loop once, and m is half the sum of all degrees. Modularity of an
assignment g is

    Q = (1/2m) * sum_ij (A[i][j] - k_i*k_j/(2m)) * [g_i == g_j],

computed per community as in_c/(2m) - (tot_c/(2m))^2 where in_c sums
A[i][j] over ordered member pairs (self-loops included) and tot_c sums
member degrees. A graph computes its degrees and m once and caches them.

The algorithm alternates a local-move phase (each node greedily joins the
neighboring community with the largest positive modularity gain) with an
aggregation phase that collapses every community into one node. Community
self-loops carry twice the internal edge weight plus member self-loops,
which keeps both m and Q invariant across aggregation. A local-move phase
starts from singletons and keeps one sum per community, tot_c. Moving an
isolated node i into community c changes Q by

    k_i,in/m - tot_c*k_i/(2m^2),

where k_i,in is i's link weight into c: in_c and i's own self-loop enter
Q both with and without the move and cancel out of the difference. Each
node visit scans the node's neighbors once; those link weights per
community serve every candidate gain. Every sweep visits the nodes in
ascending order, at every level (an aggregate graph's nodes are 0..C-1),
and ties break toward the lowest community id, so a run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .errors import DataError, UncoveredNode
from .graph import SpanningTree

Node = Hashable

#: A move or a new level must raise Q by more than this to count.
GAIN_TOL = 1e-12


@dataclass(frozen=True)
class WeightedGraph:
    nodes: tuple
    adjacency: Mapping[Node, tuple[tuple[Node, float], ...]]
    self_loops: Mapping[Node, float]

    @classmethod
    def from_edges(cls, nodes: Iterable[Node],
                   edges: Iterable[tuple[Node, Node, float]],
                   self_loops: Mapping[Node, float] | None = None
                   ) -> "WeightedGraph":
        node_tuple = tuple(nodes)
        node_set = set(node_tuple)
        if len(node_set) != len(node_tuple):
            raise DataError("duplicate nodes")
        weights: dict[Node, dict[Node, float]] = {n: {} for n in node_tuple}
        for u, v, w in edges:
            if u == v:
                raise DataError(f"self edge {u!r}; use self_loops instead")
            if u not in node_set or v not in node_set:
                raise DataError(f"edge endpoint not in node set: ({u!r}, {v!r})")
            if w < 0:
                raise DataError(f"negative edge weight on ({u!r}, {v!r})")
            weights[u][v] = weights[u].get(v, 0.0) + float(w)
            weights[v][u] = weights[v].get(u, 0.0) + float(w)
        loops = {n: 0.0 for n in node_tuple}
        for n, w in (self_loops or {}).items():
            if n not in node_set:
                raise DataError(f"self-loop node {n!r} not in node set")
            if w < 0:
                raise DataError(f"negative self-loop on {n!r}")
            loops[n] = float(w)
        adjacency = {n: tuple(sorted(weights[n].items(), key=lambda kv: repr(kv[0])))
                     for n in node_tuple}
        g = cls(nodes=node_tuple, adjacency=adjacency, self_loops=loops)
        if g.total_weight <= 0:
            raise DataError("graph total weight m must be positive")
        return g

    @cached_property
    def degrees(self) -> dict[Node, float]:
        """Row sums: each node's edge weights plus its self-loop once."""
        return {n: sum(w for _, w in self.adjacency[n]) + self.self_loops[n]
                for n in self.nodes}

    @cached_property
    def total_weight(self) -> float:
        """m: half the sum of all degrees (self-loops counted once)."""
        edge_sum = sum(w for n in self.nodes for _, w in self.adjacency[n]) / 2.0
        return edge_sum + sum(self.self_loops.values()) / 2.0


@dataclass(frozen=True)
class Partition:
    """Dense community assignment with its modularity value."""

    assignment: Mapping[Node, int]
    communities: tuple[tuple[Node, ...], ...]
    modularity: float

    @classmethod
    def from_assignment(cls, g: WeightedGraph,
                        assignment: Mapping[Node, int]) -> "Partition":
        """Number communities densely by first member in ascending node order.

        Each community lists its members in ascending order; a node missing
        from ``assignment`` raises ``UncoveredNode``.
        """
        order = sorted(g.nodes)
        relabel: dict[int, int] = {}
        dense: dict[Node, int] = {}
        for node in order:
            if node not in assignment:
                raise UncoveredNode(node)
            cid = assignment[node]
            if cid not in relabel:
                relabel[cid] = len(relabel)
            dense[node] = relabel[cid]
        members: list[list[Node]] = [[] for _ in range(len(relabel))]
        for node in order:
            members[dense[node]].append(node)
        return cls(assignment=dense,
                   communities=tuple(tuple(m) for m in members),
                   modularity=modularity(g, dense))


def singleton_assignment(g: WeightedGraph) -> dict:
    """Every node alone, numbered by its place in ascending node order."""
    return {node: i for i, node in enumerate(sorted(g.nodes))}


def modularity(g: WeightedGraph, assignment: Mapping[Node, int]) -> float:
    """Evaluate Q for an assignment covering every node."""
    for node in g.nodes:
        if node not in assignment:
            raise UncoveredNode(node)
    internal: dict[int, float] = {}
    degree_sum: dict[int, float] = {}
    for node in g.nodes:
        cid = assignment[node]
        degree_sum[cid] = degree_sum.get(cid, 0.0) + g.degrees[node]
        inside = g.self_loops[node]
        for nbr, w in g.adjacency[node]:
            if assignment[nbr] == cid:
                inside += w
        internal[cid] = internal.get(cid, 0.0) + inside
    two_m = 2.0 * g.total_weight
    return sum(internal[c] / two_m - (degree_sum[c] / two_m) ** 2
               for c in internal)


def _gain(sig_tot: float, k_i: float, k_in: float, m: float) -> float:
    """Modularity gain from inserting an isolated node into a community.

    ``sig_tot`` is the target's degree sum without the node, ``k_i`` the
    node's degree and ``k_in`` its link weight into the target. The
    target's internal weight cancels out of the difference in Q between
    the joined and the isolated configuration, so it is not an input.
    """
    return k_in / m - sig_tot * k_i / (2.0 * m * m)


def local_move_phase(g: WeightedGraph) -> Partition:
    """Sweep nodes in ascending order, greedily re-homing each one.

    Every node starts in its own community, numbered by its place in
    ascending node order. Each node moves to the neighboring community with
    the largest gain, if it beats staying put by more than ``GAIN_TOL``
    (1e-12); the phase ends when a full sweep moves nothing, so the returned
    modularity is never below the singletons'.

    sigma_tot (member degree sum) per community is the only state besides
    the assignment: each visit takes the node's degree out of its
    community's sum, picks the best community and adds it back there.
    """
    community_of = singleton_assignment(g)
    order = list(community_of)
    sigma_tot = [g.degrees[node] for node in order]
    m = g.total_weight

    while True:
        moved = False
        for node in order:
            weights: dict[int, float] = {}
            for nbr, w in g.adjacency[node]:
                cid = community_of[nbr]
                weights[cid] = weights.get(cid, 0.0) + w
            k_i = g.degrees[node]
            current = community_of[node]
            sigma_tot[current] -= k_i
            best_cid = current
            best_gain = _gain(sigma_tot[current], k_i,
                              weights.get(current, 0.0), m)
            for cid in sorted(weights):
                if cid == current:
                    continue
                gain = _gain(sigma_tot[cid], k_i, weights[cid], m)
                if gain > best_gain + GAIN_TOL:
                    best_cid, best_gain = cid, gain
            sigma_tot[best_cid] += k_i
            community_of[node] = best_cid
            if best_cid != current:
                moved = True
        if not moved:
            break
    return Partition.from_assignment(g, community_of)


def aggregate(g: WeightedGraph, p: Partition) -> WeightedGraph:
    """Collapse each community into one node (ids 0..C-1).

    Cross-community weights add up into single edges; each aggregate node
    gets a self-loop of twice its internal edge weight plus member
    self-loops, preserving m and the modularity of the collapsed partition.
    """
    n_comm = len(p.communities)
    cross: dict[tuple[int, int], float] = {}
    loops = {c: 0.0 for c in range(n_comm)}
    for node in g.nodes:
        cu = p.assignment[node]
        loops[cu] += g.self_loops[node]
        for nbr, w in g.adjacency[node]:
            cv = p.assignment[nbr]
            if cu == cv:
                loops[cu] += w  # both directions visited: totals 2x internal
            elif cu < cv:
                cross[(cu, cv)] = cross.get((cu, cv), 0.0) + w
    return WeightedGraph.from_edges(
        range(n_comm),
        [(u, v, w) for (u, v), w in sorted(cross.items())],
        self_loops=loops,
    )


def louvain(g: WeightedGraph, *, record: list | None = None) -> Partition:
    """Full Louvain: alternate local moves and aggregation to a fixed point.

    Every level visits its nodes in ascending order: the input graph's
    nodes as they sort, an aggregate graph's community ids 0..C-1. It stops
    once a local-move phase gains no more than ``GAIN_TOL`` (1e-12).

    ``record``, when given, accumulates (stage, modularity, m) tuples for
    every phase, which makes the monotonicity of Q and the conservation of
    m across aggregations checkable from outside.
    """
    node_to_comm = {n: n for n in g.nodes}  # original -> current-level node
    current = g
    best_q = modularity(current, singleton_assignment(current))
    if record is not None:
        record.append(("init", best_q, current.total_weight))

    while True:
        part = local_move_phase(current)
        if record is not None:
            record.append(("local_move", part.modularity, current.total_weight))
        if part.modularity - best_q <= GAIN_TOL:
            break
        best_q = part.modularity
        node_to_comm = {n: part.assignment[c] for n, c in node_to_comm.items()}
        if len(part.communities) == len(current.nodes):
            break
        current = aggregate(current, part)
        if record is not None:
            q_trivial = modularity(current, singleton_assignment(current))
            record.append(("aggregate", q_trivial, current.total_weight))

    return Partition.from_assignment(g, node_to_comm)


#: Edge weightings ``graph_from_tree`` accepts.
LOUVAIN_WEIGHTINGS = ("unit", "similarity")


def graph_from_tree(tree: SpanningTree,
                    weighting: str = "unit") -> WeightedGraph:
    """Build the Louvain input graph from a spanning tree.

    ``unit`` ignores distances and keeps pure topology (every edge weight
    1); ``similarity`` uses w = 2 - distance, so closer assets pull
    together harder. Unit weighting is the default because tree distances
    are dissimilarities, which would invert the meaning of a heavy edge.
    """
    if weighting == "unit":
        edges = [(e.a, e.b, 1.0) for e in tree.edges]
    elif weighting == "similarity":
        edges = [(e.a, e.b, 2.0 - e.weight) for e in tree.edges]
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return WeightedGraph.from_edges(tree.nodes, edges)
