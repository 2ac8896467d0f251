"""Greedy modularity maximization over weighted graphs (Louvain).

Conventions. The adjacency value A[i][j] is the edge weight between i and
j; A[i][i] is the self-loop weight. Degrees are row sums including the
self-loop once, and m is half the sum of all degrees. Modularity of an
assignment g is

    Q = (1/2m) * sum_ij (A[i][j] - k_i*k_j/(2m)) * [g_i == g_j],

computed per community as in_c/(2m) - (tot_c/(2m))^2 where in_c sums
A[i][j] over ordered member pairs (self-loops included) and tot_c sums
member degrees.

The algorithm alternates a local-move phase (each node greedily joins the
neighboring community with the largest positive modularity gain) with an
aggregation phase that collapses every community into one node. Community
self-loops carry twice the internal edge weight plus member self-loops,
which keeps both m and Q invariant across aggregation. All sweeps follow
a fixed node order and ties break toward the lowest community id, so a
run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

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

    def degree(self, node: Node) -> float:
        return sum(w for _, w in self.adjacency[node]) + self.self_loops[node]

    @property
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
    def from_assignment(cls, g: WeightedGraph, assignment: Mapping[Node, int],
                        order: Sequence[Node] | None = None) -> "Partition":
        order = list(order) if order is not None else _default_order(g)
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


def _default_order(g: WeightedGraph) -> list:
    return sorted(g.nodes)


def singleton_assignment(g: WeightedGraph,
                         order: Sequence[Node] | None = None) -> dict:
    order = list(order) if order is not None else _default_order(g)
    return {node: i for i, node in enumerate(order)}


def modularity(g: WeightedGraph, assignment: Mapping[Node, int]) -> float:
    """Evaluate Q for an assignment covering every node."""
    for node in g.nodes:
        if node not in assignment:
            raise UncoveredNode(node)
    two_m = 2.0 * g.total_weight
    internal: dict[int, float] = {}
    degree_sum: dict[int, float] = {}
    for node in g.nodes:
        cid = assignment[node]
        k = g.degree(node)
        degree_sum[cid] = degree_sum.get(cid, 0.0) + k
        inside = g.self_loops[node]
        for nbr, w in g.adjacency[node]:
            if assignment[nbr] == cid:
                inside += w
        internal[cid] = internal.get(cid, 0.0) + inside
    return sum(internal[c] / two_m - (degree_sum[c] / two_m) ** 2
               for c in internal)


class LouvainState:
    """Incremental per-community sums used by the local-move phase.

    Tracks sigma_in (ordered-pair internal weight), sigma_tot (member
    degree sum) per community, plus node degrees. A node must be isolated
    with :meth:`remove` before gains toward target communities are
    evaluated.
    """

    def __init__(self, g: WeightedGraph, assignment: Mapping[Node, int]):
        self.g = g
        self.m = g.total_weight
        self.community_of: dict[Node, int | None] = {}
        self.degree = {n: g.degree(n) for n in g.nodes}
        self.sigma_tot: dict[int, float] = {}
        self.sigma_in: dict[int, float] = {}
        for node in g.nodes:
            if node not in assignment:
                raise UncoveredNode(node)
        for node in g.nodes:
            cid = assignment[node]
            self.community_of[node] = cid
            self.sigma_tot[cid] = self.sigma_tot.get(cid, 0.0) + self.degree[node]
            inside = g.self_loops[node]
            for nbr, w in g.adjacency[node]:
                if assignment[nbr] == cid:
                    inside += w
            self.sigma_in[cid] = self.sigma_in.get(cid, 0.0) + inside

    def neighbor_weights(self, node: Node) -> dict[int, float]:
        """Total link weight from ``node`` into each community."""
        out: dict[int, float] = {}
        for nbr, w in self.g.adjacency[node]:
            cid = self.community_of[nbr]
            if cid is not None:
                out[cid] = out.get(cid, 0.0) + w
        return out

    def weight_to(self, node: Node, community: int) -> float:
        return sum(w for nbr, w in self.g.adjacency[node]
                   if self.community_of[nbr] == community)

    def remove(self, node: Node) -> int:
        """Isolate ``node`` from its community; returns the old community id."""
        cid = self.community_of[node]
        if cid is None:
            raise DataError(f"node {node!r} already isolated")
        k_in = self.weight_to(node, cid)
        self.sigma_tot[cid] -= self.degree[node]
        self.sigma_in[cid] -= 2.0 * k_in + self.g.self_loops[node]
        self.community_of[node] = None
        return cid

    def insert(self, node: Node, community: int) -> None:
        k_in = self.weight_to(node, community)
        self.sigma_tot[community] = (self.sigma_tot.get(community, 0.0)
                                     + self.degree[node])
        self.sigma_in[community] = (self.sigma_in.get(community, 0.0)
                                    + 2.0 * k_in + self.g.self_loops[node])
        self.community_of[node] = community


def delta_q(node: Node, target_community: int, state: LouvainState, *,
            k_in: float | None = None) -> float:
    """Modularity gain from inserting an isolated node into a community.

    The node must currently be isolated in ``state``. The value equals the
    exact difference in Q between the post-insert and the isolated
    configuration.
    """
    if state.community_of[node] is not None:
        raise DataError(f"node {node!r} must be isolated before delta_q")
    two_m = 2.0 * state.m
    sig_in = state.sigma_in.get(target_community, 0.0)
    sig_tot = state.sigma_tot.get(target_community, 0.0)
    k_i = state.degree[node]
    if k_in is None:
        k_in = state.weight_to(node, target_community)
    joined = (sig_in + 2.0 * k_in) / two_m - ((sig_tot + k_i) / two_m) ** 2
    apart = sig_in / two_m - (sig_tot / two_m) ** 2 - (k_i / two_m) ** 2
    return joined - apart


def local_move_phase(g: WeightedGraph,
                     initial: Mapping[Node, int] | Partition | None = None,
                     *, order: Sequence[Node] | None = None) -> Partition:
    """Sweep nodes in fixed order, greedily re-homing each one.

    Each node moves to the neighboring community with the largest gain, if
    it beats staying put by more than ``GAIN_TOL`` (1e-12); the phase ends
    when a full sweep moves nothing. The returned modularity is never below
    the initial one.
    """
    order = list(order) if order is not None else _default_order(g)
    if initial is None:
        assignment: Mapping[Node, int] = singleton_assignment(g, order)
    elif isinstance(initial, Partition):
        assignment = initial.assignment
    else:
        assignment = initial
    state = LouvainState(g, assignment)

    while True:
        moved = False
        for node in order:
            current = state.remove(node)
            weights = state.neighbor_weights(node)
            best_cid = current
            best_gain = delta_q(node, current, state,
                                k_in=weights.get(current, 0.0))
            for cid in sorted(weights):
                if cid == current:
                    continue
                gain = delta_q(node, cid, state, k_in=weights[cid])
                if gain > best_gain + GAIN_TOL:
                    best_cid, best_gain = cid, gain
            state.insert(node, best_cid)
            if best_cid != current:
                moved = True
        if not moved:
            break
    return Partition.from_assignment(
        g, {n: state.community_of[n] for n in g.nodes}, order=order)


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


def louvain(g: WeightedGraph, *, order: Sequence[Node] | None = None,
            record: list | None = None) -> Partition:
    """Full Louvain: alternate local moves and aggregation to a fixed point.

    It stops once a local-move phase gains no more than ``GAIN_TOL`` (1e-12).

    ``record``, when given, accumulates (stage, modularity, m) tuples for
    every phase, which makes the monotonicity of Q and the conservation of
    m across aggregations checkable from outside.
    """
    order0 = list(order) if order is not None else _default_order(g)
    node_to_comm = {n: n for n in g.nodes}  # original -> current-level node
    current = g
    current_order: Sequence[Node] = order0
    best_q = modularity(current, singleton_assignment(current, current_order))
    if record is not None:
        record.append(("init", best_q, current.total_weight))

    while True:
        part = local_move_phase(current, order=current_order)
        if record is not None:
            record.append(("local_move", part.modularity, current.total_weight))
        if part.modularity - best_q <= GAIN_TOL:
            break
        best_q = part.modularity
        node_to_comm = {n: part.assignment[c] for n, c in node_to_comm.items()}
        if len(part.communities) == len(current.nodes):
            break
        current = aggregate(current, part)
        current_order = list(range(len(current.nodes)))
        if record is not None:
            q_trivial = modularity(
                current, singleton_assignment(current, current_order))
            record.append(("aggregate", q_trivial, current.total_weight))

    return Partition.from_assignment(g, node_to_comm, order=order0)


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
