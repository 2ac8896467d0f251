from __future__ import annotations

import numpy as np
import pytest

from herdscan.community import (
    LouvainState,
    Partition,
    WeightedGraph,
    aggregate,
    delta_q,
    graph_from_tree,
    local_move_phase,
    louvain,
    modularity,
    singleton_assignment,
)
from herdscan.errors import DataError, UncoveredNode
from herdscan.graph import SpanningTree, TreeEdge

from oracles import best_partition, modularity_of_labels
from generators import clique_block_graph

# --- fixtures ---------------------------------------------------------------


def graph(n, edges, self_loops=None):
    return WeightedGraph.from_edges(range(n), [(u, v, 1.0) for u, v in edges],
                                    self_loops=self_loops)


def barbell():
    """Two triangles joined by one bridge edge."""
    return graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def two_triangles():
    return graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def two_cliques():
    block_a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    block_b = [(i + 4, j + 4) for i, j in block_a]
    return graph(8, block_a + block_b + [(3, 4)])


def ring(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def adjacency_matrix(g):
    idx = {node: i for i, node in enumerate(g.nodes)}
    A = np.zeros((len(g.nodes), len(g.nodes)))
    for node in g.nodes:
        for nbr, w in g.adjacency[node]:
            A[idx[node], idx[nbr]] = w
    return A


def as_label_array(g, partition):
    return np.array([partition.assignment[n] for n in g.nodes])


def communities_as_sets(partition):
    return {frozenset(c) for c in partition.communities}


def random_connected_graph(rng, n, weighted=False):
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    w = float(rng.uniform(0.2, 2.0)) if weighted else 1.0
                    edges.append((i, j, w))
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v, _ in edges:
            parent[find(u)] = find(v)
        if len({find(i) for i in range(n)}) == 1:
            return WeightedGraph.from_edges(range(n), edges)


# --- modularity ----------------------------------------------------------------


class TestModularity:
    def test_single_edge_singletons(self):
        g = graph(2, [(0, 1)])
        assert modularity(g, {0: 0, 1: 1}) == pytest.approx(-0.5, abs=1e-12)

    def test_two_triangles_natural_partition(self):
        g = two_triangles()
        q = modularity(g, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_all_in_one_is_zero(self):
        g = barbell()
        assert modularity(g, {i: 0 for i in range(6)}) == pytest.approx(
            0.0, abs=1e-12)

    def test_uncovered_node(self):
        g = graph(2, [(0, 1)])
        with pytest.raises(UncoveredNode):
            modularity(g, {0: 0})

    def test_matches_matrix_oracle_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            g = random_connected_graph(rng, n, weighted=True)
            labels = rng.integers(0, 3, n)
            q = modularity(g, {i: int(labels[i]) for i in range(n)})
            assert q == pytest.approx(
                modularity_of_labels(adjacency_matrix(g), labels), abs=1e-12)

    def test_matches_networkx_on_random_weighted_graphs(self):
        # networkx counts a self-loop twice in a degree and herdscan once,
        # so the graphs have none.
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(5, 201))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < min(1.0, 6.0 / n)]
            edges = [(i, j, float(rng.uniform(0.1, 3.0))) for i, j in pairs]
            g = WeightedGraph.from_edges(range(n), edges)
            nx_graph = nx.Graph()
            nx_graph.add_nodes_from(range(n))
            nx_graph.add_weighted_edges_from(edges)
            labels = {i: int(rng.integers(0, 4)) for i in range(n)}
            for part in (louvain(g), Partition.from_assignment(g, labels)):
                expected = nx.community.modularity(
                    nx_graph, [set(c) for c in part.communities], weight="weight")
                assert abs(part.modularity - expected) <= 1e-12


# --- delta_q ---------------------------------------------------------------------


class TestDeltaQ:
    def test_joining_all_neighbors_positive(self):
        g = barbell()
        assignment = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        state = LouvainState(g, assignment)
        state.remove(4)
        assert delta_q(4, 1, state) > 0  # rejoin its triangle

    def test_no_edges_into_target_negative(self):
        g = two_triangles()
        assignment = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        state = LouvainState(g, assignment)
        state.remove(0)
        assert delta_q(0, 1, state) < 0  # no links into the other triangle

    def test_barbell_cross_move_negative(self):
        g = barbell()
        assignment = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        for node in (2, 3):
            state = LouvainState(g, assignment)
            state.remove(node)
            own = assignment[node]
            other = 1 - own
            gain_stay = delta_q(node, own, state)
            gain_cross = delta_q(node, other, state)
            assert gain_cross < gain_stay

    def test_consistency_with_full_recomputation(self):
        rng = np.random.default_rng(1)
        for trial in range(40):
            n = int(rng.integers(3, 9))
            g = random_connected_graph(rng, n, weighted=bool(trial % 2))
            labels = rng.integers(0, max(1, n // 2), n)
            assignment = {i: int(labels[i]) for i in range(n)}
            node = int(rng.integers(0, n))
            fresh = max(assignment.values()) + 1

            state = LouvainState(g, assignment)
            state.remove(node)
            iso = {**assignment, node: fresh}
            q_iso = modularity(g, iso)
            for target in set(assignment.values()):
                gain = delta_q(node, target, state)
                q_after = modularity(g, {**assignment, node: target})
                assert gain == pytest.approx(q_after - q_iso, abs=1e-9)

    def test_consistency_with_self_loops(self):
        # aggregated graphs carry self-loops; the gain must stay exact
        g = WeightedGraph.from_edges(
            range(3), [(0, 1, 1.0), (1, 2, 2.0)], self_loops={0: 6.0, 1: 4.0})
        assignment = {0: 0, 1: 0, 2: 1}
        state = LouvainState(g, assignment)
        state.remove(2)
        iso = {0: 0, 1: 0, 2: 2}
        q_iso = modularity(g, iso)
        for target in (0, 1):
            state2 = LouvainState(g, assignment)
            state2.remove(2)
            gain = delta_q(2, target, state2)
            q_after = modularity(g, {0: 0, 1: 0, 2: target})
            assert gain == pytest.approx(q_after - q_iso, abs=1e-12)


# --- local move phase ----------------------------------------------------------------


class TestLocalMovePhase:
    def test_barbell_from_singletons(self):
        g = barbell()
        part = local_move_phase(g)
        assert communities_as_sets(part) == {frozenset({0, 1, 2}),
                                             frozenset({3, 4, 5})}
        q_opt, _ = best_partition(adjacency_matrix(g))
        assert part.modularity == pytest.approx(q_opt, abs=1e-9)

    def test_fixed_point_unchanged(self):
        g = barbell()
        optimal = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        part = local_move_phase(g, optimal)
        assert communities_as_sets(part) == {frozenset({0, 1, 2}),
                                             frozenset({3, 4, 5})}

    def test_single_edge_merges(self):
        g = graph(2, [(0, 1)])
        part = local_move_phase(g)
        assert len(part.communities) == 1
        assert part.modularity == pytest.approx(0.0, abs=1e-12)
        # the accepted move gains exactly +0.5 over the singleton split
        assert part.modularity - modularity(g, {0: 0, 1: 1}) == pytest.approx(0.5)

    def test_never_decreases_modularity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            n = len(g.nodes)
            labels = rng.integers(0, 3, n)
            initial = {i: int(labels[i]) for i in range(n)}
            q0 = modularity(g, initial)
            part = local_move_phase(g, initial)
            assert part.modularity >= q0 - 1e-12


# --- aggregation -------------------------------------------------------------------------


class TestAggregate:
    def test_singleton_aggregation_isomorphic(self):
        g = barbell()
        part = Partition.from_assignment(g, singleton_assignment(g))
        agg = aggregate(g, part)
        assert len(agg.nodes) == len(g.nodes)
        assert adjacency_matrix(agg).tolist() == adjacency_matrix(g).tolist()
        assert agg.total_weight == pytest.approx(g.total_weight, abs=1e-12)

    def test_barbell_triangle_partition(self):
        g = barbell()
        part = Partition.from_assignment(g, {0: 0, 1: 0, 2: 0,
                                             3: 1, 4: 1, 5: 1})
        agg = aggregate(g, part)
        assert len(agg.nodes) == 2
        assert agg.self_loops[0] == pytest.approx(6.0)
        assert agg.self_loops[1] == pytest.approx(6.0)
        assert dict(agg.adjacency[0])[1] == pytest.approx(1.0)

    def test_total_collapse(self):
        g = barbell()
        part = Partition.from_assignment(g, {i: 0 for i in range(6)})
        agg = aggregate(g, part)
        assert len(agg.nodes) == 1
        assert agg.adjacency[0] == ()
        assert agg.self_loops[0] == pytest.approx(2 * g.total_weight)

    def test_preserves_m_and_collapsed_modularity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(4, 9)),
                                       weighted=True)
            n = len(g.nodes)
            labels = rng.integers(0, 3, n)
            part = Partition.from_assignment(g, {i: int(labels[i])
                                                 for i in range(n)})
            agg = aggregate(g, part)
            assert agg.total_weight == pytest.approx(g.total_weight, abs=1e-12)
            trivial = singleton_assignment(agg)
            assert modularity(agg, trivial) == pytest.approx(part.modularity,
                                                             abs=1e-9)


# --- full louvain ------------------------------------------------------------------------


class TestLouvain:
    def test_two_cliques_exact(self):
        g = two_cliques()
        part = louvain(g)
        assert communities_as_sets(part) == {frozenset(range(4)),
                                             frozenset(range(4, 8))}
        q_opt, _ = best_partition(adjacency_matrix(g))
        assert part.modularity == pytest.approx(q_opt, abs=1e-9)

    def test_two_node_tree_one_community(self):
        part = louvain(graph(2, [(0, 1)]))
        assert len(part.communities) == 1
        assert part.modularity == pytest.approx(0.0, abs=1e-12)

    def test_ring6_matches_bruteforce_optimum(self):
        g = ring(6)
        part = louvain(g)
        q_opt, _ = best_partition(adjacency_matrix(g))
        assert part.modularity == pytest.approx(q_opt, abs=1e-9)

    def test_near_optimal_on_structured_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = clique_block_graph(rng)
            part = louvain(g)
            q_opt, _ = best_partition(adjacency_matrix(g))
            assert part.modularity >= 0.98 * q_opt - 1e-12

    def test_dominates_trivial_partitions_on_any_graph(self):
        # bounds that hold without structural assumptions
        rng = np.random.default_rng(44)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(3, 9)),
                                       weighted=bool(rng.integers(0, 2)))
            part = louvain(g)
            assert part.modularity >= modularity(
                g, singleton_assignment(g)) - 1e-12
            assert part.modularity >= modularity(
                g, {n: 0 for n in g.nodes}) - 1e-12

    def test_phase_record_monotone_and_m_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(4, 9)))
            record = []
            louvain(g, record=record)
            m0 = record[0][2]
            last_q = -np.inf
            for stage, q, m in record:
                assert m == pytest.approx(m0, abs=1e-12)
                if stage == "local_move":
                    assert q >= last_q - 1e-12
                    last_q = q
                elif stage == "aggregate":
                    assert q == pytest.approx(last_q, abs=1e-9)

    def test_partition_modularity_field_consistent(self):
        g = barbell()
        part = louvain(g)
        assert part.modularity == pytest.approx(
            modularity(g, part.assignment), abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(4, 9))
            g = random_connected_graph(rng, n)
            perm = rng.permutation(n)
            mapping = {i: int(perm[i]) for i in range(n)}
            edges2 = [(mapping[u], mapping[v], w)
                      for u in g.nodes for v, w in g.adjacency[u] if u < v]
            g2 = WeightedGraph.from_edges(range(n), edges2)
            order = sorted(g.nodes)
            order2 = [mapping[i] for i in order]
            p1 = louvain(g, order=order)
            p2 = louvain(g2, order=order2)
            relabeled = {frozenset(mapping[i] for i in c)
                         for c in communities_as_sets(p1)}
            assert relabeled == communities_as_sets(p2)

    def test_dense_ids_from_zero(self):
        part = louvain(two_cliques())
        ids = sorted(set(part.assignment.values()))
        assert ids == list(range(len(part.communities)))


class TestGraphConstruction:
    def test_from_tree_unit_weights(self):
        tree = SpanningTree(nodes=("A", "B", "C"),
                            edges=(TreeEdge("A", "B", 0.5),
                                   TreeEdge("B", "C", 1.2)),
                            total_weight=1.7)
        g = graph_from_tree(tree)
        assert g.total_weight == pytest.approx(2.0)
        assert dict(g.adjacency["B"]) == {"A": 1.0, "C": 1.0}

    def test_from_tree_similarity_weights(self):
        tree = SpanningTree(nodes=("A", "B", "C"),
                            edges=(TreeEdge("A", "B", 0.5),
                                   TreeEdge("B", "C", 1.2)),
                            total_weight=1.7)
        g = graph_from_tree(tree, "similarity")
        assert dict(g.adjacency["A"])["B"] == pytest.approx(1.5)
        assert dict(g.adjacency["C"])["B"] == pytest.approx(0.8)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(DataError):
            WeightedGraph.from_edges(range(2), [(0, 1, 0.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError):
            WeightedGraph.from_edges(range(2), [(0, 1, -1.0)])
