"""Graph constructions and their operators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwl import graphs
from qwl.errors import BadSpec, TooSmall
from qwl.linalg import kron
from walk_cases import cycle_shift


def complete4():
    return graphs.graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def product_adjacency_bruteforce(g1, g2):
    """Edge-by-edge enumeration of the product-graph adjacency."""
    n2 = g2.n
    n = g1.n * n2
    a = np.zeros((n, n))
    for a1 in range(g1.n):
        for b1 in range(n2):
            for a2 in range(g1.n):
                for b2 in range(n2):
                    same_a = a1 == a2 and (min(b1, b2), max(b1, b2)) in g2.edges
                    same_b = b1 == b2 and (min(a1, a2), max(a1, a2)) in g1.edges
                    if same_a or same_b:
                        a[a1 * n2 + b1, a2 * n2 + b2] = 1
    return a


def test_cycle_graph_structure():
    g3 = graphs.cycle_graph(3)
    assert g3.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    g4 = graphs.cycle_graph(4)
    assert len(g4.edges) == 4
    assert np.all(graphs.degrees(g4) == 2)
    with pytest.raises(TooSmall):
        graphs.cycle_graph(2)


def test_cycle_adjacency_is_circulant_sum():
    for n in (4, 5, 6):
        f = cycle_shift(n)
        assert np.array_equal(graphs.adjacency(graphs.cycle_graph(n)), f + f.T)


def test_cartesian_product_degrees_and_count():
    g = graphs.cartesian_product(graphs.cycle_graph(3), graphs.cycle_graph(3))
    assert g.n == 9
    assert np.all(graphs.degrees(g) == 4)
    assert len(g.edges) == 18


def test_cartesian_product_kron_identity():
    g3, g4 = graphs.cycle_graph(3), graphs.cycle_graph(4)
    prod = graphs.cartesian_product(g3, g4)
    expected = kron(graphs.adjacency(g3), np.eye(4)) + kron(np.eye(3), graphs.adjacency(g4))
    assert np.array_equal(graphs.adjacency(prod), expected)
    assert np.array_equal(graphs.adjacency(prod), product_adjacency_bruteforce(g3, g4))


def test_cartesian_product_degree_additivity():
    path = graphs.graph(3, [(0, 1), (1, 2)])
    g = graphs.cartesian_product(path, graphs.cycle_graph(4))
    d1, d2 = graphs.degrees(path), graphs.degrees(graphs.cycle_graph(4))
    dp = graphs.degrees(g)
    for a in range(3):
        for b in range(4):
            assert dp[a * 4 + b] == d1[a] + d2[b]


def test_adjacency_basics():
    a = graphs.adjacency(complete4())
    assert np.array_equal(a, np.ones((4, 4)) - np.eye(4))
    empty = graphs.graph(3, [])
    assert np.array_equal(graphs.adjacency(empty), np.zeros((3, 3)))


def test_laplacian_identities():
    g4 = graphs.cycle_graph(4)
    lap = graphs.laplacian(g4)
    assert np.array_equal(lap, graphs.adjacency(g4) - 2 * np.eye(4))
    # 2-lattice: L = -2d*1 + A
    g = graphs.cartesian_product(graphs.cycle_graph(3), graphs.cycle_graph(3))
    assert np.array_equal(graphs.laplacian(g), graphs.adjacency(g) - 4 * np.eye(9))
    edge = graphs.graph(2, [(0, 1)])
    assert np.array_equal(graphs.laplacian(edge), np.array([[-1, 1], [1, -1]], dtype=complex))


def test_laplacian_row_sums_exact():
    for g in (graphs.cycle_graph(5), complete4(), graphs.graph(3, [(0, 1)])):
        lap = graphs.laplacian(g)
        assert np.all(lap.sum(axis=0) == 0)
        assert np.all(lap.sum(axis=1) == 0)
        assert np.array_equal(lap, graphs.adjacency(g) - np.diag(graphs.degrees(g)))


def test_regular_degree():
    assert graphs.regular_degree(graphs.cycle_graph(7)) == 2
    assert graphs.regular_degree(complete4()) == 3
    assert graphs.regular_degree(graphs.graph(3, [(0, 1), (1, 2)])) is None


def test_graph_rejects_self_loops():
    with pytest.raises(BadSpec):
        graphs.graph(3, [(1, 1)])
    with pytest.raises(BadSpec):
        graphs.Graph(3, frozenset({(0, 5)}))


def test_graph_json_roundtrip_and_validation():
    g = graphs.cycle_graph(5)
    assert graphs.graph_from_json(graphs.graph_to_json(g)) == g
    with pytest.raises(BadSpec):
        graphs.graph_from_json({"n": 3, "edges": [[0, 3]]})
    with pytest.raises(BadSpec):
        graphs.graph_from_json({"n": 3, "edges": [[2, 2]]})
    with pytest.raises(BadSpec):
        graphs.graph_from_json({"n": 3})


def test_graph_json_text_is_refused():
    text = json.dumps(graphs.graph_to_json(graphs.cycle_graph(4)))
    for bad in (text, text.encode(), text[:-1]):
        with pytest.raises(BadSpec):
            graphs.graph_from_json(bad)


def test_graph_json_integers():
    # integral floats are integers; fractions and bools are not truncated
    assert graphs.graph_from_json({"n": 3.0, "edges": [[0, 1.0]]}) == graphs.graph(3, [(0, 1)])
    for bad in ({"n": 4.9, "edges": []}, {"n": True, "edges": []},
                {"n": 3, "edges": [[0, 1.5]]}, {"n": 3, "edges": [[False, 1]]},
                {"n": 3, "edges": [[0, "1"]]}, {"n": 3, "edges": 5}, {"n": 3, "edges": [5]}):
        with pytest.raises(BadSpec):
            graphs.graph_from_json(bad)
    assert graphs.json_int(7, "x") == 7 and graphs.json_int(7.0, "x") == 7
    for bad in (2.5, True, float("nan"), float("inf"), None, "3"):
        with pytest.raises(BadSpec):
            graphs.json_int(bad, "x")


def oracle_checked(n, edges):
    """Graph's check as a loop over the given pairs, before a graph held an edge array."""
    if n < 1:
        raise TooSmall(f"graph needs at least one vertex, got n={n}")
    for u, v in edges:
        if not (0 <= u < v < n):
            raise BadSpec(f"edge ({u},{v}) out of range for n={n} (self-loops forbidden)")
    return n, frozenset(edges)


def oracle_graph(n, edges):
    """graph(n, edges) as a frozenset of (min, max) pairs, built pair by pair."""
    normalized = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise BadSpec(f"self-loop at vertex {u}")
        normalized.add((min(u, v), max(u, v)))
    return oracle_checked(int(n), frozenset(normalized))


def oracle_degrees(n, edges):
    deg = np.zeros(n, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def oracle_adjacency(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


@st.composite
def edge_lists(draw):
    """(n, pairs): repeats, reversed pairs, and on request self-loops and ids out of range."""
    n = draw(st.integers(0, 6))
    reach = draw(st.sampled_from([0, 0, 0, 2]))  # how far ids may stray outside 0..n-1
    ids = st.integers(-reach, max(n - 1 + reach, 0))
    pair = st.tuples(ids, ids)
    if not draw(st.booleans()):
        pair = pair.filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=12))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []
    edges += [e[::-1] if draw(st.booleans()) else e for e in repeats]
    return n, draw(st.permutations(edges))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(edge_lists())
def test_graph_matches_the_frozenset_oracle(case):
    n, edges = case
    try:
        expected = oracle_graph(n, edges)
    except (BadSpec, TooSmall) as exc:
        with pytest.raises(type(exc)) as err:
            graphs.graph(n, edges)
        # the oracle names the first bad pair in its set's order, graph the first in the input's
        normalized = [(min(e), max(e)) for e in edges]
        bad = [e for e in dict.fromkeys(normalized) if not (0 <= e[0] < e[1] < n)]
        if str(exc).startswith("edge") and len(bad) > 1:
            u, v = bad[0]
            assert str(err.value) == f"edge ({u},{v}) out of range for n={n} (self-loops forbidden)"
        else:
            assert str(err.value) == str(exc)
        return
    g = graphs.graph(n, edges)
    assert (g.n, g.edges) == expected
    pairs = [list(e) for e in sorted(expected[1])]
    assert g.edge_array.tolist() == pairs == graphs.graph_to_json(g)["edges"]
    assert not g.edge_array.flags.writeable
    assert np.array_equal(graphs.degrees(g), oracle_degrees(*expected))
    assert np.array_equal(graphs.adjacency(g), oracle_adjacency(*expected))
    assert graphs.Graph(n, expected[1]) == g and hash(graphs.Graph(n, expected[1])) == hash(g)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(edge_lists())
def test_graph_constructor_matches_the_oracle_check(case):
    n, edges = case
    for given_edges in (edges, frozenset(edges)):
        try:
            expected = oracle_checked(n, given_edges)
        except (BadSpec, TooSmall) as exc:
            with pytest.raises(type(exc)) as err:
                graphs.Graph(n, given_edges)
            assert str(err.value) == str(exc)
            continue
        g = graphs.Graph(n, given_edges)
        assert (g.n, g.edges) == expected
        assert np.array_equal(graphs.degrees(g), oracle_degrees(*expected))
        assert np.array_equal(graphs.adjacency(g), oracle_adjacency(*expected))


def test_graphs_compare_by_vertex_count_and_edges():
    g = graphs.graph(4, [(0, 1), (2, 1)])
    assert g == graphs.graph(4, [(1, 2), (1, 0), (0, 1)]) == graphs.Graph(4, {(1, 2), (0, 1)})
    assert g != graphs.graph(5, [(0, 1), (1, 2)]) and g != graphs.graph(4, [(0, 1)])
    assert g != (4, g.edges) and len({g, graphs.graph(4, [(1, 2), (0, 1)])}) == 1


def test_vertex_ids_beyond_int64_are_out_of_range():
    huge = 10 ** 30
    with pytest.raises(BadSpec, match=f"edge \\(0,{huge}\\) out of range for n=3"):
        graphs.graph(3, [(0, 1), (huge, 0)])
    with pytest.raises(BadSpec, match=f"self-loop at vertex {huge}"):
        graphs.graph(3, [(huge, huge), (0, huge)])
    with pytest.raises(BadSpec, match=f"edge \\(0,{huge}\\) out of range for n=3"):
        graphs.graph_from_json({"n": 3, "edges": [[0, 1], [huge, 0]]})
