"""Finite undirected simple graphs and their adjacency/Laplacian operators.

Vertices are integers 0..n-1; a graph's edges are one read-only sorted (E, 2)
array of unique rows u < v, built and read by array operations.  Product-graph
vertices use row-major indexing, (a, b) -> a*n2 + b, which makes the Kronecker-sum
identity for the product adjacency literal: adj(G1 x G2) = kron(A1, I) + kron(I, A2).
"""

from itertools import chain

import numpy as np

from .errors import BadSpec, TooSmall

__all__ = [
    "Graph",
    "graph",
    "cycle_graph",
    "cartesian_product",
    "adjacency",
    "laplacian",
    "degrees",
    "regular_degree",
    "graph_from_json",
    "graph_to_json",
    "json_int",
    "json_int_rows",
]


def _pairs(edges) -> np.ndarray:
    """edges (an array or any collection of pairs) as (E, 2), in order; huge ids stay exact."""
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        return np.array(edges, dtype=int).reshape(-1, 2)
    except OverflowError:  # an id beyond int64, out of range unless n is too
        return np.array(edges, dtype=object).reshape(-1, 2)


class Graph:
    """Undirected simple graph: vertex count plus its edges (u < v) as one read-only sorted array.

    Graph(n, edges) takes pairs u < v in any collection, repeats allowed, and refuses the
    first one out of range.  edges is the frozenset of pairs, made on demand."""

    def __init__(self, n: int, edge_array):
        self.n = n
        if self.n < 1:
            raise TooSmall(f"graph needs at least one vertex, got n={self.n}")
        e = _pairs(edge_array)
        bad = (e[:, 0] < 0) | (e[:, 0] >= e[:, 1]) | (e[:, 1] >= self.n)
        if bad.any():
            u, v = e[bad.argmax()].tolist()
            raise BadSpec(f"edge ({u},{v}) out of range for n={self.n} (self-loops forbidden)")
        n = self.n if self.n <= 2**31 else np.array(self.n, dtype=object)  # keys stay exact
        keys = np.sort(e[:, 0] * n + e[:, 1])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        e = np.stack([keys // n, keys % n], axis=-1).astype(int)
        e.setflags(write=False)
        self.edge_array = e

    @property
    def edges(self) -> frozenset:
        return frozenset(map(tuple, self.edge_array.tolist()))

    def __eq__(self, other):
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))


def graph(n: int, edges) -> Graph:
    """Build a Graph, normalizing each pair to (min, max) and deduplicating."""
    e = _pairs(edges)
    loops = e[:, 0] == e[:, 1]
    if loops.any():
        raise BadSpec(f"self-loop at vertex {e[loops.argmax(), 0]}")
    return Graph(int(n), np.sort(e, axis=1))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices, edges (j, j+1 mod n)."""
    if n < 3:
        raise TooSmall(f"cycle needs n >= 3 vertices, got {n}")
    return graph(n, [(j, (j + 1) % n) for j in range(n)])


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; (a,b) ~ (a',b') iff one factor steps along an edge."""
    n2 = g2.n
    inner = np.arange(g1.n)[:, None, None] * n2 + g2.edge_array  # (a, u) ~ (a, v)
    outer = g1.edge_array * n2 + np.arange(n2)[:, None, None]  # (u, b) ~ (v, b)
    return graph(g1.n * n2, np.concatenate([inner.reshape(-1, 2), outer.reshape(-1, 2)]))


def degrees(g: Graph) -> np.ndarray:
    return np.bincount(g.edge_array.ravel(), minlength=g.n)


def adjacency(g: Graph) -> np.ndarray:
    """0/1 adjacency matrix (float64, zero diagonal)."""
    a = np.zeros((g.n, g.n))
    u, v = g.edge_array.T
    a[u, v] = 1
    a[v, u] = 1
    return a


def laplacian(g: Graph) -> np.ndarray:
    """L = A - diag(deg) (float64); rows and columns sum to zero exactly."""
    a = adjacency(g)
    return a - np.diag(a.sum(axis=1))


def regular_degree(g: Graph):
    """The common vertex degree, or None if the graph is not regular."""
    deg = degrees(g)
    return int(deg[0]) if np.all(deg == deg[0]) else None


def json_int(value, what: str) -> int:
    """An integer read from JSON: an int or an integral float, never a bool."""
    integral = isinstance(value, int) and not isinstance(value, bool)
    if not integral and not (isinstance(value, float) and value.is_integer()):
        raise BadSpec(f"{what} must be an integer, got {value!r}")
    return int(value)


def json_int_rows(rows, what: str) -> list:
    """Rows of JSON integers for np.array; only rows not all ints go through json_int one by one."""
    if (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        return rows
    return [[json_int(x, what) for x in row] for row in rows]


def _json_pair(e) -> list:
    if not isinstance(e, (list, tuple)) or len(e) != 2:
        raise BadSpec(f"edge entry {e!r} is not a pair")
    return [json_int(x, "vertex id") for x in e]


def graph_from_json(obj) -> Graph:
    """Parse {"n": int, "edges": [[u, v], ...]} with 0-based vertices."""
    if not isinstance(obj, dict):
        raise BadSpec(f"a graph must be a JSON object, got {type(obj).__name__}")
    try:
        n = json_int(obj["n"], "vertex count n")
        edge_list = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise BadSpec(f"graph JSON needs 'n' and 'edges': {exc}") from exc
    if not isinstance(edge_list, (list, tuple)):
        raise BadSpec(f"graph 'edges' must be a list, got {type(edge_list).__name__}")
    if not (set(map(type, edge_list)) <= {list} and set(map(len, edge_list)) <= {2}):
        edge_list = [_json_pair(e) for e in edge_list]  # names the first bad pair or entry
    return graph(n, json_int_rows(edge_list, "vertex id"))


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edge_array.tolist()}
