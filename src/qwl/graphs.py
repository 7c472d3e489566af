"""Finite undirected simple graphs and their adjacency/Laplacian operators.

Vertices are integers 0..n-1.  Product-graph vertices use row-major
indexing, (a, b) -> a*n2 + b, which makes the Kronecker-sum identity for
the product adjacency literal: adj(G1 x G2) = kron(A1, I) + kron(I, A2).
"""

from dataclasses import dataclass

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
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus a set of edges (u < v)."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise TooSmall(f"graph needs at least one vertex, got n={self.n}")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise BadSpec(f"edge ({u},{v}) out of range for n={self.n} (self-loops forbidden)")


def graph(n: int, edges) -> Graph:
    """Build a Graph, normalizing each pair to (min, max) and deduplicating."""
    normalized = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise BadSpec(f"self-loop at vertex {u}")
        normalized.add((min(u, v), max(u, v)))
    return Graph(int(n), frozenset(normalized))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices, edges (j, j+1 mod n)."""
    if n < 3:
        raise TooSmall(f"cycle needs n >= 3 vertices, got {n}")
    return graph(n, [(j, (j + 1) % n) for j in range(n)])


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; (a,b) ~ (a',b') iff one factor steps along an edge."""
    n2 = g2.n
    edges = []
    for a in range(g1.n):
        for u, v in g2.edges:
            edges.append((a * n2 + u, a * n2 + v))
    for u, v in g1.edges:
        for b in range(n2):
            edges.append((u * n2 + b, v * n2 + b))
    return graph(g1.n * n2, edges)


def degrees(g: Graph) -> np.ndarray:
    deg = np.zeros(g.n, dtype=int)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def adjacency(g: Graph) -> np.ndarray:
    """0/1 adjacency matrix (float64, zero diagonal)."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
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
    if g.n and np.all(deg == deg[0]):
        return int(deg[0])
    return None


def json_int(value, what: str) -> int:
    """An integer read from JSON: an int or an integral float, never a bool."""
    integral = isinstance(value, int) and not isinstance(value, bool)
    if not integral and not (isinstance(value, float) and value.is_integer()):
        raise BadSpec(f"{what} must be an integer, got {value!r}")
    return int(value)


def graph_from_json(obj) -> Graph:
    """Parse {"n": int, "edges": [[u, v], ...]} with 0-based vertices."""
    try:
        n = json_int(obj["n"], "vertex count n")
        edge_list = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise BadSpec(f"graph JSON needs 'n' and 'edges': {exc}") from exc
    if not isinstance(edge_list, (list, tuple)):
        raise BadSpec(f"graph 'edges' must be a list, got {type(edge_list).__name__}")
    edges = []
    for e in edge_list:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise BadSpec(f"edge entry {e!r} is not a pair")
        edges.append(tuple(json_int(x, "vertex id") for x in e))
    return graph(n, edges)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
