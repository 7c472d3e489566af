"""Walks shared by several test modules: relabelled cycles and Cayley walks of Z_n."""

from hypothesis import strategies as st

from qwl import graphs, walks

CYCLE7_RELABELLING = (3, 6, 0, 4, 1, 5, 2)


def relabelled_cycle_json(perm=CYCLE7_RELABELLING):
    """Walk JSON of cycle_walk(len(perm)) with vertex j renamed perm[j]."""
    perm = list(perm)
    cyc = walks.cycle_walk(len(perm))
    return {"graph": {"n": len(perm), "edges": [[perm[u], perm[v]] for u, v in cyc.graph.edges]},
            "coin_dim": 2,
            "moves": [[int(perm[row[perm.index(j)]]) for j in range(len(perm))]
                      for row in cyc.moves]}


def relabelled_cycle(perm=CYCLE7_RELABELLING):
    """The relabelled cycle walk, read back through walk_from_json."""
    return walks.walk_from_json(relabelled_cycle_json(perm))


@st.composite
def cayley_walks(draw, max_size=None):
    """Coin-labelled walk on a Cayley graph of Z_n: coin k moves every vertex by s_k."""
    n = draw(st.integers(3, 7))
    half = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=max_size))
    shifts = sorted({s % n for h in half for s in (h, -h)})
    edges = [(j, (j + s) % n) for s in shifts for j in range(n)]
    moves = [[(j + s) % n for j in range(n)] for s in shifts]
    return walks.CoinedWalk(graphs.graph(n, edges), moves)
