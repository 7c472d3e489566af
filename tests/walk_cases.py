"""Walks shared by several test modules: relabelled cycles, Cayley and translation walks."""

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


@st.composite
def translation_walks(draw):
    """Translation walk with a recorded group: Z_n with a random offset set, or Z_n x Z_m.

    The offset set is symmetric (so the graph is regular), drawn in random
    coin order, and each offset is written with a random representative mod
    the shape, negative ones included.
    """
    if draw(st.booleans()):
        shape = (draw(st.integers(3, 8)),)
        half = draw(st.sets(st.integers(1, shape[0] // 2), min_size=1, max_size=2))
        elements = {(s % shape[0],) for h in half for s in (h, -h)}
    else:
        shape = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
        half = draw(st.sets(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]),
                            min_size=1, max_size=2))
        elements = {(sa * a % shape[0], sa * b % shape[1]) for a, b in half for sa in (1, -1)}
    elements = draw(st.permutations(sorted(elements - {(0,) * len(shape)})))
    offsets = [tuple(t - draw(st.integers(0, 1)) * n for t, n in zip(off, shape))
               for off in elements]
    return walks._translation_walk(shape, offsets)
