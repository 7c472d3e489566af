"""Walks shared by several test modules: the cycle shift F, relabelled and turn-or-flip
cycles, Cayley and translation walks."""

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from qwl import graphs, walks

CYCLE7_RELABELLING = (3, 6, 0, 4, 1, 5, 2)


def cycle_shift(n):
    """The cyclic forward shift F on n vertices, F e_k = e_{k+1 mod n}, as float64 0/1."""
    return np.roll(np.eye(n), 1, axis=0)


def relabelled_json(w, perm):
    """walk_to_json(w) with vertex j renamed perm[j]."""
    perm = [int(p) for p in perm]
    obj = walks.walk_to_json(w)
    obj["graph"]["edges"] = [[perm[u], perm[v]] for u, v in obj["graph"]["edges"]]
    obj["moves"] = [[perm[row[perm.index(j)]] for j in range(len(perm))] for row in obj["moves"]]
    return obj


def relabelled(w, perm):
    """w with vertex j renamed perm[j], read back through walk_from_json."""
    return walks.walk_from_json(relabelled_json(w, perm))


def relabelled_cycle_json(perm=CYCLE7_RELABELLING):
    """Walk JSON of cycle_walk(len(perm)) with vertex j renamed perm[j]."""
    return relabelled_json(walks.cycle_walk(len(perm)), perm)


def relabelled_cycle(perm=CYCLE7_RELABELLING):
    """The relabelled cycle walk, read back through walk_from_json."""
    return relabelled(walks.cycle_walk(len(perm)), perm)


def turn_or_flip_cycle_json(n=6):
    """A walk on the even n-cycle: coin 0 turns it forward, coin 1 swaps 2i <-> 2i+1.

    Coin 0 alone reaches every vertex, but the moves do not commute, so
    they generate no translation group.
    """
    return {"graph": graphs.graph_to_json(graphs.cycle_graph(n)), "coin_dim": 2,
            "moves": [[(j + 1) % n for j in range(n)], [j ^ 1 for j in range(n)]]}


def turn_or_flip_cycle(n=6):
    """The turn-or-flip walk, read back through walk_from_json."""
    return walks.walk_from_json(turn_or_flip_cycle_json(n))


def two_triangles():
    """A two-coin walk on two disjoint triangles; the moves do not act transitively, so it
    has no group, and coin 1's moves undo coin 0's."""
    return walks.walk_from_json({
        "graph": {"n": 6, "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]},
        "coin_dim": 2, "moves": [[1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4]]})


CYCLE8_CHORDS = ((0, 2), (1, 5), (3, 7), (4, 6))


def repeated_target_json(c, chords=()):
    """c coins that all step +1 on the 8-cycle, on the cycle with chords added.

    The moves commute and act transitively, so the walk has a group, but the
    coins at every vertex repeat one target, so A is not the sum of the moves.
    """
    edges = [[j, (j + 1) % 8] for j in range(8)] + [list(e) for e in chords]
    return {"graph": {"n": 8, "edges": edges}, "coin_dim": c,
            "moves": [[(j + 1) % 8 for j in range(8)]] * c}


def generates(shape, elements) -> bool:
    """True iff the elements generate the whole group Z_shape."""
    reached, frontier = {(0,) * len(shape)}, [(0,) * len(shape)]
    while frontier:
        g = frontier.pop()
        for e in elements:
            h = tuple((a + b) % n for a, b, n in zip(g, e, shape))
            if h not in reached:
                reached.add(h)
                frontier.append(h)
    return len(reached) == math.prod(shape)


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
    """Translation walk on Z_n with a random offset set, or on Z_n x Z_m.

    The offset set generates the group (so the moves act transitively) and
    is symmetric (so the graph is regular); it is drawn in random coin
    order, and each offset is written with a random representative mod the
    shape, negative ones included.
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
    assume(generates(shape, elements))
    elements = draw(st.permutations(sorted(elements - {(0,) * len(shape)})))
    offsets = [tuple(t - draw(st.integers(0, 1)) * n for t, n in zip(off, shape))
               for off in elements]
    return walks._translation_walk(shape, offsets)


def _composite(n) -> bool:
    return any(n % d == 0 for d in range(2, math.isqrt(n) + 1))


@st.composite
def larger_translation_walks(draw):
    """Translation walk on Z_n, n composite up to 300, or on Z_n1 x Z_n2 up to 300 vertices.

    A coin's orbit factor m is then often over sqrt N and composite, so the
    group grows it in two stages.  The offsets generate the group and come in
    +- pairs, in random coin order, each with a random representative mod the shape.
    """
    if draw(st.booleans()):
        shape = (draw(st.integers(4, 300).filter(_composite)),)
    else:
        n1 = draw(st.integers(2, 17))
        shape = (n1, draw(st.integers(max(2, 4 // n1), 300 // n1)))
    half = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in shape)),
                         min_size=1, max_size=2, unique=True))
    elements = {tuple(s * t % n for t, n in zip(h, shape)) for h in half for s in (1, -1)}
    elements -= {(0,) * len(shape)}
    assume(generates(shape, elements))
    elements = draw(st.permutations(sorted(elements)))
    offsets = [tuple(t - draw(st.integers(0, 1)) * n for t, n in zip(off, shape))
               for off in elements]
    return walks._translation_walk(shape, offsets)
