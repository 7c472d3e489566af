"""Coined discrete-time quantum walks, their edge-space form, and propagators.

Basis ordering on the coin x walker space is coin-major throughout:
state (c_k, j) sits at index k*N + j.  Every dense matrix in the package
relies on this convention.  ``apply_step`` applies a walk step S (C x 1) as
a coin contraction and a row permutation; ``shift_matrix`` is the dense
float64 reference for S.  ``CoinedWalk(graph, moves)`` is the one constructor,
and it checks the size cap ``MAX_DIM`` and the move table, so every walk's
shift is a permutation.  The built-in walks are translation walks on Z_n,
Z_n^d and Z_2^2, all built from their move tables by ``_translation_walk``;
``cycle_walk`` and ``lattice_walk`` check the cap before they build a table.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .errors import (
    BadSpec,
    DomainExceeded,
    NotAnEdge,
    NotBijective,
    NotLaplacian,
    NotRegular,
    NotUnitary,
    QwlError,
    TooSmall,
    Unstable,
)
from .linalg import as_matrix, expm_hermitian, frob, is_unitary

__all__ = [
    "CoinedWalk",
    "EdgeWalk",
    "circulant_shift",
    "cycle_walk",
    "lattice_walk",
    "example_walk",
    "shift_matrix",
    "shift_order",
    "checked_shift_order",
    "apply_step",
    "step_operator",
    "coined_to_edge_walk",
    "intertwining_residual",
    "ctqw_propagator",
    "ctrw_propagator",
    "dtrw_step",
    "walk_from_json",
    "walk_to_json",
]

# Largest coin_dim * walker_dim a walk may have; its dense operators are dim x dim.
MAX_DIM = 8192


def _check_dim(coin_dim: int, walker_dim: int):
    if coin_dim * walker_dim > MAX_DIM:
        raise DomainExceeded(f"walk dimension coin_dim * walker_dim exceeds MAX_DIM = {MAX_DIM}")


def circulant_shift(n: int) -> np.ndarray:
    """Cyclic forward shift F with F e_k = e_{k+1 mod n}."""
    if n < 2:
        raise TooSmall(f"circulant shift needs n >= 2, got {n}")
    f = np.zeros((n, n))
    f[(np.arange(n) + 1) % n, np.arange(n)] = 1
    return f


@dataclass(frozen=True)
class CoinedWalk:
    """Coined walk on a regular graph: per-coin-result vertex moves plus the shift.

    moves[k, j] is the vertex reached from j on coin result k; shift is the
    permutation of {0..cN-1} sending index k*N+j to k*N+moves[k, j].
    Construction checks, in order: coin_dim * walker_dim <= MAX_DIM, before
    anything sized by the graph is allocated; that the graph is regular of
    degree m and the table is m x N; and, row by row, that each row is a
    bijection on vertices whose every move follows an edge.
    """

    graph: graphs.Graph
    moves: np.ndarray
    shift: np.ndarray = field(init=False)

    def __post_init__(self):
        g = self.graph
        moves = np.array(self.moves, dtype=int, ndmin=1)
        _check_dim(len(moves), g.n)
        m = graphs.regular_degree(g)
        if m is None:
            raise NotRegular("coined walks need a regular graph")
        if moves.shape != (m, g.n):
            raise BadSpec(f"moves table must be {m}x{g.n} for this graph, got {moves.shape}")
        edge_set = g.edges
        for k, row in enumerate(moves.tolist()):
            if len(set(row)) != g.n:
                raise NotBijective(k)
            for j, t in enumerate(row):
                if (min(j, t), max(j, t)) not in edge_set or j == t:
                    raise NotAnEdge(j, k)
        shift = (np.arange(m)[:, None] * g.n + moves).ravel()
        moves.setflags(write=False)
        shift.setflags(write=False)
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "shift", shift)

    @property
    def coin_dim(self) -> int:
        return self.moves.shape[0]

    @property
    def walker_dim(self) -> int:
        return self.moves.shape[1]

    @property
    def dim(self) -> int:
        return self.moves.size


def _translation_walk(shape, offsets) -> CoinedWalk:
    """Walk on the group Z_shape whose coin result k adds offsets[k] to the vertex.

    Vertices are indexed row-major with coordinate 0 most significant; the
    graph joins every vertex to the vertices its moves reach.
    """
    coords = np.indices(shape).reshape(len(shape), -1)
    moves = np.stack([np.ravel_multi_index(coords + np.reshape(off, (-1, 1)), shape, mode="wrap")
                      for off in offsets])
    g = graphs.graph(moves.shape[1], [(j, t) for row in moves.tolist() for j, t in enumerate(row)])
    return CoinedWalk(g, moves)


def cycle_walk(n: int) -> CoinedWalk:
    """Two-coin translation walk on Z_n: coin 0 steps forward, coin 1 backward.

    The dense shift equals diag(F, F^T) under coin-major ordering.
    """
    if n < 3:
        raise TooSmall(f"cycle walk needs n >= 3, got {n}")
    _check_dim(2, n)
    return _translation_walk((n,), [(1,), (-1,)])


def lattice_walk(n: int, d: int) -> CoinedWalk:
    """Translation walk on Z_n^d, the d-fold product of n-cycles.

    Coin results come in forward/backward pairs per coordinate: coin 2l
    adds e_l (coordinate l, 0-based), coin 2l+1 subtracts it.  Vertices
    are indexed row-major with coordinate 0 most significant.
    """
    if n < 3:
        raise TooSmall(f"lattice walk needs n >= 3, got {n}")
    if d < 1:
        raise TooSmall(f"lattice walk needs d >= 1, got {d}")
    # n >= 3, so n**MAX_DIM is over the cap too; min() spares computing a huge n**d
    _check_dim(2 * d, n ** min(d, MAX_DIM))
    eye = np.eye(d, dtype=int)
    return _translation_walk((n,) * d, [s * e for e in eye for s in (1, -1)])


def example_walk() -> CoinedWalk:
    """Three-coin translation walk on Z_2^2, whose graph is K4 and whose shift has order 2.

    Vertex (a, b) has index 2a + b, and coin results add (1,0), (0,1) and
    (1,1).  Each translation is a perfect matching of the four vertices:
    coin 0 swaps 0<->2 and 1<->3, coin 1 swaps 0<->1 and 2<->3, coin 2
    swaps 0<->3 and 1<->2.
    """
    return _translation_walk((2, 2), [(1, 0), (0, 1), (1, 1)])


def shift_matrix(w: CoinedWalk) -> np.ndarray:
    """Dense float64 permutation matrix of the controlled shift."""
    dim = w.dim
    s = np.zeros((dim, dim))
    s[w.shift, np.arange(dim)] = 1
    return s


def shift_order(w: CoinedWalk) -> int:
    """Least r >= 1 with S^r = 1, via lcm of permutation cycle lengths."""
    perm = w.shift
    seen = np.zeros(len(perm), dtype=bool)
    order = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        order = math.lcm(order, length)
    return order


def checked_shift_order(w: CoinedWalk) -> int:
    """shift_order(w), refused with DomainExceeded above MAX_DIM.

    Shift orbits (protocol steps, closure generators) hold one item per
    power of S; disjoint cycles of coprime lengths make r huge on a small walk.
    """
    r = shift_order(w)
    if r > MAX_DIM:
        raise DomainExceeded(f"shift order {r} exceeds MAX_DIM = {MAX_DIM}")
    return r


def apply_step(w: CoinedWalk, coin: np.ndarray, m: np.ndarray) -> np.ndarray:
    """S (coin x 1) m for m of shape (dim,) or (dim, k); coin need not be unitary."""
    c, n = w.coin_dim, w.walker_dim
    coined = np.tensordot(coin, m.reshape((c, n) + m.shape[1:]), axes=1).reshape(m.shape)
    out = np.empty_like(coined)
    out[w.shift] = coined
    return out


def step_operator(w: CoinedWalk, coin) -> np.ndarray:
    """One walk step S (C x 1) for a unitary coin C."""
    coin = as_matrix(coin)
    if coin.shape != (w.coin_dim, w.coin_dim):
        raise NotUnitary(f"coin must be {w.coin_dim}x{w.coin_dim}, got {coin.shape}")
    if not is_unitary(coin):
        raise NotUnitary("coin operation is not unitary within 1e-10")
    return apply_step(w, coin, np.eye(w.dim, dtype=complex))


@dataclass(frozen=True)
class EdgeWalk:
    """Edge-space form of a coined walk.

    edge_basis lists the ordered pairs (present, future) in sorted order,
    which does not depend on the coin labels; w_matrix moves the future
    vertex into the present slot, coin_blocks applies the per-vertex coin,
    and chi is the permutation identifying coin x walker states with edge
    states.  w_matrix and chi are float64 permutation matrices.
    """

    edge_basis: tuple
    w_matrix: np.ndarray
    coin_blocks: np.ndarray
    chi: np.ndarray


def coined_to_edge_walk(w: CoinedWalk, coin) -> EdgeWalk:
    """Express a coined walk step on the edge space spanned by (j, n_j(c_k)).

    The edge basis is the sorted list of pairs (j, moves[k, j]), so chi is
    a genuine permutation, not the identity.  chi, W and the coin blocks
    are each filled from their own defining rule, so the intertwining
    identity chi S (C x 1) = W C~ chi is a consistency check of three
    independent constructions.
    """
    coin = as_matrix(coin)
    if coin.shape != (w.coin_dim, w.coin_dim) or not is_unitary(coin):
        raise NotUnitary("coin operation is not unitary within 1e-10")
    c, n = w.coin_dim, w.walker_dim
    dim = c * n
    label = {}
    for k in range(c):
        for j in range(n):
            pair = (j, int(w.moves[k, j]))
            if pair in label:
                raise QwlError(
                    f"two coin results move vertex {pair[0]} to vertex {pair[1]}; "
                    "the edge-space form needs distinct targets per vertex")
            label[pair] = k
    basis = tuple(sorted(label))
    index = {pair: p for p, pair in enumerate(basis)}

    chi = np.zeros((dim, dim))
    wmat = np.zeros((dim, dim))
    blocks = np.zeros((dim, dim), dtype=complex)
    for (j, f), k in label.items():
        p = index[j, f]
        chi[p, k * n + j] = 1
        wmat[index[f, int(w.moves[k, f])], p] = 1
        for l in range(c):
            blocks[index[j, int(w.moves[l, j])], p] = coin[l, k]

    return EdgeWalk(basis, wmat, blocks, chi)


def intertwining_residual(w: CoinedWalk, coin) -> float:
    """Frobenius residual of chi S (C x 1) - W C~ chi; zero in exact arithmetic."""
    ew = coined_to_edge_walk(w, coin)
    lhs = ew.chi @ step_operator(w, coin)
    rhs = ew.w_matrix @ ew.coin_blocks @ ew.chi
    return frob(lhs - rhs)


def ctqw_propagator(h, gamma: float, t: float) -> np.ndarray:
    """Continuous-time quantum walk propagator exp(-i*gamma*H*t)."""
    return expm_hermitian(h, gamma * t)


def ctrw_propagator(l, gamma: float, t: float) -> np.ndarray:
    """Classical continuous-time random walk propagator exp(gamma*L*t).

    L must be a graph Laplacian: real symmetric with zero column sums.  The
    float64 result is column-stochastic with nonnegative entries up to roundoff.
    """
    l = as_matrix(l)
    if l.shape[0] != l.shape[1]:
        raise NotLaplacian("Laplacian must be square")
    if frob(l - l.T) > 1e-10 or frob(l.imag) > 1e-12:
        raise NotLaplacian("Laplacian must be real symmetric")
    if np.max(np.abs(l.sum(axis=0))) > 1e-10:
        raise NotLaplacian("Laplacian columns must sum to zero")
    if t < 0:
        raise DomainExceeded(f"ctrw time must be nonnegative, got {t}")
    w, v = np.linalg.eigh(l.real)
    return (v * np.exp(gamma * t * w)) @ v.T


def dtrw_step(p, l, gamma: float, dt: float) -> np.ndarray:
    """One explicit-Euler step p + gamma*dt*L p of the classical walk.

    Requires 0 <= gamma*dt*max_degree <= 1 so probabilities stay in [0,1].
    """
    l = as_matrix(l).real
    p = np.asarray(p, dtype=float)
    max_degree = float(np.max(-l.diagonal())) if l.shape[0] else 0.0
    if dt < 0 or gamma * dt * max_degree > 1:
        raise Unstable(
            f"gamma*dt*max_degree = {gamma * dt * max_degree:.3g} outside [0, 1]")
    return p + gamma * dt * (l @ p)


def walk_from_json(obj) -> CoinedWalk:
    """Parse {"graph": <graph JSON>, "coin_dim": c, "moves": [[...], ...]}."""
    try:
        g = graphs.graph_from_json(obj["graph"])
        c = graphs.json_int(obj["coin_dim"], "coin_dim")
        moves = np.array([[graphs.json_int(m, "move") for m in row] for row in obj["moves"]],
                         dtype=int)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, BadSpec):
            raise
        raise BadSpec(f"walk JSON needs 'graph', 'coin_dim', 'moves': {exc}") from exc
    if moves.ndim != 2 or moves.shape[0] != c:
        raise BadSpec(f"moves must have {c} rows, got shape {moves.shape}")
    return CoinedWalk(g, moves)


def walk_to_json(w: CoinedWalk) -> dict:
    return {
        "graph": graphs.graph_to_json(w.graph),
        "coin_dim": w.coin_dim,
        "moves": w.moves.tolist(),
    }
