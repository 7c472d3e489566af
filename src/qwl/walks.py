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
Any walk whose moves commute and act transitively on the vertices is a
translation walk on the abelian group they generate, and the constructor
finds that group from the move table alone, for a built-in walk and a file
walk alike.  In the walker's Fourier basis its shift is diagonal, so
``momentum_blocks`` splits an operator into N coin blocks of c x c.
The edge-space form ``EdgeWalk`` is held as index maps from the move
table, and ``intertwining_residual`` applies them by scatter.
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
    "momentum_angles",
    "momentum_blocks",
    "from_momentum_blocks",
    "apply_step",
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


@dataclass(frozen=True, eq=False)
class CoinedWalk:
    """Coined walk on a regular graph: per-coin-result vertex moves plus the shift.

    moves[k, j] is the vertex reached from j on coin result k; shift is the
    permutation of {0..cN-1} sending index k*N+j to k*N+moves[k, j].
    Construction checks, in order: coin_dim * walker_dim <= MAX_DIM, before
    anything sized by the graph is allocated; that the graph is regular of
    degree m and the table is m x N; and row by row, that each row is a
    bijection on vertices whose every move follows an edge.

    group is found from the moves table.  If the moves commute and act
    transitively, they generate an abelian group acting regularly on the
    vertices, and group is (shape, offsets, labels): vertex v is the element
    of Z_shape indexed labels[v] row-major, shape lists the cyclic factors
    of one diagonal form of the group (sizes above 1, not necessarily the
    invariant factors), and coin result k adds offsets[k].  Otherwise group
    is None.  Walks compare by identity.
    """

    graph: graphs.Graph
    moves: np.ndarray
    shift: np.ndarray = field(init=False)
    group: tuple = field(init=False)

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
        object.__setattr__(self, "group", _translation_group(moves))

    @property
    def coin_dim(self) -> int:
        return self.moves.shape[0]

    @property
    def walker_dim(self) -> int:
        return self.moves.shape[1]

    @property
    def dim(self) -> int:
        return self.moves.size


def _translation_group(moves: np.ndarray):
    """(shape, offsets, labels) of the group the moves generate, or None (see CoinedWalk).

    The orbit of vertex 0 grows one coin at a time, with each vertex's
    exponents of the coins that grew it.  Coin k multiplies the orbit by the
    least m_k with P_k^m_k 0 in the orbit so far; coins with m_k > 1 (at
    most log2 N of them) give the relations m_k e_k - exponents(P_k^m_k 0),
    which generate every relation.  A diagonal form U R V = diag(d) of the
    relation matrix R turns exponents e into the element e V mod d.
    """
    n = moves.shape[1]
    products = moves[:, moves]  # products[a, b] = P_a P_b
    if not np.array_equal(products, products.swapaxes(0, 1)):
        return None
    orbit = np.zeros(1, dtype=int)
    where = np.full(n, -1)  # position of each vertex in orbit, -1 outside it
    where[0] = 0
    exps = np.zeros((1, 0), dtype=int)
    relations = []  # (m_k, exponents of P_k^m_k 0) for each coin that grew the orbit
    for row in moves:
        cosets, x = [orbit], row[0]
        while where[x] < 0:
            cosets.append(row[cosets[-1]])
            x = row[x]
        if len(cosets) == 1:
            continue
        relations.append((len(cosets), exps[where[x]].tolist()))
        exps = np.hstack([np.tile(exps, (len(cosets), 1)),
                          np.repeat(np.arange(len(cosets)), len(orbit))[:, None]])
        orbit = np.concatenate(cosets)
        where[orbit] = np.arange(len(orbit))
    if len(orbit) < n or not relations:
        return None
    r = len(relations)
    d, v = _diagonal_form([[-e for e in prior] + [m] + [0] * (r - 1 - t)
                               for t, (m, prior) in enumerate(relations)])
    keep = [i for i in range(r) if d[i] > 1]
    shape = tuple(d[i] for i in keep)
    # column i of v only matters mod d[i], so no sum of products exceeds log2(N) N^2
    coords = exps @ np.array([[v[j][i] % d[i] for i in keep] for j in range(r)]) % shape
    labels = np.empty(n, dtype=int)
    labels[orbit] = np.ravel_multi_index(tuple(coords.T), shape)
    labels.setflags(write=False)
    offsets = tuple(map(tuple, coords[where[moves[:, 0]]].tolist()))
    return shape, offsets, labels


def _diagonal_form(a):
    """(d, v) for a nonsingular integer matrix a, in Python ints.

    U a v = diag(d) with every d[t] > 0 for some unimodular U and the
    unimodular v; only the column operations are tracked.  Z^r / a is then
    the direct sum of the Z_d[t], which is all a translation group needs,
    so d is not brought to invariant factors (0 < d[0] | d[1] | ...).
    """
    a = [list(row) for row in a]
    r = len(a)
    v = [[int(i == j) for j in range(r)] for i in range(r)]

    def add_column(dst, src, q):
        for mat in (a, v):
            for row in mat:
                row[dst] += q * row[src]

    def swap_columns(i, j):
        for mat in (a, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    for t in range(r):
        while True:
            _, i, j = min((abs(a[i][j]), i, j)
                          for i in range(t, r) for j in range(t, r) if a[i][j])
            a[t], a[i] = a[i], a[t]
            swap_columns(t, j)
            p = a[t][t]
            for i in range(t + 1, r):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, r):
                add_column(j, t, -(a[t][j] // p))
            if not any(a[i][t] for i in range(t + 1, r)) and not any(a[t][t + 1:]):
                break
        if a[t][t] < 0:
            for mat in (a, v):
                for row in mat:
                    row[t] = -row[t]
    return [a[t][t] for t in range(r)], v


def _translation_moves(shape, offsets) -> np.ndarray:
    """Moves table of the translations of Z_shape (row-major vertices) by offsets."""
    coords = np.indices(shape).reshape(len(shape), -1)
    return np.stack([np.ravel_multi_index(coords + np.reshape(off, (-1, 1)), shape, mode="wrap")
                     for off in offsets])


def _translation_walk(shape, offsets) -> CoinedWalk:
    """Walk on the group Z_shape whose coin result k adds offsets[k] to the vertex.

    Vertices are indexed row-major with coordinate 0 most significant; the
    graph joins every vertex to the vertices its moves reach.
    """
    moves = _translation_moves(shape, offsets)
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


def momentum_angles(w: CoinedWalk):
    """(angles, period): coin k moves momentum p by the phase exp(-2 pi i angles[p, k] / period).

    In the Fourier basis |p> = N^(-1/2) sum_g exp(2 pi i p.g) |g> of the
    walker space (g ranges over Z_shape, |g> is the vertex labelled g,
    p.g = sum_i p_i g_i / shape_i, momenta row-major like labels), the
    shift is diag(D_p) with D_p = diag_k exp(-2 pi i p.t_k).
    The angles are integers mod period = lcm(shape), so a power D_p^l is
    exact as (l * angles mod period) / period.
    """
    shape, offsets, _ = w.group
    period = math.lcm(*shape)
    momenta = np.indices(shape).reshape(len(shape), -1).T * (period // np.array(shape))
    return momenta @ np.array(offsets).T % period, period


def _walker_axes(d: int):
    """Axes of the bra and the ket walker coordinates in a (..., c, *shape, c, *shape) array."""
    return tuple(range(-2 * d - 1, -d - 1)), tuple(range(-d, 0))


def momentum_blocks(w: CoinedWalk, x):
    """Momentum blocks of operators x, of shape (..., dim, dim), and the Frobenius mass off them.

    Returns the C-contiguous (..., N, c, c) blocks <a,p| x |b,p> and, for
    each operator, the norm of its entries <a,p| x |b,q> with p != q, so
    that ||x||^2 = ||blocks||^2 + off^2.  The walker axes are first put in
    group order (vertex v at labels[v]).  Needs w.group.
    """
    shape, _, labels = w.group
    c, n = w.coin_dim, w.walker_dim
    lead = np.shape(x)[:-2]
    vertex = np.argsort(labels)  # vertex[g] has label g
    x = np.take(np.take(np.reshape(x, lead + (c, n, c, n)), vertex, axis=-3), vertex, axis=-1)
    bra, ket = _walker_axes(len(shape))
    xt = np.fft.fftn(x.reshape(lead + (c, *shape, c, *shape)), axes=bra, norm="ortho")
    xt = np.fft.ifftn(xt, axes=ket, norm="ortho").reshape(lead + (c, n, c, n))
    blocks = np.moveaxis(np.diagonal(xt, axis1=-3, axis2=-1), -1, -3).copy()
    p = np.arange(n)
    xt[..., p, :, p] = 0
    return blocks, np.linalg.norm(xt.reshape(lead + (-1,)), axis=-1)


def from_momentum_blocks(w: CoinedWalk, blocks) -> np.ndarray:
    """The dense (..., dim, dim) operators whose momentum blocks are blocks (..., N, c, c)."""
    shape, _, labels = w.group
    c, n = w.coin_dim, w.walker_dim
    lead = np.shape(blocks)[:-3]
    xt = np.zeros(lead + (c, n, c, n), dtype=complex)
    p = np.arange(n)
    xt[..., p, :, p] = np.moveaxis(blocks, -3, 0)
    xt = xt.reshape(lead + (c, *shape, c, *shape))
    bra, ket = _walker_axes(len(shape))
    xt = np.fft.fftn(np.fft.ifftn(xt, axes=bra, norm="ortho"), axes=ket, norm="ortho")
    xt = np.take(np.take(xt.reshape(lead + (c, n, c, n)), labels, axis=-3), labels, axis=-1)
    return xt.reshape(lead + (c * n, c * n))


def apply_step(w: CoinedWalk, coin: np.ndarray, m: np.ndarray) -> np.ndarray:
    """S (coin x 1) m for m of shape (dim,) or (dim, k); coin need not be unitary."""
    c, n = w.coin_dim, w.walker_dim
    coined = np.tensordot(coin, m.reshape((c, n) + m.shape[1:]), axes=1).reshape(m.shape)
    out = np.empty_like(coined)
    out[w.shift] = coined
    return out


@dataclass(frozen=True, eq=False)
class EdgeWalk:
    """Edge-space form of a coined walk, held as index maps on the edge basis.

    edge_basis lists the ordered pairs (present, future) in sorted order,
    which does not depend on the coin labels.  chi[k*N + j] is the edge
    (j, moves[k, j]), so chi identifies coin x walker states with edge
    states; w[e] is the edge (f, moves[k, f]) that e = (j, f), of coin
    label k, moves to; out[l, j] is the edge that coin result l takes out
    of vertex j, and the per-vertex coin C~ applies coin to out[:, j].
    """

    edge_basis: tuple
    chi: np.ndarray
    w: np.ndarray
    out: np.ndarray
    coin: np.ndarray


def coined_to_edge_walk(w: CoinedWalk, coin) -> EdgeWalk:
    """Express a coined walk step on the edge space spanned by (j, n_j(c_k)).

    The edge basis is the sorted list of pairs (j, moves[k, j]), so chi is
    a genuine permutation, not the identity.  chi, w and out are each
    filled from their own defining rule, so the intertwining identity
    chi S (C x 1) = W C~ chi is a consistency check of three independent
    constructions.
    """
    coin = as_matrix(coin)
    if coin.shape != (w.coin_dim, w.coin_dim) or not is_unitary(coin):
        raise NotUnitary("coin operation is not unitary within 1e-10")
    c, n = w.coin_dim, w.walker_dim
    keys = (np.arange(n) * n + w.moves).ravel()  # edge (j, f) has key j*N + f
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeats = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if len(repeats):
        first = repeats.min()  # in coin-major order
        raise QwlError(
            f"two coin results move vertex {first % n} to vertex {w.moves.flat[first]}; "
            "the edge-space form needs distinct targets per vertex")
    present, future = np.divmod(sorted_keys, n)
    label = order // n  # coin label of each edge
    chi = np.searchsorted(sorted_keys, keys)
    w_map = np.searchsorted(sorted_keys, future * n + w.moves[label, future])
    out = np.empty((c, n), dtype=int)
    out[label, present] = np.arange(c * n)
    basis = tuple(zip(present.tolist(), future.tolist()))
    return EdgeWalk(basis, chi, w_map, out, coin)


def intertwining_residual(w: CoinedWalk, coin) -> float:
    """Frobenius residual of chi S (C x 1) - W C~ chi; zero in exact arithmetic.

    Each permutation is applied as a row scatter and C~ as one contraction
    over the out-edges of every vertex; no operator is multiplied out.
    """
    ew = coined_to_edge_walk(w, coin)
    dim = w.dim
    lhs = np.empty((dim, dim), dtype=complex)
    lhs[ew.chi] = apply_step(w, ew.coin, np.eye(dim))
    chi = np.zeros((dim, dim))
    chi[ew.chi, np.arange(dim)] = 1
    coined = np.empty_like(lhs)
    coined[ew.out] = np.tensordot(ew.coin, chi[ew.out], axes=1)
    rhs = np.empty_like(lhs)
    rhs[ew.w] = coined
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
    if not isinstance(obj, dict):
        raise BadSpec(f"a walk must be a JSON object, got {type(obj).__name__}")
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
