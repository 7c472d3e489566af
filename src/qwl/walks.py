"""Coined discrete-time quantum walks, their edge-space form, and propagators.

Basis ordering on the coin x walker space is coin-major throughout:
state (c_k, j) sits at index k*N + j.  Every dense matrix in the package
relies on this convention.  ``apply_step`` applies a walk step S (C x 1) as
a coin contraction and a row permutation, for one coin or, as one batched
product, for a stack of them; ``shift_matrix`` is the dense
float64 reference for S.  ``CoinedWalk(graph, moves)`` is the one constructor,
and it checks the size cap ``MAX_DIM`` and the move table, all rows at once,
so every walk's shift is a permutation.  The built-in walks are translation
walks on Z_n, Z_n^d and Z_2^2, built from their move tables by ``_translation_walk``;
``lattice_walk``, which ``cycle_walk`` is at d = 1, checks the cap before it builds a table.
Any walk whose moves commute and act transitively on the vertices is a
translation walk on the abelian group they generate, and the constructor
builds that group's N characters from the move table alone, for a built-in
walk and a file walk alike.  In the basis of characters (momenta) the
shift is diagonal, so ``momentum_blocks`` splits an operator into N coin
blocks of c x c, block p of a step S (C x 1) is diag(D_p) C, and
conjugation by S multiplies each block by phases D_p[a] conj(D_p[b]).
The change of basis forms no N x N matrix: it is
a mixed-radix transform (Cooley and Tukey 1965) with one stage per
generator that grew the orbit, a twiddle and an m_k x m_k DFT each, applied
by ``_to_momenta`` and ``_from_momenta``.  A generator is a coin's move or
a power of it: a move whose m x m DFT would outgrow the walk grows the orbit
in two stages of about sqrt m, so an N-cycle has stages 40 x 50 at N = 2000,
and keeps one N x N DFT only at a prime N.  An operator's blocks come from
its mean along the translations, read from a (c, N, c, N) view of it
through the cached N x N table of the group law that a search from vertex 0
along the moves grows, so only c^2 vectors of size N are transformed, and
its mass off the blocks is its distance from that mean.
The continuous-time operators are diagonal there too: when every vertex's
coins reach distinct neighbours, the adjacency is sum_k P_k, with
eigenvalue sum_k cos(2 pi angles[p, k] / N) at momentum p.
``adjacency_spectrum`` and ``adjacency_eig`` pick that form or the dense A,
and ``expm_state`` applies exp(-i s K) to a state from either kind of
eigenpairs, so no caller chooses.  The dense path is also the test oracle.
The edge-space form ``EdgeWalk`` is held as index maps from the move
table, and ``intertwining_residual`` applies them by scatter.

``CoinedWalk.form``, chosen once from the group, is how the limits and the
Lie algebra hold a walk's operators, so neither module asks for the group:
the momentum kind, (N, c, c) block stacks, with a group, else the dense
kind.  Each kind offers a step S (C x 1), for one coin or for a stack of M
coins at once (then the operator has a leading axis of M, or is shared by
all M), the identity, k idle steps folded into one factor (the dense kind
applies them one by one), operator to form
(``blocks``) and back (``dense``), X x 1 (``lift``) and S b S^-1
(``conjugate``).  The momentum kind makes D_p and the conjugation phases
once per walk.  ``dense_form`` is the dense kind on any walk, the oracle of
the momentum kind.
"""

import math
from functools import cached_property

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
from .linalg import (_matmul_blocks, _power, as_matrix, expm_hermitian, frob, hermitian_eig,
                     is_unitary, kron)

__all__ = [
    "CoinedWalk",
    "EdgeWalk",
    "cycle_walk",
    "lattice_walk",
    "example_walk",
    "shift_matrix",
    "shift_order",
    "checked_shift_order",
    "momentum_angles",
    "momentum_blocks",
    "from_momentum_blocks",
    "adjacency_spectrum",
    "adjacency_eig",
    "expm_state",
    "apply_step",
    "dense_form",
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


class CoinedWalk:
    """Coined walk on a regular graph: per-coin-result vertex moves plus the shift.

    moves[k, j] is the vertex reached from j on coin result k; shift is the
    permutation of {0..cN-1} sending index k*N+j to k*N+moves[k, j].
    Construction checks, in order: coin_dim * walker_dim <= MAX_DIM, before
    anything sized by the graph is allocated; that the graph is regular of
    degree m and the table is m x N; and, all rows at once, that each row is a
    bijection on vertices whose every move follows an edge, refusing the first
    row that fails: a sort finds repeats, and searchsorted on the sorted edge
    keys u N + v finds each move j -> t whose key min N + max is not among them.

    group is found from the moves table.  If the moves commute and act
    transitively, they generate an abelian group acting regularly on the
    vertices, and group is (chars, exps), two read-only (N, r) integer
    arrays with r <= log2 N: vertex v is g_1^e_1 ... g_r^e_r 0 for the
    exponents e = exps[v] of the r generators that grew the orbit of vertex 0,
    each a coin's move P_k or a power of it (see ``_translation_group``),
    and character p takes vertex v to exp(2 pi i (chars[p] . exps[v] mod N) / N).
    Otherwise group is None.  Walks compare by identity.
    """

    def __init__(self, graph: graphs.Graph, moves):
        self.graph = g = graph
        moves = np.array(moves, dtype=int, ndmin=1)
        _check_dim(len(moves), g.n)
        m = graphs.regular_degree(g)
        if m is None:
            raise NotRegular("coined walks need a regular graph")
        if moves.shape != (m, g.n):
            raise BadSpec(f"moves table must be {m}x{g.n} for this graph, got {moves.shape}")
        # a move out of range is taken as j -> j, which no edge key matches
        repeats = (np.diff(np.sort(moves, axis=1), axis=1) == 0).any(axis=1)
        j = np.arange(g.n)
        t = np.where((moves >= 0) & (moves < g.n), moves, j)
        query = np.minimum(j, t) * g.n + np.maximum(j, t)
        keys = g.edge_array[:, 0] * g.n + g.edge_array[:, 1]
        off = keys[np.searchsorted(keys, query).clip(max=len(keys) - 1)] != query
        bad = repeats | off.any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            raise NotBijective(k) if repeats[k] else NotAnEdge(int(off[k].argmax()), k)
        shift = (np.arange(m)[:, None] * g.n + moves).ravel()
        moves.setflags(write=False)
        shift.setflags(write=False)
        self.moves, self.shift, self.group = moves, shift, _translation_group(moves)

    @property
    def coin_dim(self) -> int:
        return self.moves.shape[0]

    @property
    def walker_dim(self) -> int:
        return self.moves.shape[1]

    @property
    def dim(self) -> int:
        return self.moves.size

    @cached_property
    def form(self):
        """How the walk holds an operator, chosen once from group: in momentum blocks
        with a group, else dense.  See ``_DenseForm`` for its operations."""
        return _DenseForm(self) if self.group is None else _MomentumForm(self)

    @cached_property
    def _momentum_stages(self):
        """The character transform's factors: (grid, stages), built once per walk from group.

        Vertex v sits at grid[v], the mixed-radix index of exps[v] with e_1
        most significant.  Stage k, for the k-th generator (a coin's move or a
        power of it) that grew the orbit of vertex 0 m_k-fold, is
        (twiddles, dft): the (A_k, m_k) phases exp(-2 pi i t_k e_k / N),
        A_k = m_1 ... m_(k-1), or None where all are 1, and the symmetric
        m_k x m_k DFT exp(-2 pi i j e / m_k) / sqrt(m_k).  Row p of chars is t_k + j_k N / m_k in column k, with the digits j of p
        in mixed radix, j_1 most significant, and t_k a function of
        j_1 ... j_(k-1) alone.  Both factors are read from one table of the
        N roots exp(-2 pi i l / N) at integer angles l mod N.
        """
        chars, exps = self.group
        n = self.walker_dim
        roots = _phases(np.arange(n), n)
        sizes = exps.max(axis=0) + 1
        grid = np.ravel_multi_index(tuple(exps.T), sizes)
        grid.setflags(write=False)
        stages, prefixes = [], 1
        for k, m in enumerate(sizes.tolist()):
            e = np.arange(m, dtype=np.int32)  # j e N / m_k < N^2 <= MAX_DIM^2 < 2^31
            t = chars[::n // prefixes, k] % (n // m)  # t_k of each prefix j_1 ... j_(k-1)
            twiddles = roots[np.outer(t, e) % n] if t.any() else None
            angles = np.outer(e, e * (n // m))
            angles %= n
            dft = (roots / math.sqrt(m))[angles]
            for a in (twiddles, dft):
                if a is not None:
                    a.setflags(write=False)
            stages.append((twiddles, dft))
            prefixes *= m
        return grid, tuple(stages)

    @cached_property
    def _sums(self) -> np.ndarray:
        """The read-only (N, N) group law, sums[u, g] = g + u.  Needs group.

        The table grows by a search from vertex 0 along the moves: the moves
        commute and act regularly, so if u = P_k v then the translation T_u
        taking 0 to u is P_k T_v.  The group is abelian, so the table is symmetric.
        """
        n = self.walker_dim
        sums = np.full((n, n), -1, dtype=np.intp)  # -1 until u is reached
        sums[0] = np.arange(n)
        queue = [0]
        for v in queue:
            for row, u in zip(self.moves, self.moves[:, v].tolist()):
                if sums[u, 0] < 0:
                    sums[u] = row[sums[v]]
                    queue.append(u)
        sums.setflags(write=False)
        return sums


def _translation_group(moves: np.ndarray):
    """(chars, exps) of the group the moves generate, or None (see CoinedWalk).

    The orbit of vertex 0 grows one generator at a time, with each vertex's
    exponents of the generators that grew it.  Coin k would multiply the
    orbit by the least m with P_k^m 0 in the orbit so far; one pass along
    P_k finds m and the m cosets P_k^i times the orbit.  Where its m x m DFT
    would outgrow the walk (m^2 > N) and a split lowers the work per entry,
    m = a b with a the largest divisor of m up to sqrt m and a + b < m, the
    orbit grows first by P_k^b (order a) and then by P_k (order b); else by
    P_k alone.  A generator g of order m_g grows it m_g-fold, and each
    character of the group found so far then extends in m_g ways: its angle
    at g 0 is an m_g-th part of its known angle a at g^m_g 0,
    a / m_g + j N / m_g for j < m_g.  Every character value is an N-th root
    of unity, so a is a multiple of m_g and the division is exact.
    """
    n = moves.shape[1]
    products = moves[:, moves]  # products[a, b] = P_a P_b
    if not np.array_equal(products, products.swapaxes(0, 1)):
        return None
    orbit = np.zeros(1, dtype=int)
    where = np.full(n, -1)  # position of each vertex in orbit, -1 outside it
    where[0] = 0
    exps = np.zeros((1, 0), dtype=int)
    chars = np.zeros((1, 0), dtype=int)
    for row in moves:
        cosets, x = [orbit], row[0]
        while where[x] < 0:
            cosets.append(row[cosets[-1]])
            x = row[x]
        m = len(cosets)
        if m == 1:
            continue
        a = max(d for d in range(1, math.isqrt(m) + 1) if m % d == 0)
        b = m // a
        steps = [(cosets, x)]  # (the cosets a generator g grows the orbit by, g^order 0)
        if m * m > n and a + b < m:
            # P^b of order a, then P of order b: coset i + j b is P^i (P^b)^j times the orbit
            steps = [(cosets[::b], x),
                     ([np.concatenate(cosets[i::b]) for i in range(b)], cosets[b][0])]
        for grown, x in steps:
            m = len(grown)
            # a character's angle is below n and an exponent below m, so the sum stays below r n^2
            roots = (chars @ exps[where[x]] % n // m)[:, None] + np.arange(m) * (n // m)
            chars = np.hstack([np.repeat(chars, m, axis=0), roots.reshape(-1, 1)])
            exps = np.hstack([np.tile(exps, (m, 1)), np.repeat(np.arange(m), len(orbit))[:, None]])
            orbit = np.concatenate(grown)
            where[orbit] = np.arange(len(orbit))
    if len(orbit) < n:
        return None
    exps = exps[where]  # row v holds the exponents of vertex v
    chars.setflags(write=False)
    exps.setflags(write=False)
    return chars, exps


def _translation_walk(shape, offsets) -> CoinedWalk:
    """Walk on the group Z_shape whose coin result k adds offsets[k] to the vertex.

    Vertices are indexed row-major with coordinate 0 most significant; the
    graph joins every vertex to the vertices its moves reach.
    """
    coords = np.indices(shape).reshape(len(shape), -1)
    moves = np.stack([np.ravel_multi_index(coords + np.reshape(off, (-1, 1)), shape, mode="wrap")
                      for off in offsets])
    j = np.broadcast_to(np.arange(moves.shape[1]), moves.shape)
    g = graphs.graph(moves.shape[1], np.stack([j, moves], axis=-1).reshape(-1, 2))
    return CoinedWalk(g, moves)


def cycle_walk(n: int) -> CoinedWalk:
    """Two-coin translation walk on Z_n: coin 0 steps forward, coin 1 backward.

    The dense shift equals diag(F, F^T) under coin-major ordering.  It is ``lattice_walk(n, 1)``.
    """
    return lattice_walk(n, 1)


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
    """Least r >= 1 with S^r = 1: the lcm of the cycle lengths, each the count of its least
    index, found by pointer doubling (low[i] is the least of i, ..., S^(2^k - 1) i at step k)."""
    jump, low = w.shift, np.arange(len(w.shift))
    for _ in range((len(jump) - 1).bit_length()):
        low, jump = np.minimum(low, low[jump]), jump[jump]
    counts = np.bincount(low)
    return math.lcm(*set(counts[counts > 0].tolist()))


def checked_shift_order(w: CoinedWalk) -> int:
    """shift_order(w), refused with DomainExceeded above MAX_DIM.

    Shift orbits (protocol steps, closure generators) hold one item per
    power of S; disjoint cycles of coprime lengths make r huge on a small walk.
    """
    r = shift_order(w)
    if r > MAX_DIM:
        raise DomainExceeded(f"shift order {r} exceeds MAX_DIM = {MAX_DIM}")
    return r


def momentum_angles(w: CoinedWalk) -> np.ndarray:
    """(N, c) integers: coin k moves momentum p by the phase exp(-2 pi i angles[p, k] / N).

    Momentum p is the character p of w.group, and in the basis
    |p> = N^(-1/2) sum_v chi_p(v) |v> of the walker space the shift is
    diag(D_p) with D_p = diag_k conj(chi_p(P_k 0)).  The angles are
    integers mod N, so a power D_p^l is exact as (l * angles mod N) / N.
    """
    chars, exps = w.group
    return chars @ exps[w.moves[:, 0]].T % w.walker_dim


def _phases(angles, n: int) -> np.ndarray:
    """exp(-2 pi i (angles mod N) / N) for integer angles, the one place the sign of D_p is set."""
    return np.exp(-2j * np.pi * (angles % n) / n)


def _to_momenta(w: CoinedWalk, x) -> np.ndarray:
    """The character transform F^dag along axis 0 of x (N, ...).

    Row p of F^dag x is <p| x = N^(-1/2) sum_v conj(chi_p(v)) x[v].  x is
    scattered to the grid of exponents, and stage k multiplies by its
    twiddles, then applies its DFT along axis e_k with one matmul, so the
    cost per column is N (m_1 + ... + m_r).  A one-stage group's DFT (Z_N at
    a prime N, or at N = 4) is the N x N matrix F^dag itself, in grid order.
    """
    grid, stages = w._momentum_stages
    y = np.empty(np.shape(x), dtype=complex)
    y[grid] = x
    prefixes = 1
    for twiddles, dft in stages:
        y = y.reshape(prefixes, len(dft), -1)
        if twiddles is not None:
            y *= twiddles[:, :, None]
        y = np.matmul(dft, y)
        prefixes *= len(dft)
    return y.reshape(np.shape(x))


def _from_momenta(w: CoinedWalk, y) -> np.ndarray:
    """The inverse transform F along axis 0 of y (N, ...): row v is N^(-1/2) sum_p chi_p(v) y[p].

    F y = conj(conj(F) conj(y)), and conj(F) is the transpose of F^dag: the
    stages of ``_to_momenta`` transposed, last first (each DFT is symmetric
    and each twiddle diagonal), then a gather from the grid.
    """
    grid, stages = w._momentum_stages
    x = np.conj(y)
    prefixes = w.walker_dim
    for twiddles, dft in reversed(stages):
        prefixes //= len(dft)
        x = np.matmul(dft, x.reshape(prefixes, len(dft), -1))
        if twiddles is not None:
            x *= twiddles[:, :, None]
    x = x.reshape(np.shape(y))[grid]
    return np.conj(x, out=x)


def momentum_blocks(w: CoinedWalk, x):
    """Momentum blocks of operators x, of shape (..., dim, dim), and the Frobenius mass off them.

    Returns the C-contiguous (..., N, c, c) blocks <a,p| x |b,p> and, for
    each operator, the norm of its entries <a,p| x |b,q> with p != q, so
    that ||x||^2 = ||blocks||^2 + off^2.  Needs w.group.  The blocks are
    the translation-invariant part of x, whose entry at (g + u, u) is the
    mean d[g] of x over u, so block p is sqrt(N) <p| d; off is the norm of
    x minus that part.  x is read as a (..., c, N, c, N) view through the
    N x N group law, and only d goes to the characters.
    """
    c, n = w.coin_dim, w.walker_dim
    lead = np.shape(x)[:-2]
    # along[u, g, ..., a, b] = <a, g + u| x |b, u>
    along = np.reshape(x, lead + (c, n, c, n))[..., :, w._sums, :, np.arange(n)[:, None]]
    along = along.astype(complex, copy=False)
    d = along.mean(axis=0)
    along -= d
    square = along.view(float)
    off = np.sqrt(np.square(square, out=square).sum(axis=(0, 1, -2, -1)))
    blocks = math.sqrt(n) * _to_momenta(w, d)
    return np.moveaxis(blocks, 0, -3).copy(), off


def from_momentum_blocks(w: CoinedWalk, blocks) -> np.ndarray:
    """The dense (..., dim, dim) operators whose momentum blocks are blocks (..., N, c, c).

    Such an operator commutes with the translations: its entry <a, g + u| x |b, u>
    is <a,g| F blocks |b> / sqrt(N) for every u.
    """
    c, n = w.coin_dim, w.walker_dim
    lead = np.shape(blocks)[:-3]
    b = _from_momenta(w, np.moveaxis(blocks, -3, 0)) / math.sqrt(n)
    x = np.empty(lead + (c, n, c, n), dtype=complex)
    x[..., :, w._sums, :, np.arange(n)[:, None]] = b
    return x.reshape(lead + (w.dim, w.dim))


def _adjacency_sums(w: CoinedWalk):
    """sum_k cos(2 pi angles[p, k] / N) for each momentum p, or None if A is not diagonal there.

    If every vertex's coins reach distinct neighbours, the m coins of the
    m-regular graph reach all of them, so A = sum_k P_k, and its value at p
    is the real part of sum_k D_p[k] (A is real symmetric).  Otherwise, or
    without a group, A may not commute with the shift.
    """
    if w.group is None or np.any(np.diff(np.sort(w.moves, axis=0), axis=0) == 0):
        return None
    return np.cos(2 * np.pi * momentum_angles(w) / w.walker_dim).sum(axis=1)


def adjacency_spectrum(w: CoinedWalk) -> np.ndarray:
    """The eigenvalues of w's graph adjacency A: in its characters, else eigvalsh of the dense A."""
    sums = _adjacency_sums(w)
    return np.linalg.eigvalsh(graphs.adjacency(w.graph)) if sums is None else sums


def adjacency_eig(w: CoinedWalk):
    """Eigenpairs of w's graph adjacency A for ``expm_state``, dense or of its momentum blocks.

    The (N, 1, 1) blocks have values of shape (N, 1) and vectors all ones.
    """
    sums = _adjacency_sums(w)
    if sums is None:
        return hermitian_eig(graphs.adjacency(w.graph))
    return sums[:, None], np.ones((len(sums), 1, 1))


def expm_state(w: CoinedWalk, eig, s: float, psi) -> np.ndarray:
    """exp(-i*s*K) psi from the eigenpairs (vals, vecs) of K, dense or of its momentum blocks.

    With 1-D vals they are the dense K's, and the result is V (exp(-i*s*vals) * (V^dag psi)).
    Otherwise they are np.linalg.eigh of K's (N, k, k) blocks, k = 1 on the walker space and c
    on the walk space; psi (size k*N, coin-major) goes to the characters and back by
    ``_to_momenta`` and ``_from_momenta``.  A phase s * vals that overflows raises DomainExceeded.
    """
    if s == 0:
        return np.array(psi, dtype=complex)
    vals, vecs = eig
    if not math.isfinite(float(s) * float(np.abs(vals).max())):
        raise DomainExceeded(f"the phase s * eigenvalue must be finite, got s = {s}")
    if np.ndim(vals) == 1:
        return vecs @ (np.exp(-1j * s * vals) * (vecs.conj().T @ psi))
    n, k = vals.shape
    x = _to_momenta(w, np.reshape(psi, (k, n)).T)  # x[p, a] = <a,p| psi>
    x = np.einsum("pba,pb->pa", vecs.conj(), x) * np.exp(-1j * s * vals)
    return _from_momenta(w, np.einsum("pab,pb->pa", vecs, x)).T.ravel()


def apply_step(w: CoinedWalk, coin: np.ndarray, m: np.ndarray) -> np.ndarray:
    """S (coin x 1) m for m of shape (dim,) or (dim, k); coin need not be unitary.

    A (M, c, c) stack of coins gives the (M, dim, k) stack of the M products, for m one
    (dim, k) operand or a stack (M, dim, k) of them, as one batched product: each product
    is bitwise the one its coin gives alone.
    """
    lead = np.shape(m)[:-2] if np.ndim(coin) == 3 else ()
    coined = np.matmul(coin, np.reshape(m, lead + (w.coin_dim, -1)))
    coined = coined.reshape(coined.shape[:-2] + (w.dim, -1))
    out = np.empty_like(coined)
    out[..., w.shift, :] = coined
    return out.reshape(coined.shape[:-2] + np.shape(m)[len(lead):])


class _DenseForm:
    """The dense kind of a walk's form: an operator is its dim x dim matrix.

    It is the form of a walk without a group.  It holds any walk's
    operators, so it is also the oracle of the momentum kind (``dense_form``).
    ``blocks`` and ``dense`` are the identity and read no walk.
    """

    def __init__(self, w):
        self.walk = w

    def step(self, coin, m):
        """S (coin x 1) m; a (M, c, c) stack of coins gives the M products, m one or M of them.

        Here it is ``apply_step``.
        """
        return apply_step(self.walk, coin, m)

    def one(self):
        """The identity in the form."""
        return self.lift(np.eye(self.walk.coin_dim, dtype=complex))

    def fold(self, coin, k):
        """k steps S (coin x 1) as one factor in the form, or None: here each step is applied."""
        return None

    def blocks(self, x):
        """(x in the form, the Frobenius mass of x off it) for a dense x, or a stack of them."""
        return x, 0.0

    def dense(self, u):
        """The dense matrix of u, or of each of a stack, in the form."""
        return u

    def lift(self, x):
        """x (x) 1 in the form, for a coin operator x."""
        return kron(x, np.eye(self.walk.walker_dim))

    def conjugate(self, b):
        """S b S^-1 for b, or for each of a stack, in the form."""
        inv = np.argsort(self.walk.shift)
        # the gather need not come out C-ordered
        return np.ascontiguousarray(b[..., inv[:, None], inv])


class _MomentumForm(_DenseForm):
    """The momentum kind, the form of a walk with a group: the (N, c, c) momentum blocks.

    It holds the operators that commute with the translations.  Block p of
    a step S (C x 1) is diag(D_p) C, and block p of S X S^-1 is X_p times
    D_p[a] conj(D_p[b]).  Both are made once: ``shift_phases`` (N, c, 1)
    holds D_p, and ``conjugation_phases`` (N, c, c) the phases at the angle
    differences, each one exact root of unity, not a product of two rounded ones.
    """

    def __init__(self, w):
        super().__init__(w)
        angles = momentum_angles(w)
        self.shift_phases = _phases(angles, w.walker_dim)[:, :, None]
        self.conjugation_phases = _phases(angles[:, :, None] - angles[:, None, :], w.walker_dim)

    def step(self, coin, m):
        return _matmul_blocks(self.shift_phases * coin[..., None, :, :], m)

    def fold(self, coin, k):
        return _power(self.shift_phases * coin, k)

    def blocks(self, x):
        return momentum_blocks(self.walk, x)

    def dense(self, u):
        return from_momentum_blocks(self.walk, u)

    def lift(self, x):
        return np.broadcast_to(x, (self.walk.walker_dim,) + np.shape(x))

    def conjugate(self, b):
        return b * self.conjugation_phases


def dense_form(w=None) -> _DenseForm:
    """The dense kind of form on w, whatever w.group; without w it converts only."""
    return _DenseForm(w)


class EdgeWalk:
    """Edge-space form of a coined walk, held as index maps on the edge basis.

    edge_basis lists the ordered pairs (present, future) in sorted order,
    which does not depend on the coin labels.  chi[k*N + j] is the edge
    (j, moves[k, j]), so chi identifies coin x walker states with edge
    states; w[e] is the edge (f, moves[k, f]) that e = (j, f), of coin
    label k, moves to; out[l, j] is the edge that coin result l takes out
    of vertex j, and the per-vertex coin C~ applies coin to out[:, j].
    """

    def __init__(self, edge_basis: tuple, chi, w, out, coin):
        self.edge_basis, self.chi, self.w, self.out, self.coin = edge_basis, chi, w, out, coin


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
        moves = np.array(graphs.json_int_rows(obj["moves"], "move"), dtype=int)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, BadSpec):
            raise
        raise BadSpec(f"walk JSON needs 'graph', 'coin_dim', 'moves': {exc}") from exc
    except OverflowError as exc:
        raise BadSpec(f"a move is out of range: {exc}") from exc
    if moves.ndim != 2 or moves.shape[0] != c:
        raise BadSpec(f"moves must have {c} rows, got shape {moves.shape}")
    return CoinedWalk(g, moves)


def walk_to_json(w: CoinedWalk) -> dict:
    return {
        "graph": graphs.graph_to_json(w.graph),
        "coin_dim": w.coin_dim,
        "moves": w.moves.tolist(),
    }
