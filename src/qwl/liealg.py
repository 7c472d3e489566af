"""Numerical closure of the Lie algebra of reachable (simulable) generators.

The generator set is the coin algebra u(c) x 1 together with all its
conjugates by powers of the shift; the real span closed under commutators
characterizes which Hamiltonians the walk can reach in the continuous
limit (membership of -iH).  The closure is one orthonormal (k, ..., s, s)
array in the real Hilbert-Schmidt geometry; admission, membership and
conjugation invariance all measure distance to it with one projection,
applied twice, and admission is scale-free.

An element is a dense (n, n) matrix or a stack of diagonal blocks.
``walk_closure`` closes a translation walk's generators in momentum
blocks: the unitary change to the basis of the group's characters makes
each S^l (X x 1) S^-l block diagonal with block p = D_p^l X D_p^-l, so N
blocks of c x c give the dense closure's dimension, passes and residuals.
Every walk whose moves commute and act transitively is a translation walk,
its characters built from the move table (``CoinedWalk.group``), whether
it is built in or read from a file; any other walk is closed densely.

Candidates (generators and brackets alike) are admitted a chunk at a
time: a C-contiguous (m, ...) stack of at most ``_CHUNK_BYTES``, so the
projection on the span is one matrix product per chunk.  Generators
stream, so the r*c^2 generators are never all held at once, and the basis
may not grow past ``MAX_CLOSURE_BYTES``.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import (
    DimMismatch,
    DomainExceeded,
    IterationCapExceeded,
    NonHermitian,
    NonNormalInput,
    NotSkewHermitian,
    TooSmall,
)
from .linalg import HERMITIAN_TOL, as_matrix, frob, is_hermitian, is_skew_hermitian, kron
from .walks import (
    CoinedWalk,
    checked_shift_order,
    example_walk,
    from_momentum_blocks,
    momentum_angles,
    momentum_blocks,
)

__all__ = [
    "LieBasis",
    "u_basis",
    "su_basis",
    "generators",
    "lie_closure",
    "walk_closure",
    "member_residual",
    "is_simulable",
    "conjugation_invariance_residual",
    "spectrum_multiset",
    "example_subspace_element",
]

DEFAULT_TOL = 1e-9
# Candidates are formed, checked and projected in stacks of at most this many bytes.
_CHUNK_BYTES = 2 * 2 ** 20
# A closure raises DomainExceeded rather than grow its basis array past this.
MAX_CLOSURE_BYTES = 2 ** 30


def u_basis(c: int):
    """c^2 skew-Hermitian matrices spanning u(c)."""
    if c < 1:
        raise TooSmall(f"u(c) needs c >= 1, got {c}")
    out = []
    for k in range(c):
        m = np.zeros((c, c), dtype=complex)
        m[k, k] = 1j
        out.append(m)
    for j in range(c):
        for k in range(j + 1, c):
            m = np.zeros((c, c), dtype=complex)
            m[j, k], m[k, j] = 1, -1
            out.append(m)
            m = np.zeros((c, c), dtype=complex)
            m[j, k], m[k, j] = 1j, 1j
            out.append(m)
    return out


def su_basis(c: int):
    """c^2 - 1 traceless skew-Hermitian matrices spanning su(c)."""
    if c < 2:
        raise TooSmall(f"su(c) needs c >= 2, got {c}")
    out = []
    for k in range(c - 1):
        m = np.zeros((c, c), dtype=complex)
        m[k, k], m[k + 1, k + 1] = 1j, -1j
        out.append(m)
    return out + u_basis(c)[c:]


def generators(w: CoinedWalk):
    """Yield the shift conjugates S^k (u(c) x 1) S^(r-k) of the coin algebra, k = 0..r-1.

    There are c^2 * shift_order(w) of them; only c^2 are held at a time.
    A shift order above ``walks.MAX_DIM`` raises DomainExceeded before the first.
    """
    r = checked_shift_order(w)
    # S^r = 1, so S^k X S^(r-k) is k gathers X -> S X S^-1 by the inverse shift.
    inv = np.argsort(w.shift)
    conj = [kron(b, np.eye(w.walker_dim)) for b in u_basis(w.coin_dim)]
    for _ in range(r):
        yield from conj
        conj = [x[np.ix_(inv, inv)] for x in conj]


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Orthonormal real-span basis of a bracket-closed skew-Hermitian space.

    ``elements`` is one C-contiguous (k, ...) complex array, the only copy
    of the basis.  Its rows ``elements.reshape(k, -1).view(float)``
    interleave real and imaginary parts, so their dot products are
    Re tr(A^dag B) summed over blocks; they are orthonormal, and every
    distance to the span is measured by subtracting the projection on them
    twice, for a whole chunk of candidates in one matrix product.
    ``lie_closure`` grows the array by doubling and raises DomainExceeded
    rather than let it pass ``MAX_CLOSURE_BYTES``.

    With ``walk`` None the elements are dense (n, n) matrices; otherwise
    they are the walk's (N, c, c) momentum blocks, and ``dim_ambient`` is
    the walk's dim.  ``member_residual`` and
    ``conjugation_invariance_residual`` take dense operators either way.
    """

    dim_ambient: int
    elements: np.ndarray
    tol: float
    passes: int
    walk: CoinedWalk = None

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def dense_elements(self) -> np.ndarray:
        """The elements as dense (k, dim_ambient, dim_ambient) matrices."""
        if self.walk is None:
            return self.elements
        return from_momentum_blocks(self.walk, self.elements)


def _project_out(elements: np.ndarray, x: np.ndarray) -> None:
    """Subtract in place, twice, the projection of x on the span of elements.

    x is one element or a (m, ...) stack of them; it must be C-contiguous,
    or the reshape below would copy and the subtraction be lost.  The
    second pass re-orthogonalizes for stability.
    """
    assert x.flags.c_contiguous
    size = math.prod(elements.shape[1:])
    rows = elements.reshape(len(elements), size).view(float)
    v = x.reshape(-1, size).view(float)
    for _ in range(2):
        v -= (v @ rows.T) @ rows


def _chunk_len(size: int) -> int:
    """Elements of size complex entries per chunk: as many as fit in _CHUNK_BYTES, at least one."""
    return max(1, _CHUNK_BYTES // (16 * max(size, 1)))


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each element of a (m, ...) stack."""
    return np.linalg.norm(stack.reshape(len(stack), math.prod(stack.shape[1:])), axis=1)


def _check_skew(stack: np.ndarray) -> np.ndarray:
    """The (m, ..., s, s) stack, once every element in it is skew-Hermitian within HERMITIAN_TOL."""
    if not (_norms(stack + stack.conj().swapaxes(-1, -2)) <= HERMITIAN_TOL).all():
        raise NotSkewHermitian("closure generators must be skew-Hermitian")
    return stack


def _grown(basis: np.ndarray, k: int) -> np.ndarray:
    """A basis array of twice the capacity (at least 1) holding basis[:k].

    Raises DomainExceeded, before allocating, if it would exceed MAX_CLOSURE_BYTES.
    """
    cap = max(1, 2 * len(basis))
    shape = basis.shape[1:]
    if cap * math.prod(shape) * 16 > MAX_CLOSURE_BYTES:
        raise DomainExceeded(f"closure basis of {cap} elements of shape {shape} would exceed "
                             f"MAX_CLOSURE_BYTES = {MAX_CLOSURE_BYTES}")
    out = np.empty((cap, *shape), dtype=complex)
    out[:k] = basis[:k]
    return out


def lie_closure(gens, tol: float = DEFAULT_TOL) -> LieBasis:
    """Smallest bracket-closed real span containing the generators.

    ``gens`` is any iterable of skew-Hermitian elements of one shape
    (..., s, s): a matrix, or a stack of diagonal blocks whose brackets are
    taken block by block.  It is read once, a chunk of ``_chunk_len`` at a
    time, and each chunk's shapes and skew-Hermiticity are checked before
    it is admitted.  Each pass then brackets every pair of elements
    admitted before the pass began (pairs bracketed in an earlier pass are
    skipped), one chunk [b_i, b_j] for a contiguous run of j at a time,
    until a pass admits nothing.  ``dim_ambient`` is s.

    Admission is scale-free and keeps candidate order: a chunk's candidates
    of norm above tol are normalized and projected off the span with one
    matrix product; each remainder still above tol is then projected off
    the elements admitted from the same chunk, and admitted, normalized,
    if it stays above tol.
    """
    if not (1e-12 <= tol <= 1e-6):
        raise DomainExceeded(f"closure tolerance {tol} outside [1e-12, 1e-6]")
    gens = iter(gens)
    first = next(gens, None)
    if first is None:
        raise TooSmall("need at least one generator")
    shape = np.shape(first)
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise DimMismatch("generators must share one square shape")
    entries = math.prod(shape)
    m = _chunk_len(entries)
    basis = np.empty((0, *shape), dtype=complex)  # basis[:k] is the span, the rest spare capacity
    k = 0

    def admit(stack):
        """Admit the components of a C-contiguous (m, ...) stack outside the span; overwrites it."""
        nonlocal basis, k
        norms = _norms(stack)
        nonzero = norms > tol
        if not nonzero.all():
            stack, norms = stack[nonzero], norms[nonzero]
        stack /= norms.reshape((-1,) + (1,) * len(shape))
        _project_out(basis[:k], stack)
        start = k
        for x in stack[_norms(stack) > tol]:
            _project_out(basis[start:k], x)
            rnorm = frob(x)
            if rnorm > tol:
                if k == len(basis):
                    basis = _grown(basis, k)
                np.divide(x, rnorm, out=basis[k])
                k += 1

    chunk = np.empty((m, *shape), dtype=complex)
    fill = 0
    for g in chain([first], gens):
        g = np.asarray(g, dtype=complex)
        if g.shape != shape:
            raise DimMismatch("generators must share one square shape")
        chunk[fill] = g
        fill += 1
        if fill == m:
            admit(_check_skew(chunk))
            fill = 0
    if fill:
        admit(_check_skew(chunk[:fill]))
    cap = entries + 10
    start = 0  # elements before this index have been bracketed pairwise already
    for passes in range(1, cap + 1):
        size = k
        for i in range(size):
            for lo in range(max(i + 1, start), size, m):
                blk = basis[lo:min(lo + m, size)]
                admit(basis[i] @ blk - blk @ basis[i])
        if k == size:
            return LieBasis(shape[-1], basis[:k].copy(), tol, passes)
        start = size
    raise IterationCapExceeded(f"closure did not stabilize within {cap} passes")


def _conjugation_phases(w: CoinedWalk, power: int) -> np.ndarray:
    """The (N, c, c) phases that conjugation by S^power puts on momentum blocks, entrywise.

    Block p of S^l (X x 1) S^-l is D_p^l X D_p^-l, whose entry (a, b) is
    X[a, b] exp(-2 pi i l (angle_a - angle_b) / period) for the integer
    angles of ``walks.momentum_angles``; l * (angle_a - angle_b) is reduced
    mod period before it becomes a phase, so no power of D_p is formed.
    """
    angles, period = momentum_angles(w)
    diff = angles[:, :, None] - angles[:, None, :]
    return np.exp(-2j * np.pi * (power * diff % period) / period)


def _block_generators(w: CoinedWalk):
    """generators(w) in momentum blocks, in the same order."""
    r = checked_shift_order(w)
    coin_basis = np.array(u_basis(w.coin_dim))[:, None]
    for power in range(r):
        yield from coin_basis * _conjugation_phases(w, power)


def walk_closure(w: CoinedWalk, tol: float = DEFAULT_TOL) -> LieBasis:
    """The closure of generators(w): in momentum blocks if w has a translation group, else dense.

    Both bases take the same dense arguments in ``member_residual`` and
    ``conjugation_invariance_residual``, and share dimension and passes.
    """
    if w.group is None:
        return lie_closure(generators(w), tol)
    return replace(lie_closure(_block_generators(w), tol), dim_ambient=w.dim, walk=w)


def member_residual(basis: LieBasis, x) -> float:
    """Relative Frobenius distance of x from the basis span (0 for x = 0)."""
    x = np.asarray(x, dtype=complex)
    # a basis of blocks closed without its walk has no dense form to compare with
    if x.shape != (basis.dim_ambient,) * 2 or (basis.walk is None
                                               and x.shape != basis.elements.shape[1:]):
        raise DimMismatch(
            f"element is {x.shape}, basis ambient dimension is {basis.dim_ambient} "
            f"(elements of shape {basis.elements.shape[1:]})")
    if not is_skew_hermitian(x):
        raise NotSkewHermitian("membership is defined for skew-Hermitian elements")
    norm = frob(x)
    if norm == 0:
        return 0.0
    if basis.walk is None:
        r, off = x.copy(), 0.0
    else:
        # the part of x off the momentum blocks is orthogonal to every element
        (r,), (off,) = momentum_blocks(basis.walk, x[None])
    _project_out(basis.elements, r)
    return math.hypot(frob(r), off) / norm


def is_simulable(basis: LieBasis, h, tol: float) -> bool:
    """True iff -i*h lies in the closure within tol (h Hermitian)."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise NonHermitian("simulability is defined for Hermitian matrices")
    return member_residual(basis, -1j * h) <= tol


def conjugation_invariance_residual(basis: LieBasis, w: CoinedWalk) -> float:
    """Worst distance of S b S^-1 from the span, over basis elements b (0 if empty).

    A basis of momentum blocks is conjugated block by block, D_p b_p D_p^-1,
    which only works for its own walk's shift: any other raises DimMismatch.
    """
    if w.dim != basis.dim_ambient:
        raise DimMismatch("walk dimension does not match the basis")
    if basis.walk is None:
        inv = np.argsort(w.shift)
    elif np.array_equal(w.shift, basis.walk.shift):
        phase = _conjugation_phases(w, 1)
    else:
        raise DimMismatch("a basis of momentum blocks is conjugated by its own walk's shift only")
    m = _chunk_len(math.prod(basis.elements.shape[1:]))
    worst = 0.0
    for lo in range(0, basis.dimension, m):
        b = basis.elements[lo:lo + m]
        if basis.walk is None:
            # the gather need not come out C-ordered
            conj = np.ascontiguousarray(b[:, inv[:, None], inv])
        else:
            conj = b * phase
        _project_out(basis.elements, conj)
        # conjugation by a permutation or by phases keeps each element's unit norm
        worst = max(worst, float(_norms(conj).max()))
    return worst


def spectrum_multiset(h, digits: int = 8):
    """Eigenvalues clustered by rounding, as (value, multiplicity) pairs.

    Accepts Hermitian input directly (real symmetric input stays real) and
    skew-Hermitian input via i*h; returned values are sorted descending and
    refer to the Hermitian counterpart in the skew case.
    """
    h = as_matrix(h)
    if is_hermitian(h):
        vals = np.linalg.eigvalsh((h + h.conj().T) / 2)
    elif is_skew_hermitian(h):
        m = 1j * h
        vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    else:
        raise NonNormalInput("spectrum needs a Hermitian or skew-Hermitian matrix")
    counts = Counter(round(float(v), digits) + 0.0 for v in vals)
    return sorted(counts.items(), key=lambda kv: -kv[0])


def example_subspace_element() -> np.ndarray:
    """A closure element of the K4 walk with spectrum {+-3i, +-i x3, 0 x4}.

    The three matchings S1, S2, S3 share the walker eigenbasis of sign
    patterns over (1,1,1,1), (1,-1,1,-1), (1,1,-1,-1), (1,-1,-1,1); the
    element acts as diag(3i,-3i,0) on the symmetric vector and as
    diag(i,-i,0) on the other three.  Expanding the four spectral
    projectors over {1, S1, S2, S3} gives coin blocks A in u(3) and
    B, C, D in su(3), so the result lies in the closure span by
    construction.
    """
    eye4 = np.eye(4)
    # S_k e_j = e_(moves[k, j]): column j of S_k is column moves[k, j] of the identity
    s_blocks = [eye4[:, row] for row in example_walk().moves]
    signs = np.array([
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ])
    blocks = [np.diag([3j, -3j, 0]), np.diag([1j, -1j, 0]),
              np.diag([1j, -1j, 0]), np.diag([1j, -1j, 0])]
    coin_a = sum(blocks) / 4
    out = kron(coin_a, eye4)
    for i in range(3):
        coin_i = sum(signs[i, k] * blocks[k] for k in range(4)) / 4
        out += kron(coin_i, s_blocks[i])
    return out
