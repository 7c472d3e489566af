"""Numerical closure of the Lie algebra of reachable (simulable) generators.

The generator set is the coin algebra u(c) x 1 together with all its
conjugates by powers of the shift; the real span closed under commutators
characterizes which Hamiltonians the walk can reach in the continuous
limit (membership of -iH).  The closure is one orthonormal (k, n, n)
array in the real Hilbert-Schmidt geometry; admission, membership and
conjugation invariance all measure distance to it with one projection,
applied twice, and admission is scale-free.

Candidates (generators and brackets alike) are admitted a chunk at a
time: a C-contiguous (m, n, n) stack of at most ``_CHUNK_BYTES``, so the
projection on the span is one matrix product per chunk.  ``generators``
streams, so the r*c^2 dense generators are never all held at once, and
the basis may not grow past ``MAX_CLOSURE_BYTES``.
"""

from collections import Counter
from dataclasses import dataclass
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
from .walks import CoinedWalk, checked_shift_order, example_walk

__all__ = [
    "LieBasis",
    "u_basis",
    "su_basis",
    "generators",
    "lie_closure",
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

    ``elements`` is one C-contiguous (k, n, n) complex array, the only copy
    of the basis.  Its rows ``elements.reshape(k, n*n).view(float)``
    interleave real and imaginary parts, so their dot products are
    Re tr(A^dag B); they are orthonormal, and every distance to the span is
    measured by subtracting the projection on them twice, for a whole
    chunk of candidates in one matrix product.  ``lie_closure`` grows the
    array by doubling and raises DomainExceeded rather than let it pass
    ``MAX_CLOSURE_BYTES``.
    """

    dim_ambient: int
    elements: np.ndarray
    tol: float
    passes: int

    @property
    def dimension(self) -> int:
        return len(self.elements)


def _project_out(elements: np.ndarray, x: np.ndarray) -> None:
    """Subtract in place, twice, the projection of x on the span of elements.

    x is one (n, n) matrix or a (m, n, n) stack of them; it must be
    C-contiguous, or the reshape below would copy and the subtraction be
    lost.  The second pass re-orthogonalizes for stability.
    """
    assert x.flags.c_contiguous
    n = elements.shape[-1]
    rows = elements.reshape(len(elements), n * n).view(float)
    v = x.reshape(-1, n * n).view(float)
    for _ in range(2):
        v -= (v @ rows.T) @ rows


def _chunk_len(n: int) -> int:
    """Matrices of side n per chunk: as many as fit in _CHUNK_BYTES, at least one."""
    return max(1, _CHUNK_BYTES // (16 * max(n * n, 1)))


def _check_skew(stack: np.ndarray) -> np.ndarray:
    """The (m, n, n) stack, once every matrix in it is skew-Hermitian within HERMITIAN_TOL."""
    residuals = np.linalg.norm(stack + stack.conj().swapaxes(1, 2), axis=(1, 2))
    if not (residuals <= HERMITIAN_TOL).all():
        raise NotSkewHermitian("closure generators must be skew-Hermitian")
    return stack


def _grown(basis: np.ndarray, k: int) -> np.ndarray:
    """A basis array of twice the capacity (at least 1) holding basis[:k].

    Raises DomainExceeded, before allocating, if it would exceed MAX_CLOSURE_BYTES.
    """
    cap = max(1, 2 * len(basis))
    n = basis.shape[-1]
    if cap * n * n * 16 > MAX_CLOSURE_BYTES:
        raise DomainExceeded(f"closure basis of {cap} elements of side {n} would exceed "
                             f"MAX_CLOSURE_BYTES = {MAX_CLOSURE_BYTES}")
    out = np.empty((cap, n, n), dtype=complex)
    out[:k] = basis[:k]
    return out


def lie_closure(gens, tol: float = DEFAULT_TOL) -> LieBasis:
    """Smallest bracket-closed real span containing the generators.

    ``gens`` is any iterable of (n, n) skew-Hermitian matrices.  It is read
    once, a chunk of ``_chunk_len(n)`` at a time, and each chunk's shapes
    and skew-Hermiticity are checked before it is admitted.  Each pass then
    brackets every pair of elements admitted before the pass began (pairs
    bracketed in an earlier pass are skipped), one chunk [b_i, b_j] for a
    contiguous run of j at a time, until a pass admits nothing.

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
    first = np.asarray(first, dtype=complex)
    n = first.shape[0] if first.ndim else 0
    m = _chunk_len(n)
    basis = np.empty((0, n, n), dtype=complex)  # basis[:k] is the span, the rest spare capacity
    k = 0

    def admit(stack):
        """Admit the components of a C-contiguous (m, n, n) stack outside the span; overwrites it."""
        nonlocal basis, k
        norms = np.linalg.norm(stack.reshape(len(stack), n * n), axis=1)
        nonzero = norms > tol
        if not nonzero.all():
            stack, norms = stack[nonzero], norms[nonzero]
        stack /= norms[:, None, None]
        _project_out(basis[:k], stack)
        start = k
        for x in stack[np.linalg.norm(stack.reshape(len(stack), n * n), axis=1) > tol]:
            _project_out(basis[start:k], x)
            rnorm = frob(x)
            if rnorm > tol:
                if k == len(basis):
                    basis = _grown(basis, k)
                np.divide(x, rnorm, out=basis[k])
                k += 1

    chunk = np.empty((m, n, n), dtype=complex)
    fill = 0
    for g in chain([first], gens):
        g = np.asarray(g, dtype=complex)
        if g.shape != (n, n):
            raise DimMismatch("generators must share one square shape")
        chunk[fill] = g
        fill += 1
        if fill == m:
            admit(_check_skew(chunk))
            fill = 0
    if fill:
        admit(_check_skew(chunk[:fill]))
    cap = n * n + 10
    start = 0  # elements before this index have been bracketed pairwise already
    for passes in range(1, cap + 1):
        size = k
        for i in range(size):
            for lo in range(max(i + 1, start), size, m):
                blk = basis[lo:min(lo + m, size)]
                admit(basis[i] @ blk - blk @ basis[i])
        if k == size:
            return LieBasis(n, basis[:k].copy(), tol, passes)
        start = size
    raise IterationCapExceeded(f"closure did not stabilize within {cap} passes")


def member_residual(basis: LieBasis, x) -> float:
    """Relative Frobenius distance of x from the basis span (0 for x = 0)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.dim_ambient, basis.dim_ambient):
        raise DimMismatch(
            f"element is {x.shape}, basis ambient dimension is {basis.dim_ambient}")
    if not is_skew_hermitian(x):
        raise NotSkewHermitian("membership is defined for skew-Hermitian elements")
    norm = frob(x)
    if norm == 0:
        return 0.0
    r = np.array(x, order="C")
    _project_out(basis.elements, r)
    return frob(r) / norm


def is_simulable(basis: LieBasis, h, tol: float) -> bool:
    """True iff -i*h lies in the closure within tol (h Hermitian)."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise NonHermitian("simulability is defined for Hermitian matrices")
    return member_residual(basis, -1j * h) <= tol


def conjugation_invariance_residual(basis: LieBasis, w: CoinedWalk) -> float:
    """Worst distance of S b S^-1 from the span, over basis elements b (0 if empty)."""
    if w.dim != basis.dim_ambient:
        raise DimMismatch("walk dimension does not match the basis")
    inv = np.argsort(w.shift)
    m = _chunk_len(w.dim)
    worst = 0.0
    for lo in range(0, basis.dimension, m):
        # advanced indexing need not return C order, which the in-place projection needs
        conj = np.array(basis.elements[lo:lo + m, inv[:, None], inv], order="C")
        _project_out(basis.elements, conj)
        # conjugation by a permutation keeps each element's unit norm
        worst = max(worst, float(np.linalg.norm(conj, axis=(1, 2)).max()))
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
