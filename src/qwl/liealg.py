"""Lie algebra of reachable (simulable) generators, and membership in it.

The generator set is the coin algebra u(c) x 1 together with all its
conjugates by powers of the shift; the real span closed under commutators
characterizes which Hamiltonians the walk can reach in the continuous
limit (membership of -iH).  A closure is one orthonormal (k, ...) array in
the real Hilbert-Schmidt geometry; membership and conjugation invariance
measure distance to it with one projection, applied twice.  The array is
in a walk's form (``CoinedWalk.form``; ``LieBasis.form``), whose
operations take an operator to it (``blocks``), back to dense (``dense``)
and conjugate it by the shift, so this module never asks for the group
except where ``walk_closure`` chooses its algorithm.

A translation walk (its moves commute and act transitively; see
``CoinedWalk.group``) has its closure in closed form.  In momentum blocks
S^l (X x 1) S^-l has block p = D_p^l X D_p^-l; call p and p' linked when
D_p is a phase times D_p'.  With q linked classes the closure is
M = u(1) + su(c)^q, the block-diagonal elements whose blocks are equal
within each class and share one trace, of dimension 1 + q (c^2 - 1)
(Goursat's lemma; Zeier and Schulte-Herbrueggen, J. Math. Phys. 52,
113510 (2011)).  ``walk_closure`` builds its basis in momentum blocks.

Any other walk is closed by ``lie_closure``, which brackets the generators
with the newest elements until a pass admits nothing; it is also the test
oracle for M.  Candidates are admitted a C-contiguous (m, n, n) stack of at
most ``_CHUNK_BYTES`` at a time, so the projection on the span is one
matrix product per stack.  Generators stream, so the r*c^2 generators are
never all held at once, and no basis may grow past ``MAX_CLOSURE_BYTES``.
"""

import math
from collections import Counter
from itertools import chain, islice

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
from .linalg import as_matrix, frob, is_hermitian, is_skew_hermitian, scaled
from .walks import CoinedWalk, checked_shift_order, dense_form, example_walk, momentum_angles

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
    "eigenvalue_multiset",
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
    j, k = np.triu_indices(c, 1)
    pairs = np.arange(c, c * c, 2)
    out = np.zeros((c * c, c, c), dtype=complex)
    out[np.arange(c), np.arange(c), np.arange(c)] = 1j
    out[pairs, j, k], out[pairs, k, j] = 1, -1
    out[pairs + 1, j, k] = out[pairs + 1, k, j] = 1j
    return list(out)


def su_basis(c: int):
    """c^2 - 1 traceless skew-Hermitian matrices spanning su(c)."""
    if c < 2:
        raise TooSmall(f"su(c) needs c >= 2, got {c}")
    k = np.arange(c - 1)
    out = np.zeros((c * c - 1, c, c), dtype=complex)
    out[k, k, k], out[k, k + 1, k + 1] = 1j, -1j
    out[c - 1:] = u_basis(c)[c:]
    return list(out)


def generators(w: CoinedWalk):
    """Yield the shift conjugates S^k (u(c) x 1) S^(r-k) of the coin algebra, k = 0..r-1.

    There are c^2 * shift_order(w) of them; only c^2 are held at a time.
    A shift order above ``walks.MAX_DIM`` raises DomainExceeded before the first.
    """
    r = checked_shift_order(w)
    # S^r = 1, so S^k X S^(r-k) is k gathers X -> S X S^-1 by the inverse shift.
    form = dense_form(w)
    conj = [form.lift(b) for b in u_basis(w.coin_dim)]
    for _ in range(r):
        yield from conj
        conj = [form.conjugate(x) for x in conj]


class LieBasis:
    """Orthonormal real-span basis of a bracket-closed skew-Hermitian space.

    ``elements`` is one C-contiguous (k, ...) complex array, the only copy
    of the basis.  Its rows ``elements.reshape(k, -1).view(float)``
    interleave real and imaginary parts, so their dot products are
    Re tr(A^dag B) summed over blocks; they are orthonormal, and every
    distance to the span is measured by subtracting the projection on them
    twice, for a whole chunk of candidates in one matrix product.

    With ``walk`` None the elements are dense (n, n) matrices; otherwise
    they are in the walk's form, its (N, c, c) momentum blocks,
    ``dim_ambient`` is the walk's dim, and ``passes`` is 0, since no bracket
    was taken.  ``member_residual`` and ``conjugation_invariance_residual``
    take dense operators either way.
    """

    def __init__(self, dim_ambient: int, elements: np.ndarray, tol: float, passes: int,
                 walk: CoinedWalk = None):
        self.dim_ambient, self.elements, self.tol, self.passes = dim_ambient, elements, tol, passes
        self.walk = walk

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def form(self, w: CoinedWalk = None):
        """The form the elements are in: ``walk.form``, or with walk None the dense kind on w."""
        return dense_form(w) if self.walk is None else self.walk.form

    def dense_elements(self) -> np.ndarray:
        """The elements as dense (k, dim_ambient, dim_ambient) matrices."""
        return self.form().dense(self.elements)


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


def _check_tol(tol: float) -> None:
    if not (1e-12 <= tol <= 1e-6):
        raise DomainExceeded(f"closure tolerance {tol} outside [1e-12, 1e-6]")


def _basis_array(k: int, shape: tuple) -> np.ndarray:
    """A zeroed (k, *shape) basis array, refused before allocating past MAX_CLOSURE_BYTES."""
    if k * math.prod(shape) * 16 > MAX_CLOSURE_BYTES:
        raise DomainExceeded(f"closure basis of {k} elements of shape {shape} would exceed "
                             f"MAX_CLOSURE_BYTES = {MAX_CLOSURE_BYTES}")
    return np.zeros((k, *shape), dtype=complex)


def lie_closure(gens, tol: float = DEFAULT_TOL) -> LieBasis:
    """Smallest bracket-closed real span containing the generators.

    ``gens`` is any iterable of skew-Hermitian (n, n) matrices.  It is read
    once, a list of ``_chunk_len`` at a time, each checked (shapes and
    skew-Hermiticity) and admitted as one stack.  Each pass then brackets
    the elements spanning the generators with those admitted before the
    pass began and not bracketed yet, one chunk [b_i, b_j] for a contiguous
    run of j at a time, until a pass admits nothing: these right-normed
    brackets [g_1, [g_2, ... g_l]] span the same algebra as all pairs.  The
    basis array doubles as it fills, within ``MAX_CLOSURE_BYTES``.

    Admission is scale-free and keeps candidate order.  A generator's floor
    is tol times the largest norm of the generators read up to it, itself
    included, so a common scale of the generators changes nothing; that of
    a bracket of unit elements is tol.  A chunk's candidates are normalized
    and projected off the span with one matrix product; each remainder whose
    norm times its candidate's is still above the floor is then projected off
    the elements admitted from the same chunk, and admitted, normalized, if
    it stays above.  So normalizing cannot lift a small bracket's rounding.
    """
    _check_tol(tol)
    gens = iter(gens)
    first = next(gens, None)
    if first is None:
        raise TooSmall("need at least one generator")
    shape = np.shape(first)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimMismatch("generators must share one square shape")
    entries = math.prod(shape)
    m = _chunk_len(entries)
    basis = np.empty((0, *shape), dtype=complex)  # basis[:k] is the span, the rest spare capacity
    k = 0

    def admit(stack, floor):
        """Admit the parts off the span of the elements above their floor; overwrites stack."""
        nonlocal basis, k
        norms = _norms(stack)
        floor = np.broadcast_to(floor, norms.shape)
        nonzero = norms > floor
        if not nonzero.all():
            stack, norms, floor = stack[nonzero], norms[nonzero], floor[nonzero]
        stack /= norms[:, None, None]
        _project_out(basis[:k], stack)
        start = k
        left = _norms(stack) * norms > floor
        for x, norm, fl in zip(stack[left], norms[left], floor[left]):
            _project_out(basis[start:k], x)
            rnorm = frob(x)
            if rnorm * norm > fl:
                if k == len(basis):
                    grown = _basis_array(max(1, 2 * k), shape)
                    grown[:k] = basis
                    basis = grown
                np.divide(x, rnorm, out=basis[k])
                k += 1

    gens = chain([first], gens)
    largest = 0.0  # the largest generator norm read so far
    while chunk := list(islice(gens, m)):
        if any(np.shape(g) != shape for g in chunk):
            raise DimMismatch("generators must share one square shape")
        stack = np.array(chunk, dtype=complex)
        if not np.all(is_skew_hermitian(stack)):
            raise NotSkewHermitian("closure generators must be skew-Hermitian")
        running = np.maximum.accumulate(np.maximum(_norms(stack), largest))
        largest = running[-1]
        admit(stack, tol * running)
    ngen = k  # basis[:ngen] spans the generators
    cap = entries + 10
    start = 0  # elements before this index have been bracketed with every generator already
    for passes in range(1, cap + 1):
        size = k
        for i in range(ngen):
            for lo in range(max(i + 1, start), size, m):
                blk = basis[lo:min(lo + m, size)]
                admit(basis[i] @ blk - blk @ basis[i], tol)
        if k == size:
            return LieBasis(shape[0], basis[:k].copy(), tol, passes)
        start = size
    raise IterationCapExceeded(f"closure did not stabilize within {cap} passes")


def walk_closure(w: CoinedWalk, tol: float = DEFAULT_TOL) -> LieBasis:
    """The closure of generators(w): M = u(1) + su(c)^q in momentum blocks if w has a group.

    Momenta p and p' are linked when rows p and p' of (angles - angles[:, :1])
    mod N are equal.  The basis is i*1, then for each class an orthonormal
    su(c) basis placed in its blocks, each element of unit norm.  Any other
    walk is closed densely by ``lie_closure``.
    """
    if w.group is None:
        return lie_closure(generators(w), tol)
    _check_tol(tol)
    angles, n = momentum_angles(w), w.walker_dim
    _, linked = np.unique((angles - angles[:, :1]) % n, axis=0, return_inverse=True)
    linked = linked.ravel()  # its shape differs across numpy versions
    c, q = w.coin_dim, linked.max() + 1
    su = np.reshape(su_basis(c), (-1, c * c)) if c > 1 else np.zeros((0, 1), dtype=complex)
    # orthonormal rows spanning su(c), from one QR in the real geometry
    su = np.ascontiguousarray(np.linalg.qr(su.view(float).T)[0].T).view(complex)
    elements = _basis_array(1 + q * len(su), (n, c, c))
    elements[0] = 1j * np.eye(c) / math.sqrt(c * n)
    # element 1 + j (c^2 - 1) + a holds su[a] in every block of class j, scaled to unit norm
    scale = np.sqrt(np.bincount(linked)[linked])[:, None, None, None]
    per_class = elements[1:].reshape(q, len(su), n, c, c)
    per_class[linked, :, np.arange(n)] = su.reshape(-1, c, c) / scale
    return LieBasis(w.dim, elements, tol, 0, w)


def member_residual(basis: LieBasis, x) -> float:
    """Relative Frobenius distance of x from the basis span (0 for x = 0)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.dim_ambient,) * 2:
        raise DimMismatch(f"element is {x.shape}, basis ambient dimension is {basis.dim_ambient}")
    # whatever the scale of x, no norm below under- or overflows, and skew-Hermiticity
    # is checked relative to its largest entry
    x = scaled(x)
    if not is_skew_hermitian(x):
        raise NotSkewHermitian("membership is defined for skew-Hermitian elements")
    norm = frob(x)
    if norm == 0:
        return 0.0
    # the part of x off the basis's form is orthogonal to every element
    r, off = basis.form().blocks(x)
    _project_out(basis.elements, r)
    return math.hypot(frob(r), off) / norm


def is_simulable(basis: LieBasis, h, tol: float) -> bool:
    """True iff -i*h lies in the closure within tol (h Hermitian relative to its largest entry)."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise NonHermitian("simulability is defined for Hermitian matrices")
    return member_residual(basis, -1j * h) <= tol


def conjugation_invariance_residual(basis: LieBasis, w: CoinedWalk) -> float:
    """Worst distance of S b S^-1 from the span, over basis elements b (0 if empty).

    The basis's form conjugates: a basis of momentum blocks block by block,
    D_p b_p D_p^-1, which only works for its own walk's shift: any other
    raises DimMismatch.
    """
    if w.dim != basis.dim_ambient:
        raise DimMismatch("walk dimension does not match the basis")
    if basis.walk is not None and not np.array_equal(w.shift, basis.walk.shift):
        raise DimMismatch("a basis of momentum blocks is conjugated by its own walk's shift only")
    form = basis.form(w)
    m = _chunk_len(math.prod(basis.elements.shape[1:]))
    worst = 0.0
    for lo in range(0, basis.dimension, m):
        conj = form.conjugate(basis.elements[lo:lo + m])
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
    if not is_hermitian(h):
        if not is_skew_hermitian(h):
            raise NonNormalInput("spectrum needs a Hermitian or skew-Hermitian matrix")
        h = 1j * h
    return eigenvalue_multiset(np.linalg.eigvalsh((h + h.conj().T) / 2), digits)


def eigenvalue_multiset(vals, digits: int = 8):
    """Real eigenvalues clustered by rounding to digits, as (value, multiplicity) pairs.

    Values are sorted descending, and -0.0 counts as 0.0.  Each distinct
    value is rounded once, by Python's ``round``.
    """
    distinct, counts = np.unique(vals, return_counts=True)
    multiset = Counter()
    for v, n in zip(distinct.tolist(), counts.tolist()):
        multiset[round(v, digits) + 0.0] += n
    return sorted(multiset.items(), key=lambda kv: -kv[0])


def example_subspace_element() -> np.ndarray:
    """A closure element of the K4 walk with spectrum {+-3i, +-i x3, 0 x4}.

    In momentum blocks it is diag(3i, -3i, 0) at the trivial character
    (every angle 0) and diag(i, -i, 0) at the other three.  The closure
    holds every block-diagonal element whose blocks share one trace
    (1 + 4 * 8 = 33 dimensions), so this one, of trace 0 in every block, is in it.
    """
    w = example_walk()
    trivial = ~momentum_angles(w).any(axis=1)
    blocks = np.where(trivial[:, None, None], np.diag([3j, -3j, 0]), np.diag([1j, -1j, 0]))
    return w.form.dense(blocks)
