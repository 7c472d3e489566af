"""Dense linear algebra for operators on coin/walker spaces.

Operators are plain ``numpy`` arrays, and ``as_matrix`` alone decides
their dtype: float64 for real input, complex128 otherwise.  ``scaled``,
``is_hermitian``, ``is_skew_hermitian``, ``hermitian_eig``, ``expm_hermitian``
and ``expm_eig`` also take a (k, n, n) stack of blocks, work on each block as
on a matrix of its own, and give each block bitwise the result it would get
alone.  Real operators (shifts, adjacency, Laplacian, the cycle limit
Hamiltonian) therefore stay real, and real symmetric ones are
eigendecomposed as real matrices.  Matrix exponentials are computed
through the Hermitian eigendecomposition only; every generator in this
package is (skew-)Hermitian, so this is exact up to eigensolver accuracy
and no Pade machinery is needed.
Products of (..., c, c) block stacks go through ``_matmul_blocks`` and their
powers through ``_power``, in ``np.linalg.matrix_power``'s order: for c <= 3
the product is broadcast multiply-adds over the whole stack, not one BLAS
call per block, and for any larger c it is ``a @ b`` itself.  Both are
private, so a tracer that wraps this module's public functions sees none
of these many small calls.
"""

import numpy as np

from .errors import DimMismatch, NonHermitian

__all__ = [
    "as_matrix",
    "is_hermitian",
    "is_skew_hermitian",
    "is_unitary",
    "is_permutation",
    "kron",
    "hermitian_eig",
    "expm_hermitian",
    "expm_eig",
    "commutator",
    "frob",
    "scaled",
]

HERMITIAN_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D array: complex128 if the input is complex, float64 otherwise."""
    m = np.asarray(a)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim != 2:
        raise DimMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def _as_operator(a) -> np.ndarray:
    """``as_matrix``, or for a 3-D input the (k, n, n) stack of the same dtype."""
    if np.ndim(a) != 3:
        return as_matrix(a)
    m = np.asarray(a)
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


def _adjoint(a) -> np.ndarray:
    """The adjoint of a matrix, or of each block of a stack."""
    return a.conj().swapaxes(-1, -2)


def scaled(a) -> np.ndarray:
    """a times the power of two that takes its largest entry into [1/2, 1), as complex.

    A (k, n, n) stack is scaled block by block.  Exact, so no norm of it
    under- or overflows and a tolerance on it is relative to max|a|.
    """
    a = _as_operator(a)
    _, e = np.frexp(np.abs(a).max(axis=(-2, -1), initial=0.0, keepdims=True))
    return np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)


def is_hermitian(a, tol: float = HERMITIAN_TOL):
    """True iff ||A - A^dag||_F <= tol * max|A|, within a factor of two (see ``scaled``).

    A (k, n, n) stack gets a boolean array of k verdicts, each block judged
    against its own largest entry.
    """
    a = scaled(a)
    if a.shape[-1] != a.shape[-2]:
        return np.zeros(a.shape[:-2], dtype=bool)[()]
    return np.linalg.norm(a - _adjoint(a), axis=(-2, -1)) <= tol


def is_skew_hermitian(a, tol: float = HERMITIAN_TOL):
    """True iff ||A + A^dag||_F <= tol * max|A|, within a factor of two (see ``scaled``).

    That is ``is_hermitian`` of iA, exactly, so a (k, n, n) stack gets k verdicts.
    """
    return is_hermitian(1j * np.asarray(a), tol)


def is_unitary(a, tol: float = HERMITIAN_TOL) -> bool:
    """True iff ||A^dag A - 1||_F <= tol."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return frob(a.conj().T @ a - np.eye(a.shape[0])) <= tol


def is_permutation(a, tol: float = HERMITIAN_TOL) -> bool:
    """True iff A is within tol (Frobenius) of an exact permutation matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    p = np.rint(a.real)
    ones = np.ones(a.shape[0])
    if not (np.all((p == 0) | (p == 1)) and np.all(p.sum(0) == ones) and np.all(p.sum(1) == ones)):
        return False
    return frob(a - p) <= tol


def kron(a, b) -> np.ndarray:
    """Kronecker product of two dense matrices; real if both factors are real."""
    return np.kron(as_matrix(a), as_matrix(b))


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix, or of each block of a (k, n, n) stack.

    Returns (eigenvalues ascending, eigenvectors as columns of a unitary).
    A real symmetric input is decomposed as a real matrix, with real
    eigenvectors.  Degenerate eigenvector choice is solver-dependent;
    compare invariant subspaces or eigenvalue multisets, never individual
    columns.
    """
    h = _as_operator(h)
    if h.shape[-1] != h.shape[-2]:
        raise NonHermitian(f"matrix is {h.shape[-2]}x{h.shape[-1]}, not square")
    if not np.all(is_hermitian(h)):
        raise NonHermitian(f"not Hermitian within {HERMITIAN_TOL:.1e} of its largest entry")
    # symmetrize to suppress roundoff drift before eigensolving
    return np.linalg.eigh((h + _adjoint(h)) / 2)


def expm_hermitian(h, s) -> np.ndarray:
    """exp(-i*s*H) for Hermitian H, via eigendecomposition.

    On a (k, n, n) stack, s is one float for every block or k floats, one
    per block.
    """
    return expm_eig(hermitian_eig(h), s)


def expm_eig(eig, s) -> np.ndarray:
    """exp(-i*s*H) from the eigenpairs (w, v) of H, so one decomposition serves every s.

    Eigenpairs of a (k, n, n) stack of blocks, values (k, n) and vectors
    (k, n, n), give the stack of the blocks' exponentials, at one s or at k
    values of s, one per block.  s broadcasts against the values' leading
    axes, so s of shape (M, k) gives M stacks of k exponentials, (M, k, n, n).
    A block at s = 0 is exactly the identity.
    The product V e^(-isW) V^dag is formed as conj(conj(V e^(-isW)) V^T), by
    ``_matmul_blocks``, conjugating in place against a transposed view of V, so no
    conjugate copy of V is made.
    """
    w, v = eig
    s = np.asarray(s, dtype=float)
    lead = np.broadcast_shapes(s.shape, np.shape(w)[:-1])
    if not s.any():
        return np.broadcast_to(np.eye(v.shape[-1], dtype=complex), lead + v.shape[-2:]).copy()
    u = v * np.exp(-1j * s[..., None] * w)[..., None, :]
    u = np.conj(_matmul_blocks(np.conj(u, out=u), v.swapaxes(-1, -2)), out=u)
    if s.ndim:
        u[np.broadcast_to(s == 0, lead)] = np.eye(v.shape[-1])
    return u


def _matmul_blocks(a, b) -> np.ndarray:
    """a @ b for matrices or (..., c, c) stacks of blocks, broadcast as ``np.matmul`` does.

    ``np.matmul`` makes one BLAS call per block.  For c <= 3 the product is
    instead broadcast multiply-adds over the whole stack: the k = 0 term
    a[:, 0] b[0, :] of every block at once, then each later term one column
    of the output at a time.  Each entry sums its terms in the order
    k = 0, 1, ..., c - 1, so each block is bitwise its own product, and
    besides its output the product holds one buffer, a column of it.  For
    any larger c it is ``a @ b`` itself.  Complex stacks, best of 5 with one
    BLAS thread on a 2-vCPU Xeon, which set the cutoff at c = 3:

        stack                        a @ b            c <= 3 path
        (128, 2, 2) / (1000, 2, 2)   31 / 231 us      11 / 41 us
        (128, 3, 3) / (1000, 3, 3)   34 / 250 us      29 / 114 us
        (128, 4, 4) / (1000, 4, 4)   34 / 248 us      56 / 254 us
        (1000, 6, 6)                 277 us           819 us
    """
    c = a.shape[-1]
    if c > 3:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, c):
        for j in range(c):
            out[..., :, j] += a[..., :, k] * b[..., k, j, None]
    return out


def _power(a, m: int) -> np.ndarray:
    """a^m for m >= 1, in ``np.linalg.matrix_power``'s product order, by ``_matmul_blocks``.

    So for c > 3 it is bitwise ``matrix_power``; unlike it, a^1 is a copy of a.
    """
    if m == 3:
        return _matmul_blocks(_matmul_blocks(a, a), a)
    z = result = None
    while m:  # over the bits of m from the lowest: z = a^(2^j), times result if bit j is set
        z = a if z is None else _matmul_blocks(z, z)
        m, bit = divmod(m, 2)
        if bit:
            result = z if result is None else _matmul_blocks(result, z)
    return a.copy() if result is a else result


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a
