"""Dense linear algebra primitives: exactness and contract checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwl import graphs
from qwl.errors import DimMismatch, NonHermitian
from qwl.linalg import (
    _matmul_blocks,
    _power,
    commutator,
    expm_eig,
    expm_hermitian,
    frob,
    hermitian_eig,
    is_hermitian,
    is_permutation,
    is_skew_hermitian,
    is_unitary,
    kron,
)
from walk_cases import cycle_shift


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_skew(rng, n):
    m = random_matrix(rng, n)
    return (m - m.conj().T) / 2


def test_predicates():
    f = cycle_shift(4)
    assert is_permutation(f)
    assert is_unitary(f)
    assert not is_hermitian(f)
    assert is_hermitian(f + f.T)
    assert is_skew_hermitian(1j * (f + f.T))
    assert not is_permutation(0.5 * f)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    f3 = cycle_shift(3)
    e = np.zeros(9)
    e[1 * 3 + 2] = 1  # e_1 (x) e_2
    out = kron(f3, np.eye(3)) @ e
    expected = np.zeros(9)
    expected[2 * 3 + 2] = 1  # e_2 (x) e_2
    assert np.array_equal(out, expected.astype(complex))


def test_kron_matches_product_graph_adjacency():
    g3 = graphs.cycle_graph(3)
    a3 = graphs.adjacency(g3)
    lhs = kron(a3, np.eye(3)) + kron(np.eye(3), a3)
    rhs = graphs.adjacency(graphs.cartesian_product(g3, g3))
    assert np.array_equal(lhs, rhs)


def test_kron_of_real_matrices_is_real():
    a = graphs.adjacency(graphs.cycle_graph(3))
    f = cycle_shift(4)
    out = kron(a, f)
    assert out.dtype == np.float64
    assert np.array_equal(out, np.kron(a.astype(complex), f.astype(complex)))
    assert kron(a, 1j * f).dtype == np.complex128


def test_kron_mixed_product_property():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b, c, d = (random_matrix(rng, 3) for _ in range(4))
        res = frob(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d))
        scale = frob(a) * frob(b) * frob(c) * frob(d)
        assert res <= 1e-12 * scale


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(0)
    h = random_matrix(rng, 5)
    h = h + h.conj().T
    assert frob(expm_hermitian(h, 0.0) - np.eye(5)) <= 1e-12


def test_expm_eig_of_a_stack_is_each_blocks_exponential():
    rng = np.random.default_rng(3)
    h = np.stack([random_matrix(rng, 3) for _ in range(4)])
    h = h + h.conj().swapaxes(-1, -2)
    eig = np.linalg.eigh(h)
    for s in (0.7, -1.3):
        out = expm_eig(eig, s)
        assert out.shape == (4, 3, 3)
        for block, hk in zip(out, h):
            assert frob(block - expm_hermitian(hk, s)) <= 1e-12
    out = expm_eig(eig, 0.0)
    assert out.dtype == complex and np.array_equal(out, np.broadcast_to(np.eye(3), (4, 3, 3)))
    out[0, 0, 0] = 2  # a writable array of its own


def test_expm_eig_follows_the_shape_of_a_broadcast_s():
    """s of shape (M, k) or (M, 1) against a (k, n, n) stack gives (M, k, n, n), each block the
    exponential at its own s, the identity exactly where that s is 0, all zero or not."""
    rng = np.random.default_rng(5)
    h = np.stack([random_matrix(rng, 2) for _ in range(2)])
    h = h + h.conj().swapaxes(-1, -2)
    eig = hermitian_eig(h)
    for s in (np.zeros((3, 2)), np.zeros((3, 1)), np.array([[0.4, 0.0], [0.0, 0.0], [0.0, -1.1]]),
              np.array([[0.5], [0.0], [-0.3]])):
        out = expm_eig(eig, s)
        assert out.shape == (3, 2, 2, 2)
        for j in range(3):
            for b in range(2):
                sb = s[j, b % s.shape[1]]
                if sb == 0:
                    assert np.array_equal(out[j, b], np.eye(2))
                else:
                    assert np.array_equal(out[j, b], expm_eig((eig[0][b], eig[1][b]), sb))
    out = expm_eig(eig, np.zeros((3, 2)))
    out[0, 0, 0, 0] = 2  # a writable array of its own
    assert out[1, 0, 0, 0] == 1


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 40), st.sampled_from([0, 1, 5]), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(2, 5, True, 1)
@example(3, 0, False, 2)
def test_expm_eig_is_bitwise_the_plain_formula(n, k, per_block, seed):
    """expm_eig is bitwise the block product of v * exp(-i s w) and v^dag on a dense matrix
    (k = 0) and on a (k, n, n) stack, at one s or at k values of s: within 1e-14 of the same
    formula by ``@``, and bitwise it for n > 3, where the block product is ``@``."""
    rng = np.random.default_rng(seed)
    h = np.stack([random_matrix(rng, n) for _ in range(max(k, 1))])
    h = h + h.conj().swapaxes(-1, -2)
    if k == 0:
        h = h[0]
    w, v = np.linalg.eigh(h)
    s = np.asarray(rng.uniform(-3, 3, k) if k and per_block else rng.uniform(-3, 3))
    scaled, adjoint = v * np.exp(-1j * s[..., None] * w)[..., None, :], v.conj().swapaxes(-1, -2)
    out = expm_eig((w, v), s)
    assert np.array_equal(out, _matmul_blocks(scaled, adjoint))
    plain = scaled @ adjoint
    assert np.abs(out - plain).max() <= 1e-14
    if n > 3:
        assert np.array_equal(out, plain)


@st.composite
def block_products(draw):
    """(a, b) for ``_matmul_blocks``: c x c matrices, c = 1 ... 6, on both sides of its cutoff,
    as 2-D matrices, (N, c, c) or (M, N, c, c) stacks, or a shared (N, c, c) operand on either
    side of an (M, N, c, c) stack; complex, b now and then real, blocks of scales 1e-3 to 1e3."""
    c, n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    shapes = {"matrix": [(), ()], "stack": [(n,), (n,)], "stacks": [(m, n), (m, n)],
              "shared left": [(n,), (m, n)], "shared right": [(m, n), (n,)]}
    lead_a, lead_b = shapes[draw(st.sampled_from(sorted(shapes)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def blocks(lead, real=False):
        x = rng.standard_normal(lead + (c, c))
        if not real:
            x = x + 1j * rng.standard_normal(lead + (c, c))
        return x * 10.0 ** rng.uniform(-3, 3, lead + (1, 1))

    return blocks(lead_a), blocks(lead_b, draw(st.booleans()))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(block_products())
def test_block_product_is_matmul_block_by_block(case):
    """Each block of ``_matmul_blocks`` is within 1e-14 ||a|| ||b|| of ``np.matmul``'s (Frobenius
    norms of that block's factors), bitwise it for c > 3, and bitwise that block's own product."""
    a, b = case
    out, ref = _matmul_blocks(a, b), np.matmul(a, b)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    scale = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(b, axis=(-2, -1))
    assert np.all(np.linalg.norm(out - ref, axis=(-2, -1)) <= 1e-14 * scale)
    if a.shape[-1] > 3:
        assert np.array_equal(out, ref)
    a, b = np.broadcast_arrays(a, b)
    for j in np.ndindex(out.shape[:-2]):
        assert np.array_equal(out[j], _matmul_blocks(a[j], b[j]))


@pytest.mark.parametrize("c", range(1, 7))
def test_power_is_matrix_power(c):
    """``_power`` is within 1e-12 of ``np.linalg.matrix_power`` on a stack of unitary blocks, and
    bitwise it for c > 3; the first power is a copy.  Blocks whose products are exact, phases
    1, i, -1, -i on a permutation, stay finite and exact over 2^1000 steps."""
    rng = np.random.default_rng(c)
    u = np.linalg.qr(rng.standard_normal((7, c, c)) + 1j * rng.standard_normal((7, c, c)))[0]
    for m in (1, 2, 3, 5, 1024):
        got, want = _power(u, m), np.linalg.matrix_power(u, m)
        assert np.abs(got - want).max() <= 1e-12
        if c > 3:
            assert np.array_equal(got, want)
    first = _power(u, 1)
    assert np.array_equal(first, u) and not np.shares_memory(first, u)
    exact = np.array([np.eye(c)[rng.permutation(c)] * 1j ** rng.integers(0, 4, c)
                      for _ in range(7)])
    big = _power(exact, 2 ** 1000)
    assert np.all(np.isfinite(big))
    assert np.array_equal(big, np.linalg.matrix_power(exact, 2 ** 1000))


def test_expm_diagonal_phases():
    out = expm_hermitian(np.diag([1.0, -1.0]).astype(complex), np.pi)
    assert frob(out - np.diag([-1.0, -1.0])) <= 1e-12


def test_expm_cycle4_eigenphases():
    a = graphs.adjacency(graphs.cycle_graph(4))
    u = expm_hermitian(a, 1.0)
    # circulant spectrum 2*cos(2*pi*k/4) = {2, 0, -2, 0}
    expected = np.exp(-1j * np.array([2.0, 0.0, -2.0, 0.0]))
    got = np.linalg.eigvals(u)
    assert np.allclose(sorted(got, key=np.angle), sorted(expected, key=np.angle), atol=1e-10)


def test_expm_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        expm_hermitian(cycle_shift(3), 1.0)


def test_hermiticity_gates_are_relative_to_the_largest_entry():
    rng = np.random.default_rng(11)
    q = np.linalg.qr(random_matrix(rng, 12))[0]
    h = (q * rng.standard_normal(12)) @ q.conj().T  # Hermitian up to roundoff, not exactly
    m = random_matrix(rng, 12)
    assert frob(h - h.conj().T) > 0
    for scale in (1e-12, 1.0, 1e7):
        assert is_hermitian(scale * h) and not is_hermitian(scale * m)
        assert is_skew_hermitian(1j * scale * h) and not is_skew_hermitian(scale * m)
        assert np.allclose(hermitian_eig(scale * h)[0], scale * hermitian_eig(h)[0], rtol=1e-12,
                           atol=0)
        with pytest.raises(NonHermitian):
            hermitian_eig(scale * m)
    # unitarity stays absolute
    assert is_unitary(q) and not is_unitary(2 * q)


def test_a_stack_is_judged_block_by_block_against_each_blocks_largest_entry():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 4)
    h = m + m.conj().T
    off = h + 1e-6 * random_matrix(rng, 4)  # 1e-6 of its largest entry away from Hermitian
    for stack, verdicts in ((np.array([1e-12 * off, 1e9 * h]), [False, True]),
                            (np.array([1e-12 * h, 1e9 * off]), [True, False])):
        got = is_hermitian(stack)
        assert got.shape == (2,) and got.tolist() == verdicts
        assert [is_hermitian(block) for block in stack] == verdicts
        skew = is_skew_hermitian(1j * stack)
        assert skew.shape == (2,) and skew.tolist() == verdicts
        assert [is_skew_hermitian(1j * block) for block in stack] == verdicts
        with pytest.raises(NonHermitian):
            hermitian_eig(stack)
    assert is_hermitian(np.array([1e-12 * h, 1e9 * h])).tolist() == [True, True]
    assert is_skew_hermitian(np.array([1e-12 * h, 1j * h])).tolist() == [False, True]
    assert is_hermitian(np.zeros((3, 2, 4))).tolist() == [False] * 3
    assert is_skew_hermitian(np.zeros((3, 2, 4))).tolist() == [False] * 3


@st.composite
def hermitian_stacks(draw):
    """(k, n, n) stacks of Hermitian blocks, real or complex, each of its own scale from 1e-12
    to 1e9, with one s per block, now and then 0."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.standard_normal((k, n, n))
    if draw(st.booleans()):
        m = m + 1j * rng.standard_normal((k, n, n))
    m = (m + m.conj().swapaxes(-1, -2)) * 10.0 ** rng.uniform(-12, 9, (k, 1, 1))
    s = draw(st.lists(st.one_of(st.just(0.0), st.floats(-10, 10)), min_size=k, max_size=k))
    return m, s


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(hermitian_stacks())
@example((np.array([np.diag([1e-12, -1e-12]), [[0.0, 1e9], [1e9, 0.0]]]), [0.0, 0.3]))
def test_expm_hermitian_on_a_stack_is_each_blocks_own_result_bitwise(case):
    h, s = case
    for sj, out in ((s, expm_hermitian(h, np.array(s))), (s[:1] * len(s), expm_hermitian(h, s[0]))):
        assert out.shape == h.shape and out.dtype == complex
        for block, a, got in zip(h, sj, out):
            assert got.tobytes() == expm_hermitian(block, a).tobytes()


def test_expm_group_property_and_unitarity():
    rng = np.random.default_rng(1)
    h = random_matrix(rng, 6)
    h = h + h.conj().T
    for s, t in [(0.3, 0.9), (1.5, -2.0), (0.0, 4.0)]:
        lhs = expm_hermitian(h, s) @ expm_hermitian(h, t)
        assert frob(lhs - expm_hermitian(h, s + t)) <= 1e-9 * 6
    for s in (2.0, 100.0 / frob(h)):  # up to ||s*h||_F = 100
        u = expm_hermitian(h, s)
        assert frob(u.conj().T @ u - np.eye(6)) <= 1e-10 * 6


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig(np.diag([2.0, 1.0, 0.0]).astype(complex))
    assert np.allclose(w, [0.0, 1.0, 2.0])


def test_hermitian_eig_complete_graph():
    g = graphs.graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    w, _ = hermitian_eig(graphs.adjacency(g))
    assert np.allclose(w, [-1.0, -1.0, -1.0, 3.0], atol=1e-10)


def test_hermitian_eig_cycle8_spectrum():
    a = graphs.adjacency(graphs.cycle_graph(8))
    w, v = hermitian_eig(a)
    expected = sorted(2 * np.cos(2 * np.pi * k / 8) for k in range(8))
    assert np.allclose(w, expected, atol=1e-10)
    # reconstruction and unitarity
    assert frob((v * w) @ v.conj().T - a) <= 1e-9 * frob(a)
    assert frob(v.conj().T @ v - np.eye(8)) <= 1e-10


def test_real_symmetric_input_stays_real():
    # adjacency and Laplacian are float64, so they are decomposed as real matrices
    g = graphs.cartesian_product(graphs.cycle_graph(4), graphs.cycle_graph(3))
    for h in (graphs.adjacency(g), graphs.laplacian(g)):
        assert h.dtype == np.float64
        w, v = hermitian_eig(h)
        assert v.dtype == np.float64
        w_c, _ = hermitian_eig(h.astype(complex))
        assert np.allclose(w, w_c, atol=1e-12)
        assert frob(expm_hermitian(h, 0.7) - expm_hermitian(h.astype(complex), 0.7)) <= 1e-12
    assert is_hermitian(np.eye(3)) and not is_hermitian(np.triu(np.ones((3, 3))))
    assert is_skew_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_commutator_basics():
    rng = np.random.default_rng(2)
    x = random_skew(rng, 4)
    assert frob(commutator(x, x)) == 0.0
    a = np.diag([1j, -1j])
    b = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    c = commutator(a, b)
    assert is_skew_hermitian(c)
    assert frob(c.real) <= 1e-15  # lands on the i*(symmetric) pattern
    with pytest.raises(DimMismatch):
        commutator(np.eye(2), np.eye(3))


def test_commutator_jacobi_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b, c = (random_skew(rng, 4) for _ in range(3))
        res = commutator(commutator(a, b), c) \
            + commutator(commutator(b, c), a) \
            + commutator(commutator(c, a), b)
        assert frob(res) <= 1e-12 * frob(a) * frob(b) * frob(c)
