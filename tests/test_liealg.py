"""Generator sets, numerical closure, membership, and the K4 example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwl import liealg, limits, walks
from qwl.errors import (
    DimMismatch,
    DomainExceeded,
    NonHermitian,
    NonNormalInput,
    NotSkewHermitian,
    TooSmall,
)
from qwl.linalg import commutator, frob, hs_inner, is_skew_hermitian, kron
from walk_cases import cayley_walks, relabelled_cycle


@pytest.fixture(scope="module")
def example_closure():
    w = walks.example_walk()
    return w, liealg.lie_closure(liealg.generators(w), 1e-9)


@pytest.fixture(scope="module")
def cycle4_closure():
    w = walks.cycle_walk(4)
    return w, liealg.lie_closure(liealg.generators(w), 1e-9)


def test_u_basis():
    assert len(liealg.u_basis(1)) == 1
    assert np.array_equal(liealg.u_basis(1)[0], np.array([[1j]]))
    b2 = liealg.u_basis(2)
    assert len(b2) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert hs_inner(b2[i], b2[j]) == pytest.approx(0.0)
    b3 = liealg.u_basis(3)
    assert len(b3) == 9
    gram = np.array([[hs_inner(a, b) for b in b3] for a in b3])
    assert np.linalg.matrix_rank(gram) == 9
    for b in b3:
        assert is_skew_hermitian(b)


def test_su_basis():
    assert len(liealg.su_basis(2)) == 3
    b3 = liealg.su_basis(3)
    assert len(b3) == 8
    for b in b3:
        assert abs(np.trace(b)) <= 1e-14
        assert is_skew_hermitian(b)
    with pytest.raises(TooSmall):
        liealg.su_basis(1)


def test_generator_counts():
    assert len(list(liealg.generators(walks.example_walk()))) == 18
    assert len(list(liealg.generators(walks.cycle_walk(4)))) == 16
    for g in liealg.generators(walks.cycle_walk(4)):
        assert is_skew_hermitian(g)


def test_generators_match_dense_conjugates():
    # the index-gather conjugation against dense S^k (B x 1) S^(r-k), in order
    for w in (walks.cycle_walk(5), walks.lattice_walk(3, 2), walks.example_walk()):
        s = walks.shift_matrix(w)
        r = walks.shift_order(w)
        dense = [np.linalg.matrix_power(s, k) @ kron(b, np.eye(w.walker_dim))
                 @ np.linalg.matrix_power(s, r - k)
                 for k in range(r) for b in liealg.u_basis(w.coin_dim)]
        gens = list(liealg.generators(w))
        assert len(gens) == len(dense)
        for g, d in zip(gens, dense):
            assert frob(g - d) <= 1e-12


def test_generators_shift_conjugation_stays_in_set_span(example_closure):
    w, _ = example_closure
    gens = list(liealg.generators(w))
    s = walks.shift_matrix(w)
    span = liealg.lie_closure(gens, 1e-9)  # the span contains the set
    for g in gens[:6]:
        assert liealg.member_residual(span, s @ g @ s.conj().T) <= 1e-9


def test_closure_of_complete_coin_algebra():
    gens = [kron(b, np.eye(5)) for b in liealg.u_basis(2)]
    basis = liealg.lie_closure(gens, 1e-9)
    assert basis.dimension == 4


def test_closure_single_generator():
    x = np.diag([1j, -1j, 0])
    basis = liealg.lie_closure([x], 1e-9)
    assert basis.dimension == 1


def test_closure_rejects_bad_input():
    with pytest.raises(NotSkewHermitian):
        liealg.lie_closure([np.eye(2, dtype=complex)], 1e-9)
    with pytest.raises(DomainExceeded):
        liealg.lie_closure([np.diag([1j, -1j])], 1e-3)


def test_example_closure_dimension(example_closure):
    _, basis = example_closure
    assert basis.dimension == 33
    # stable across the tolerance grid
    gens = list(liealg.generators(walks.example_walk()))
    for tol in (1e-10, 1e-8):
        assert liealg.lie_closure(gens, tol).dimension == 33


def test_closure_orthonormal_and_idempotent(example_closure):
    _, basis = example_closure
    for i, a in enumerate(basis.elements):
        assert is_skew_hermitian(a)
        for j, b in enumerate(basis.elements):
            expected = 1.0 if i == j else 0.0
            assert abs(hs_inner(a, b) - expected) <= 1e-9
    again = liealg.lie_closure(list(basis.elements), basis.tol)
    assert again.dimension == basis.dimension


def test_closure_order_independent(example_closure, cycle4_closure):
    rng = np.random.default_rng(5)
    for w, basis in (example_closure, cycle4_closure):
        gens = list(liealg.generators(w))
        for _ in range(5):
            shuffled = [gens[i] for i in rng.permutation(len(gens))]
            assert liealg.lie_closure(shuffled, 1e-9).dimension == basis.dimension


def test_closure_bracket_closed(example_closure):
    _, basis = example_closure
    rng = np.random.default_rng(6)
    for _ in range(50):
        i, j = rng.integers(0, basis.dimension, size=2)
        br = commutator(basis.elements[i], basis.elements[j])
        if frob(br) > 1e-12:
            assert liealg.member_residual(basis, br) <= 10 * basis.tol


def test_member_residual(example_closure):
    _, basis = example_closure
    for b in basis.elements[:5]:
        assert liealg.member_residual(basis, b) <= 1e-10
    diag = kron(np.diag([-3j, 1j, 2j]), np.eye(4))
    assert liealg.member_residual(basis, diag) <= 1e-8
    localized = np.zeros((12, 12), dtype=complex)
    localized[0, 0] = 1j
    assert liealg.member_residual(basis, localized) > 0.1
    assert liealg.member_residual(basis, np.zeros((12, 12), dtype=complex)) == 0.0
    with pytest.raises(NotSkewHermitian):
        liealg.member_residual(basis, np.eye(12, dtype=complex))


def test_is_simulable(example_closure, cycle4_closure):
    _, c4 = cycle4_closure
    assert liealg.is_simulable(c4, limits.limit_hamiltonian_cycle(4), 1e-7)
    assert liealg.is_simulable(c4, np.zeros((8, 8), dtype=complex), 1e-7)
    _, ex = example_closure
    localized = np.zeros((12, 12), dtype=complex)
    localized[0, 0] = 1.0
    assert not liealg.is_simulable(ex, localized, 1e-6)
    with pytest.raises(NonHermitian):
        liealg.is_simulable(ex, 1j * np.eye(12), 1e-6)


def test_conjugation_invariance(example_closure, cycle4_closure):
    for w, basis in (example_closure, cycle4_closure):
        assert liealg.conjugation_invariance_residual(basis, w) <= 1e-8
    # a basis of one shift-commuting generator projects onto itself
    w = walks.cycle_walk(4)
    basis = liealg.lie_closure([1j * np.eye(8)], 1e-9)
    assert liealg.conjugation_invariance_residual(basis, w) <= 1e-12


def test_conjugation_invariance_of_empty_basis():
    basis = liealg.lie_closure([np.zeros((6, 6), dtype=complex)], 1e-9)
    assert basis.dimension == 0
    assert liealg.conjugation_invariance_residual(basis, walks.cycle_walk(3)) == 0.0


def test_conjugation_invariance_lattice():
    # the conjugated stack comes from advanced indexing, which need not be C-ordered
    w = walks.lattice_walk(3, 2)
    basis = liealg.lie_closure(liealg.generators(w), 1e-9)
    assert basis.dimension == 136
    assert basis.elements.flags.c_contiguous
    assert liealg.conjugation_invariance_residual(basis, w) <= 1e-10


def _lstsq_residual(basis, x):
    """Oracle: least-squares distance of x from the real span of the basis."""
    cols = np.stack([np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in basis.elements],
                    axis=1)
    target = np.concatenate([x.real.ravel(), x.imag.ravel()])
    coef = np.linalg.lstsq(cols, target, rcond=None)[0]
    return float(np.linalg.norm(cols @ coef - target) / np.linalg.norm(target))


def test_member_residual_matches_least_squares(example_closure, cycle4_closure):
    rng = np.random.default_rng(11)
    for w, basis in (example_closure, cycle4_closure):
        gens = list(liealg.generators(w))
        n = w.dim
        for _ in range(4):
            # members: real combinations of generators and of their brackets
            a, b = rng.integers(0, len(gens), size=2)
            member = sum(rng.normal() * g for g in gens)
            member += rng.normal() * commutator(gens[a], gens[b])
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            non_member = g - g.conj().T
            for x in (member, non_member):
                assert abs(liealg.member_residual(basis, x) - _lstsq_residual(basis, x)) <= 1e-10
            assert liealg.member_residual(basis, member) <= 1e-10
            assert liealg.member_residual(basis, non_member) > 0.1


def test_closure_contains_shipped_hamiltonians():
    for n in (4, 6, 8):
        w = walks.cycle_walk(n)
        basis = liealg.lie_closure(liealg.generators(w), 1e-9)
        for make in (limits.strauch_protocol, limits.evencyc_protocol):
            h = limits.effective_hamiltonian(make(n))
            assert liealg.member_residual(basis, -1j * h) <= 1e-7


def test_generator_containment(example_closure, cycle4_closure):
    for w, basis in (example_closure, cycle4_closure):
        for g in liealg.generators(w):
            assert liealg.member_residual(basis, g) <= 1e-9


def test_spectrum_multiset(example_closure):
    w, _ = example_closure
    from qwl.graphs import adjacency

    assert liealg.spectrum_multiset(adjacency(w.graph), 8) == [(3.0, 1), (-1.0, 3)]
    assert liealg.spectrum_multiset(limits.limit_hamiltonian_cycle(4), 8) == \
        [(2.0, 2), (0.0, 4), (-2.0, 2)]
    assert liealg.spectrum_multiset(np.zeros((5, 5), dtype=complex), 8) == [(0.0, 5)]
    with pytest.raises(NonNormalInput):
        liealg.spectrum_multiset(np.triu(np.ones((3, 3))), 8)


def test_example_subspace_element(example_closure):
    _, basis = example_closure
    el = liealg.example_subspace_element()
    assert is_skew_hermitian(el)
    assert liealg.spectrum_multiset(el, 8) == \
        [(3.0, 1), (1.0, 3), (0.0, 4), (-1.0, 3), (-3.0, 1)]
    assert liealg.member_residual(basis, el) <= 1e-8
    # the matching-coupled coin blocks are traceless
    w = walks.example_walk()
    s = walks.shift_matrix(w)
    for k in range(3):
        sk = s[4 * k:4 * (k + 1), 4 * k:4 * (k + 1)]
        block = np.zeros((3, 3), dtype=complex)
        for a in range(3):
            for b in range(3):
                block[a, b] = np.sum(el[4 * a:4 * (a + 1), 4 * b:4 * (b + 1)] * sk.conj()) / 4
        assert abs(np.trace(block)) <= 1e-12


def _reference_closure(gens, tol):
    """Oracle: the one-candidate admission loop, as (elements, passes).

    Every candidate, generator or bracket, is normalized, projected twice
    on the span on its own, and admitted if the remainder exceeds tol.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    n = gens[0].shape[0]
    basis = np.empty((len(gens), n, n), dtype=complex)
    k = 0

    def admit(cand):
        nonlocal basis, k
        norm = frob(cand)
        if norm <= tol:
            return
        if k == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        np.divide(cand, norm, out=basis[k])
        rows = basis[:k].reshape(k, n * n).view(float)
        v = basis[k].reshape(n * n).view(float)
        for _ in range(2):
            v -= (v @ rows.T) @ rows
        rnorm = frob(basis[k])
        if rnorm > tol:
            basis[k] /= rnorm
            k += 1

    for g in gens:
        admit(g)
    start, passes = 0, 0
    while True:
        passes += 1
        size = k
        for i in range(size):
            for j in range(max(i + 1, start), size):
                admit(basis[i] @ basis[j] - basis[j] @ basis[i])
        if k == size:
            return basis[:k].copy(), passes
        start = size


def _assert_matches_reference(w, chunk_len):
    """The chunked closure of w's generators equals the one-candidate oracle's.

    chunk_len None keeps the module's chunk size; otherwise _CHUNK_BYTES is
    lowered so that a chunk holds exactly chunk_len matrices.
    """
    with pytest.MonkeyPatch.context() as mp:
        if chunk_len is not None:
            mp.setattr(liealg, "_CHUNK_BYTES", 16 * w.dim ** 2 * chunk_len)
            assert liealg._chunk_len(w.dim) == chunk_len
        basis = liealg.lie_closure(liealg.generators(w), 1e-9)
    elements, passes = _reference_closure(liealg.generators(w), 1e-9)
    assert (basis.dimension, basis.passes) == (len(elements), passes)
    assert np.abs(basis.elements - elements).max(initial=0.0) <= 1e-12


ORACLE_WALKS = {
    "example": walks.example_walk,
    "cycle:5": lambda: walks.cycle_walk(5),
    "cycle:8": lambda: walks.cycle_walk(8),
    "lattice:3,1": lambda: walks.lattice_walk(3, 1),
    "relabelled cycle:7": relabelled_cycle,
}


@pytest.mark.parametrize("chunk_len", [None, 1, 3])
@pytest.mark.parametrize("name", list(ORACLE_WALKS))
def test_chunked_closure_matches_one_candidate_oracle(name, chunk_len):
    _assert_matches_reference(ORACLE_WALKS[name](), chunk_len)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(cayley_walks(max_size=2), st.sampled_from([None, 1, 3]))
def test_chunked_closure_matches_oracle_on_cayley_walks(w, chunk_len):
    _assert_matches_reference(w, chunk_len)


def test_streamed_generators_are_checked_in_every_chunk(monkeypatch):
    monkeypatch.setattr(liealg, "_CHUNK_BYTES", 16 * 2 ** 2 * 3)  # three 2x2 matrices a chunk

    def stream(bad):
        yield from liealg.u_basis(2)
        yield from liealg.u_basis(2)
        yield bad  # the ninth generator, in the third chunk

    with pytest.raises(NotSkewHermitian):
        liealg.lie_closure(stream(np.eye(2, dtype=complex)), 1e-9)
    with pytest.raises(DimMismatch):
        liealg.lie_closure(stream(np.zeros((3, 3), dtype=complex)), 1e-9)
    with pytest.raises(TooSmall):
        liealg.lie_closure(iter(()), 1e-9)


def test_generators_reject_long_orbits(monkeypatch):
    gens = liealg.generators(walks.cycle_walk(9))  # shift order 9
    monkeypatch.setattr(walks, "MAX_DIM", 8)
    with pytest.raises(DomainExceeded, match="shift order 9"):
        next(gens)


def test_closure_memory_cap(monkeypatch):
    w = walks.cycle_walk(5)  # closure dimension 16, elements of 10x10
    element = 16 * w.dim ** 2
    monkeypatch.setattr(liealg, "MAX_CLOSURE_BYTES", 16 * element)
    assert liealg.lie_closure(liealg.generators(w), 1e-9).dimension == 16
    monkeypatch.setattr(liealg, "MAX_CLOSURE_BYTES", 16 * element - 1)
    with pytest.raises(DomainExceeded, match="MAX_CLOSURE_BYTES"):
        liealg.lie_closure(liealg.generators(w), 1e-9)
    # the first allocation is checked too: a one-element closure of 2x2 matrices
    monkeypatch.setattr(liealg, "MAX_CLOSURE_BYTES", 16 * 2 ** 2 - 1)
    with pytest.raises(DomainExceeded, match="MAX_CLOSURE_BYTES"):
        liealg.lie_closure([np.diag([1j, -1j])], 1e-9)
