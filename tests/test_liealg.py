"""Generator sets, numerical closure, membership, and the K4 example."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwl import graphs, liealg, limits, walks
from qwl.errors import (
    DimMismatch,
    DomainExceeded,
    NonHermitian,
    NonNormalInput,
    NotSkewHermitian,
    TooSmall,
)
from qwl.linalg import commutator, frob, is_skew_hermitian, kron
from walk_cases import (
    cayley_walks,
    relabelled,
    relabelled_cycle,
    translation_walks,
    turn_or_flip_cycle,
)


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
            assert np.vdot(b2[i], b2[j]).real == pytest.approx(0.0)
    b3 = liealg.u_basis(3)
    assert len(b3) == 9
    gram = np.array([[np.vdot(a, b).real for b in b3] for a in b3])
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


def _loop_bases(c):
    """u(c) and su(c) built one matrix at a time: the diagonal i E_kk, then for each pair
    j < k in row-major order E_jk - E_kj and i(E_jk + E_kj); su(c) swaps the diagonal for
    the c - 1 differences i(E_kk - E_(k+1)(k+1))."""
    def unit(*entries):
        m = np.zeros((c, c), dtype=complex)
        for j, k, v in entries:
            m[j, k] = v
        return m

    pairs = []
    for j in range(c):
        for k in range(j + 1, c):
            pairs += [unit((j, k, 1), (k, j, -1)), unit((j, k, 1j), (k, j, 1j))]
    u = [unit((k, k, 1j)) for k in range(c)] + pairs
    su = [unit((k, k, 1j), (k + 1, k + 1, -1j)) for k in range(c - 1)] + pairs
    return u, su


@pytest.mark.parametrize("c", range(1, 7))
def test_bases_are_bitwise_the_loop_built_ones(c):
    u, su = _loop_bases(c)
    for got, want in ((liealg.u_basis(c), u), (liealg.su_basis(c) if c > 1 else [], su)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


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
    # a stack of momentum blocks is not a matrix
    with pytest.raises(DimMismatch):
        liealg.lie_closure([np.zeros((2, 2, 2), dtype=complex)], 1e-9)


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
            assert abs(np.vdot(a, b).real - expected) <= 1e-9
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


def _random_block_basis(w, k, rng):
    """k orthonormal skew-Hermitian momentum-block elements of w, spanning no Lie algebra."""
    shape = (k, w.walker_dim, w.coin_dim, w.coin_dim)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rows = np.linalg.qr((g - g.conj().swapaxes(-1, -2)).reshape(k, -1).view(float).T)[0].T
    elements = np.ascontiguousarray(rows).view(complex).reshape(shape)
    return liealg.LieBasis(w.dim, elements, 1e-9, 1, w)


def test_block_conjugation_invariance_matches_dense():
    rng = np.random.default_rng(7)
    for w in (walks.cycle_walk(5), walks.lattice_walk(3, 2), walks.example_walk(),
              relabelled_cycle()):
        # u(c) x 1 alone, in every block and orthonormal, is not shift-invariant,
        # so its residual is far from 0
        coin = np.array([np.broadcast_to(b / frob(b), (w.walker_dim, *b.shape))
                         for b in liealg.u_basis(w.coin_dim)]) / np.sqrt(w.walker_dim)
        coin_closure = liealg.LieBasis(w.dim, coin, 1e-9, 1, w)
        assert liealg.conjugation_invariance_residual(coin_closure, w) > 0.5
        # the worst residual of a random set tells S b S^-1 from S^-1 b S
        for blocks in (coin_closure, _random_block_basis(w, 3, rng)):
            dense = replace(blocks, elements=blocks.dense_elements(), walk=None)
            residual = liealg.conjugation_invariance_residual(blocks, w)
            assert abs(residual - liealg.conjugation_invariance_residual(dense, w)) <= 1e-12
            # the same shift from another walk object is the same conjugation
            rebuilt = walks.CoinedWalk(w.graph, w.moves)
            assert liealg.conjugation_invariance_residual(blocks, rebuilt) == residual
    # a block basis is conjugated by its own walk's shift only
    blocks = liealg.walk_closure(walks.cycle_walk(7))
    with pytest.raises(DimMismatch):
        liealg.conjugation_invariance_residual(blocks, relabelled_cycle())


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


def test_eigenvalue_multiset_matches_the_per_value_counter():
    def oracle(vals, digits):
        counts = Counter(round(float(v), digits) + 0.0 for v in vals)
        return sorted(counts.items(), key=lambda kv: -kv[0])

    # round(v, 8) is -2.89966307 and np.round(v, 8) is -2.89966308 for the first value
    special = [-2.899663075, 0.0, -0.0, 1e-12, -1e-12, 1.0, 1.0 + 1e-12, 5e-9, -5e-9, 2.5e-8]
    rng = np.random.default_rng(13)
    cases = [special] + [rng.choice(np.concatenate([special, rng.normal(size=5)]), size=20)
                         for _ in range(50)]
    for vals in cases:
        for digits in (8, 3):
            # repr tells -0.0 from 0.0, which == does not
            assert repr(liealg.eigenvalue_multiset(vals, digits)) == repr(oracle(vals, digits))


def _roundoff_skew(rng, n):
    """i Q diag Q^dag as computed: skew-Hermitian up to roundoff, not exactly."""
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    g = 1j * (q * rng.normal(size=n)) @ q.conj().T
    assert frob(g + g.conj().T) > 0
    return g


def test_spectrum_and_closure_gates_are_relative_to_each_largest_entry():
    rng = np.random.default_rng(11)
    g = _roundoff_skew(rng, 4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = _roundoff_skew(rng, 4)
    for scale in (1e-12, 1e9):
        vals = [v for v, _ in liealg.spectrum_multiset(scale * g, 30)]
        expected = scale * np.linalg.eigvalsh((1j * g + (1j * g).conj().T) / 2)[::-1]
        assert np.allclose(vals, expected, rtol=1e-12, atol=0)
        with pytest.raises(NonNormalInput):
            liealg.spectrum_multiset(scale * m)
        # a generator's norm is judged against the largest generator norm, so scale is no gate
        assert liealg.lie_closure([scale * g]).dimension == 1
        assert liealg.lie_closure([scale * g, scale * h]).dimension > 1
        assert liealg.lie_closure([scale * g, 1e-12 * scale * h]).dimension == 1
    # an exact zero generator is no direction, at any scale of the others
    assert liealg.lie_closure([np.zeros((4, 4), dtype=complex)]).dimension == 0
    assert liealg.lie_closure([np.zeros((4, 4), dtype=complex), 1e-12 * g]).dimension == 1
    # each generator is judged against its own largest entry, not the chunk's
    with pytest.raises(NotSkewHermitian):
        liealg.lie_closure([kron(1e9 * _roundoff_skew(rng, 2), np.eye(2)), 1e-12 * m])


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


def _reference_closure(gens, tol, pairwise=False):
    """Oracle: the one-candidate admission loop, as (elements, passes).

    Every candidate, generator or bracket, is normalized, projected twice
    on the span on its own, and admitted if the remainder exceeds tol.  Each
    pass brackets the elements spanning the generators, or with pairwise
    every element, with the elements admitted since the last pass.
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
    ngen = k
    start, passes = 0, 0
    while True:
        passes += 1
        size = k
        for i in range(size if pairwise else ngen):
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
            assert liealg._chunk_len(w.dim ** 2) == chunk_len
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


def test_right_normed_closure_spans_the_pairwise_closure():
    # a three-matching walk on 8 vertices, with its graph read from the moves; it has no group
    moves = [[1, 0, 4, 5, 2, 3, 7, 6], [3, 4, 6, 0, 1, 7, 2, 5], [6, 5, 3, 2, 7, 1, 0, 4]]
    edges = {tuple(sorted((v, row[v]))) for row in moves for v in range(8)}
    w = walks.CoinedWalk(graphs.graph(8, sorted(edges)), moves)
    assert w.group is None
    basis = liealg.lie_closure(liealg.generators(w), 1e-9)
    elements, passes = _reference_closure(liealg.generators(w), 1e-9, pairwise=True)
    assert (basis.dimension, basis.passes, len(elements), passes) == (103, 5, 103, 4)
    pairwise = liealg.LieBasis(w.dim, elements, 1e-9, passes)
    # each basis lies in the other's span
    for one, other in ((basis, pairwise), (pairwise, basis)):
        for x in one.elements:
            assert liealg.member_residual(other, x) <= 1e-10


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


def test_translation_walks_close_in_momentum_blocks():
    # a relabelled 7-cycle read from a file closes in (7, 2, 2) blocks like cycle:7
    for w in (walks.cycle_walk(5), walks.lattice_walk(3, 2), walks.example_walk(),
              relabelled_cycle()):
        basis = liealg.walk_closure(w)
        assert basis.walk is w and basis.dim_ambient == w.dim
        assert basis.elements.shape[1:] == (w.walker_dim, w.coin_dim, w.coin_dim)
    # a walk whose moves do not commute has no translation group and is closed densely
    basis = liealg.walk_closure(turn_or_flip_cycle())
    assert basis.walk is None and basis.elements.shape[1:] == (12, 12)
    with pytest.raises(DomainExceeded):
        liealg.walk_closure(walks.cycle_walk(5), 1e-3)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(translation_walks(), st.integers(0, 2 ** 32 - 1))
@example(walks.cycle_walk(4), 0)
@example(walks.lattice_walk(4, 2), 1)
@example(walks.example_walk(), 2)
def test_block_closure_matches_dense_oracle(w, seed):
    # the closed form u(1) + su(c)^q against the pairwise dense closure of the generators
    rng = np.random.default_rng(seed)
    # the built walk, and the same walk with its vertices renamed, read from JSON
    for walk in (w, relabelled(w, rng.permutation(w.walker_dim))):
        assert walk.group is not None
        dim = walk.dim
        blocks = liealg.walk_closure(walk, 1e-9)
        dense = liealg.lie_closure(liealg.generators(walk), 1e-9)
        assert blocks.walk is walk and dense.walk is None and blocks.passes == 0
        assert blocks.dimension == dense.dimension
        # each basis lies in the other's span
        for basis, other in ((blocks, dense), (dense, blocks)):
            for x in basis.dense_elements():
                assert liealg.member_residual(other, x) <= 1e-10
        for _ in range(3):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            member = np.tensordot(rng.normal(size=dense.dimension), dense.elements, axes=1)
            for x in (0.5j * (g + g.conj().T), member):
                assert abs(liealg.member_residual(blocks, x)
                           - liealg.member_residual(dense, x)) <= 1e-12
        assert liealg.conjugation_invariance_residual(blocks, walk) <= 1e-10


def test_closed_form_beyond_dense_reach():
    # the dimensions the pairwise closure in momentum blocks reported, in minutes on the lattices
    for w, dimension in ((walks.lattice_walk(3, 3), 946), (walks.lattice_walk(10, 2), 751),
                         (walks.cycle_walk(200), 301)):
        assert liealg.walk_closure(w).dimension == dimension
    w = walks.lattice_walk(3, 3)
    basis = liealg.walk_closure(w)
    assert max(liealg.member_residual(basis, g) for g in liealg.generators(w)) <= 1e-9
    assert liealg.conjugation_invariance_residual(basis, w) <= 1e-10


def test_hermiticity_is_checked_relative_to_the_largest_entry(example_closure):
    w, dense = example_closure
    rng = np.random.default_rng(12)
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    members = kron(np.diag([-3.0, 1.0, 2.0]), np.eye(4))
    for basis in (dense, liealg.walk_closure(w)):
        for scale in (1e-12, 1.0, 1e6):
            # a non-Hermitian matrix is refused at any scale
            with pytest.raises(NonHermitian):
                liealg.is_simulable(basis, scale * g, 1e-8)
            with pytest.raises(NotSkewHermitian):
                liealg.member_residual(basis, scale * g)
            # a Hermitian one is accepted at any scale, with the verdict of scale 1
            assert liealg.is_simulable(basis, scale * members, 1e-8)
            assert not liealg.is_simulable(basis, scale * (g + g.conj().T), 1e-8)
