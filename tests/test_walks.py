"""Coined walks, the edge-space equivalence, and classical/quantum propagators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwl import graphs, walks
from qwl.errors import (
    BadSpec,
    DomainExceeded,
    NotAnEdge,
    NotBijective,
    NotLaplacian,
    NotRegular,
    NotUnitary,
    TooSmall,
    Unstable,
)
from qwl.linalg import frob, is_permutation, is_unitary, kron
from qwl.rng import seeded_state, seeded_unitary
from walk_cases import cayley_walks, relabelled_cycle

R = np.array([[0, -1j], [-1j, 0]])


def block_diag(*blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def test_circulant_shift():
    f = walks.circulant_shift(3)
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.array_equal(f @ e0, np.array([0, 1, 0], dtype=complex))
    assert f[0, 2] == 1
    f5 = walks.circulant_shift(5)
    assert np.array_equal(np.linalg.matrix_power(f5, 5), np.eye(5))
    f6 = walks.circulant_shift(6)
    assert np.array_equal(f6 + f6.T, graphs.adjacency(graphs.cycle_graph(6)))
    with pytest.raises(TooSmall):
        walks.circulant_shift(1)


def test_cycle_walk_shift():
    w = walks.cycle_walk(4)
    s = walks.shift_matrix(w)
    src = np.zeros(8)
    src[0 * 4 + 3] = 1  # coin 0, vertex 3
    dst = s @ src
    assert dst[0 * 4 + 0] == 1  # wraps to vertex 0
    f5 = walks.circulant_shift(5)
    assert np.array_equal(walks.shift_matrix(walks.cycle_walk(5)), block_diag(f5, f5.T))
    assert walks.shift_order(walks.cycle_walk(8)) == 8
    with pytest.raises(TooSmall):
        walks.cycle_walk(2)


def test_lattice_walk_reduces_to_cycle():
    assert np.array_equal(walks.lattice_walk(5, 1).moves, walks.cycle_walk(5).moves)


def test_lattice_walk_blocks():
    w = walks.lattice_walk(3, 2)
    assert w.dim == 36
    f = walks.circulant_shift(3)
    f1 = kron(f, np.eye(3))   # coordinate 0
    f2 = kron(np.eye(3), f)   # coordinate 1
    expected = block_diag(f1, f1.conj().T, f2, f2.conj().T)
    assert np.array_equal(walks.shift_matrix(w), expected)
    # second degree of freedom moves (j1, j2) -> (j1, j2 +- 1 mod 3)
    assert w.moves[2, 0 * 3 + 1] == 0 * 3 + 2
    assert w.moves[3, 0 * 3 + 0] == 0 * 3 + 2
    assert walks.shift_order(walks.lattice_walk(4, 2)) == 4
    assert walks.shift_order(walks.lattice_walk(3, 2)) == 3


def test_builtin_walks_match_hand_written_rules():
    # hand-written move tables and graphs, the reference for the translation builder
    def cycle(n):
        j = np.arange(n)
        return np.stack([(j + 1) % n, (j - 1) % n]), graphs.cycle_graph(n)

    def lattice(n, d):
        g = graphs.cycle_graph(n)
        for _ in range(d - 1):
            g = graphs.cartesian_product(g, graphs.cycle_graph(n))
        v = np.arange(n ** d)
        moves = np.zeros((2 * d, n ** d), dtype=int)
        for l in range(d):
            stride = n ** (d - 1 - l)
            coord = (v // stride) % n
            moves[2 * l] = v + ((coord + 1) % n - coord) * stride
            moves[2 * l + 1] = v + ((coord - 1) % n - coord) * stride
        return moves, g

    k4 = graphs.graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    cases = [(walks.cycle_walk(3), cycle(3)), (walks.cycle_walk(8), cycle(8)),
             (walks.lattice_walk(3, 1), lattice(3, 1)), (walks.lattice_walk(3, 2), lattice(3, 2)),
             (walks.lattice_walk(4, 3), lattice(4, 3)),
             (walks.example_walk(), (np.array([[2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]]), k4))]
    for w, (moves, g) in cases:
        assert np.array_equal(w.moves, moves)
        assert w.graph.edges == g.edges


def test_edge_walk_is_not_the_coined_form():
    # in the sorted edge basis chi and W are not 1 and S, so the intertwining
    # identity compares three independent constructions
    for w in (walks.cycle_walk(5), walks.lattice_walk(3, 2), walks.example_walk(),
              relabelled_cycle()):
        coin = seeded_unitary(w.coin_dim, 7)
        ew = walks.coined_to_edge_walk(w, coin)
        assert list(ew.edge_basis) == sorted(ew.edge_basis)
        assert is_permutation(ew.chi)
        assert not np.array_equal(ew.chi, np.eye(w.dim))
        assert not np.array_equal(ew.w_matrix, walks.shift_matrix(w))
        assert walks.intertwining_residual(w, coin) <= 1e-12 * w.dim


def test_coined_walk_validation():
    w = walks.cycle_walk(5)
    rebuilt = walks.CoinedWalk(w.graph, w.moves)
    assert np.array_equal(rebuilt.shift, w.shift)
    with pytest.raises(NotRegular):
        walks.CoinedWalk(graphs.graph(3, [(0, 1), (1, 2)]), [[1, 0, 1]])
    g = graphs.cycle_graph(4)
    with pytest.raises(NotBijective) as err:
        walks.CoinedWalk(g, [[1, 2, 3, 0], [1, 0, 1, 2]])
    assert err.value.coin == 1
    with pytest.raises(NotAnEdge):
        walks.CoinedWalk(g, [[1, 2, 3, 0], [2, 3, 0, 1]])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(cayley_walks(), st.sampled_from(["duplicate", "out of range", "shape", "size"]),
       st.data())
def test_every_corrupted_table_is_refused(w, corruption, data):
    moves = np.array(w.moves)
    c, n = moves.shape
    k, j = data.draw(st.integers(0, c - 1)), data.draw(st.integers(0, n - 1))
    bad, cap = moves.copy(), walks.MAX_DIM
    if corruption == "duplicate":
        bad[k, j] = moves[k, (j + 1) % n]
        error = NotBijective
    elif corruption == "out of range":
        bad[k, j] = n + j if k % 2 else -1 - j
        error = NotAnEdge
    elif corruption == "shape":
        bad = data.draw(st.sampled_from(
            [moves[1:], moves[:, 1:], np.vstack([moves, moves[:1]]), moves[0]]))
        error = BadSpec
    else:
        cap, error = c * n - 1, DomainExceeded
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "MAX_DIM", cap)
        with pytest.raises(error) as err:
            walks.CoinedWalk(w.graph, bad)
    if error is NotBijective:
        assert err.value.coin == k
    if error is NotAnEdge:
        assert (err.value.vertex, err.value.coin) == (j, k)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(cayley_walks())
def test_every_cayley_walk_has_a_permutation_shift(w):
    assert is_permutation(walks.shift_matrix(w))
    assert (w.coin_dim, w.walker_dim) == w.moves.shape


def test_constructor_checks_size_cap_before_the_graph(monkeypatch):
    n = walks.MAX_DIM // 2 + 1
    j = np.arange(n)
    g = graphs.cycle_graph(n)

    def never(_):
        raise AssertionError("the degree array was built before the size cap")
    monkeypatch.setattr(graphs, "regular_degree", never)
    with pytest.raises(DomainExceeded):
        walks.CoinedWalk(g, [(j + 1) % n, (j - 1) % n])


def test_example_walk_matches_matchings():
    w = walks.example_walk()
    assert (w.coin_dim, w.walker_dim) == (3, 4)
    assert walks.shift_order(w) == 2
    s = walks.shift_matrix(w)
    s1 = s[0:4, 0:4]
    s2 = s[4:8, 4:8]
    s3 = s[8:12, 8:12]
    assert np.array_equal(s1 @ s2, s3)
    for b in (s1, s2, s3):
        assert np.array_equal(b @ b, np.eye(4))
    vals = np.linalg.eigvalsh(graphs.adjacency(w.graph))
    assert np.allclose(vals, [-1, -1, -1, 3], atol=1e-10)


def test_step_operator():
    w = walks.cycle_walk(4)
    assert np.array_equal(walks.step_operator(w, np.eye(2)), walks.shift_matrix(w))
    u = walks.step_operator(w, R)
    assert frob(u @ u + np.eye(8)) <= 1e-12
    coin = seeded_unitary(2, 42)
    step = walks.step_operator(w, coin)
    assert frob(step.conj().T @ step - np.eye(8)) <= 1e-12 * 8
    with pytest.raises(NotUnitary):
        walks.step_operator(w, 2 * np.eye(2))

    # apply_step against the dense S (C x 1) m, for a state and for a
    # matrix's columns, with a unitary coin and a non-unitary product
    cyc = walks.cycle_walk(5)
    for w in (cyc, walks.lattice_walk(3, 2), walks.example_walk(), relabelled_cycle([3, 0, 4, 1, 2])):
        c = w.coin_dim
        unitary = seeded_unitary(c, 2)
        product = seeded_unitary(c, 1) @ np.diag(np.arange(1, c + 1) * 1j)
        vec = seeded_state(w.dim, 3)
        mat = np.stack([seeded_state(w.dim, s) for s in (4, 5, 6)], axis=1)
        for coin in (unitary, product):
            dense = walks.shift_matrix(w) @ kron(coin, np.eye(w.walker_dim))
            assert frob(walks.apply_step(w, coin, vec) - dense @ vec) <= 1e-12
            assert frob(walks.apply_step(w, coin, mat) - dense @ mat) <= 1e-12
        assert frob(walks.step_operator(w, unitary)
                    - walks.shift_matrix(w) @ kron(unitary, np.eye(w.walker_dim))) <= 1e-12


def test_shift_is_permutation_with_exact_order():
    for w in (walks.cycle_walk(6), walks.lattice_walk(3, 2), walks.example_walk(),
              relabelled_cycle()):
        assert (w.coin_dim, w.walker_dim) == w.moves.shape
        s = walks.shift_matrix(w)
        assert is_permutation(s)
        r = walks.shift_order(w)
        assert np.array_equal(np.linalg.matrix_power(s, r), np.eye(w.dim))
        for k in range(1, r):
            assert not np.array_equal(np.linalg.matrix_power(s, k), np.eye(w.dim))


def test_edge_walk_structure():
    w = walks.cycle_walk(3)
    ew = walks.coined_to_edge_walk(w, np.eye(2))
    assert is_permutation(ew.chi)
    assert is_permutation(ew.w_matrix)
    assert is_unitary(ew.coin_blocks)
    assert walks.intertwining_residual(w, np.eye(2)) <= 1e-14
    # the coin operator never mixes different present vertices
    coin = seeded_unitary(3, 5)
    ew2 = walks.coined_to_edge_walk(walks.example_walk(), coin)
    for p, (j1, _) in enumerate(ew2.edge_basis):
        for q, (j2, _) in enumerate(ew2.edge_basis):
            if j1 != j2:
                assert ew2.coin_blocks[p, q] == 0


def _assert_float64_equal(real, oracle):
    assert real.dtype == np.float64
    assert np.array_equal(real, oracle)


def test_real_builders_match_complex_formulas():
    # each 0/1 builder equals the complex matrix of its defining rule, entry for entry
    for n in (2, 3, 8):
        k = np.arange(n)
        f = np.zeros((n, n), dtype=complex)
        f[(k + 1) % n, k] = 1
        _assert_float64_equal(walks.circulant_shift(n), f)
    for w in (walks.cycle_walk(5), walks.lattice_walk(3, 2), walks.example_walk()):
        s = np.zeros((w.dim, w.dim), dtype=complex)
        s[w.shift, np.arange(w.dim)] = 1
        _assert_float64_equal(walks.shift_matrix(w), s)
        ew = walks.coined_to_edge_walk(w, seeded_unitary(w.coin_dim, 3))
        index = {pair: p for p, pair in enumerate(ew.edge_basis)}
        chi = np.zeros((w.dim, w.dim), dtype=complex)
        wmat = np.zeros((w.dim, w.dim), dtype=complex)
        for p, (j, f) in enumerate(ew.edge_basis):
            k = list(w.moves[:, j]).index(f)
            chi[index[(j, int(w.moves[k, j]))], k * w.walker_dim + j] = 1
            wmat[index[(f, int(w.moves[k, f]))], p] = 1
        _assert_float64_equal(ew.chi, chi)
        _assert_float64_equal(ew.w_matrix, wmat)
    # the Laplacian's complex eigendecomposition, cast back to complex, is the oracle
    for g in (graphs.cycle_graph(6), graphs.cartesian_product(graphs.cycle_graph(3),
                                                                graphs.cycle_graph(4))):
        lap = graphs.laplacian(g)
        for gt in (0.0, 0.5, 5.0):
            w, v = np.linalg.eigh(lap.astype(complex))
            oracle = ((v * np.exp(gt * w)) @ v.conj().T).real.astype(complex)
            p = walks.ctrw_propagator(lap, 1.0, gt)
            assert p.dtype == np.float64
            assert np.abs(p - oracle).max() <= 1e-14


def test_intertwining_residuals():
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert walks.intertwining_residual(walks.cycle_walk(5), hadamard) <= 1e-12
    assert walks.intertwining_residual(walks.example_walk(), np.eye(3)) <= 1e-14
    w = walks.example_walk()
    coin = seeded_unitary(3, 11)
    assert walks.intertwining_residual(w, coin) <= 1e-12


def test_ctqw_propagator():
    a = graphs.adjacency(graphs.cycle_graph(5))
    assert frob(walks.ctqw_propagator(a, 1.0, 0.0) - np.eye(5)) <= 1e-12
    # lattice propagator factorizes over the cycle factors
    a3 = graphs.adjacency(graphs.cycle_graph(3))
    al = graphs.adjacency(graphs.cartesian_product(graphs.cycle_graph(3), graphs.cycle_graph(3)))
    u1 = walks.ctqw_propagator(a3, 0.7, 1.3)
    ul = walks.ctqw_propagator(al, 0.7, 1.3)
    assert frob(ul - kron(u1, np.eye(3)) @ kron(np.eye(3), u1)) <= 1e-9
    # Laplacian vs adjacency differ by the global phase exp(2i*d*gamma*t)
    lap = graphs.laplacian(graphs.cartesian_product(graphs.cycle_graph(3), graphs.cycle_graph(3)))
    ulap = walks.ctqw_propagator(lap, 0.7, 1.3)
    phase = np.exp(2j * 2 * 0.7 * 1.3)
    assert frob(ulap - phase * ul) <= 1e-9


def test_ctqw_norm_preservation():
    rng = np.random.default_rng(4)
    h = graphs.adjacency(graphs.cycle_graph(6))
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    u = walks.ctqw_propagator(h, 1.0, 2.5)
    assert abs(np.linalg.norm(u @ psi) - np.linalg.norm(psi)) <= 1e-10


def test_ctrw_propagator():
    lap = graphs.laplacian(graphs.cycle_graph(3))
    assert frob(walks.ctrw_propagator(lap, 1.0, 0.0) - np.eye(3)) <= 1e-12
    p = walks.ctrw_propagator(lap, 1.0, 20.0)
    assert np.max(np.abs(p.real - 1 / 3)) <= 1e-6
    for gt in (0.5, 5.0, 50.0):
        p = walks.ctrw_propagator(lap, 1.0, gt)
        assert np.max(np.abs(p.real.sum(axis=0) - 1)) <= 1e-10
        assert p.real.min() >= -1e-12
    with pytest.raises(NotLaplacian):
        walks.ctrw_propagator(graphs.adjacency(graphs.cycle_graph(3)), 1.0, 1.0)


def test_dtrw_step():
    lap = graphs.laplacian(graphs.cycle_graph(4))
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(walks.dtrw_step(p0, lap, 1.0, 0.0), p0)
    p1 = walks.dtrw_step(p0, lap, 1.0, 0.1)
    assert np.allclose(p1, [0.8, 0.1, 0.0, 0.1])
    assert p1.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(Unstable):
        walks.dtrw_step(p0, lap, 1.0, 0.6)


def test_dtrw_converges_to_ctrw():
    lap = graphs.laplacian(graphs.cycle_graph(4))
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    target = (walks.ctrw_propagator(lap, 1.0, 1.0) @ p0).real
    errs = []
    for k in (250, 500, 1000):
        p = p0.copy()
        for _ in range(k):
            p = walks.dtrw_step(p, lap, 1.0, 1.0 / k)
        errs.append(np.linalg.norm(p - target))
    assert 0.4 <= errs[1] / errs[0] <= 0.6
    assert 0.4 <= errs[2] / errs[1] <= 0.6


def test_walk_json_roundtrip():
    w = walks.example_walk()
    rebuilt = walks.walk_from_json(walks.walk_to_json(w))
    assert np.array_equal(rebuilt.moves, w.moves)
    assert rebuilt.graph == w.graph


def test_walk_json_integers():
    spec = walks.walk_to_json(walks.cycle_walk(4))
    spec["coin_dim"] = 2.0
    spec["moves"][0][0] = float(spec["moves"][0][0])
    assert np.array_equal(walks.walk_from_json(spec).moves, walks.cycle_walk(4).moves)
    for key, value in (("coin_dim", 2.5), ("coin_dim", True)):
        with pytest.raises(BadSpec):
            walks.walk_from_json(dict(spec, **{key: value}))
    for move in (1.7, True, "1"):
        bad = walks.walk_to_json(walks.cycle_walk(4))
        bad["moves"][0][0] = move
        with pytest.raises(BadSpec):
            walks.walk_from_json(bad)


def test_walk_json_text_is_refused():
    # parsing is the caller's job (the CLI's _load_json); text is not a walk object
    text = json.dumps(walks.walk_to_json(walks.cycle_walk(4)))
    for bad in (text, text.encode(), text[:-1]):
        with pytest.raises(BadSpec):
            walks.walk_from_json(bad)


def test_walk_size_cap(monkeypatch):
    assert walks.MAX_DIM == 8192
    assert walks.cycle_walk(walks.MAX_DIM // 2).dim == walks.MAX_DIM
    with pytest.raises(DomainExceeded):
        walks.cycle_walk(walks.MAX_DIM // 2 + 1)
    monkeypatch.setattr(walks, "MAX_DIM", 8)
    assert walks.cycle_walk(4).dim == 8
    with pytest.raises(DomainExceeded):
        walks.cycle_walk(5)
    with pytest.raises(DomainExceeded):
        walks.lattice_walk(3, 2)
    with pytest.raises(DomainExceeded):
        walks.lattice_walk(3, 10 ** 9)
    # the declared n is checked before CoinedWalk builds its degree array
    huge = {"graph": {"n": 10 ** 9, "edges": [[0, 1]]}, "coin_dim": 1, "moves": [[1, 0, 2]]}
    with pytest.raises(DomainExceeded):
        walks.walk_from_json(huge)
