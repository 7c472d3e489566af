"""Coined walks, the edge-space equivalence, and classical/quantum propagators."""

import json
import math
import tracemalloc
from types import SimpleNamespace

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
    QwlError,
    TooSmall,
    Unstable,
)
from qwl.linalg import expm_eig, frob, hermitian_eig, is_permutation, is_unitary, kron
from qwl.rng import seeded_state, seeded_unitary
from walk_cases import (
    CYCLE8_CHORDS,
    cayley_walks,
    cycle_shift,
    larger_translation_walks,
    relabelled,
    relabelled_cycle,
    repeated_target_json,
    translation_walks,
    turn_or_flip_cycle,
    two_triangles,
)

R = np.array([[0, -1j], [-1j, 0]])


def block_diag(*blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def test_cycle_walk_shift():
    w = walks.cycle_walk(4)
    s = walks.shift_matrix(w)
    src = np.zeros(8)
    src[0 * 4 + 3] = 1  # coin 0, vertex 3
    dst = s @ src
    assert dst[0 * 4 + 0] == 1  # wraps to vertex 0
    f5 = cycle_shift(5)
    assert np.array_equal(walks.shift_matrix(walks.cycle_walk(5)), block_diag(f5, f5.T))
    assert walks.shift_order(walks.cycle_walk(8)) == 8
    with pytest.raises(TooSmall):
        walks.cycle_walk(2)


def test_lattice_walk_reduces_to_cycle():
    assert np.array_equal(walks.lattice_walk(5, 1).moves, walks.cycle_walk(5).moves)


def test_lattice_walk_blocks():
    w = walks.lattice_walk(3, 2)
    assert w.dim == 36
    f = cycle_shift(3)
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
        assert _is_index_permutation(ew.chi)
        assert not np.array_equal(ew.chi, np.arange(w.dim))
        assert not np.array_equal(ew.w, w.shift)
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


def test_walks_compare_by_identity():
    w = walks.cycle_walk(4)
    assert w == w and w != walks.cycle_walk(4)
    assert len({w, walks.cycle_walk(4), w}) == 2


def _translation(row) -> np.ndarray:
    """The permutation matrix P with P e_j = e_row[j]."""
    p = np.zeros((len(row), len(row)))
    p[row, np.arange(len(row))] = 1
    return p


def _characters(w) -> np.ndarray:
    """The unitary N x N character matrix F of w.group, from its formula: column p is |p>."""
    chars, exps = w.group
    n = w.walker_dim
    return np.exp(2j * np.pi * (exps @ chars.T % n) / n) / np.sqrt(n)


def _assert_characters(w, rng):
    """w.group's character matrix F is unitary and diagonalizes every move, and the staged
    transforms apply F^dag and F within 1e-12.

    F^dag P_k F = diag(exp(-2 pi i angles[:, k] / N)) for every coin k.
    """
    chars, exps = w.group
    n = w.walker_dim
    r = chars.shape[1]
    assert chars.shape == exps.shape == (n, r) and 2 ** r <= n
    assert chars.dtype.kind == exps.dtype.kind == "i"
    assert not chars.flags.writeable and not exps.flags.writeable
    f = _characters(w)
    assert np.abs(f.conj().T @ f - np.eye(n)).max() <= 1e-12
    angles = walks.momentum_angles(w)
    assert angles.shape == (n, w.coin_dim) and angles.dtype.kind == "i"
    for k, row in enumerate(w.moves):
        expected = np.diag(np.exp(-2j * np.pi * angles[:, k] / n))
        assert np.abs(f.conj().T @ _translation(row) @ f - expected).max() <= 1e-12
    x = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    assert np.abs(walks._to_momenta(w, x) - f.conj().T @ x).max() <= 1e-12
    assert np.abs(walks._from_momenta(w, x) - f @ x).max() <= 1e-12
    assert np.abs(walks._from_momenta(w, walks._to_momenta(w, x)) - x).max() <= 1e-12
    # a vector transforms as a single column
    assert np.abs(walks._to_momenta(w, x[:, 0]) - f.conj().T @ x[:, 0]).max() <= 1e-12


def _assert_momentum_transform(w, rng):
    """momentum_blocks and from_momentum_blocks match the character matrix F, keep the
    Frobenius norm and invert each other."""
    c, n, dim = w.coin_dim, w.walker_dim, w.dim
    f = _characters(w)
    p = np.arange(n)
    x = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    blocks, off = walks.momentum_blocks(w, x)
    assert blocks.shape == (2, n, c, c) and blocks.flags.c_contiguous and off.shape == (2,)
    # xt[k, a, b, p, q] = <a,p| x_k |b,q>
    xt = f.conj().T @ x.reshape(2, c, n, c, n).swapaxes(-3, -2) @ f
    assert np.abs(blocks - np.moveaxis(xt[..., p, p], -1, -3)).max() <= 1e-12 * frob(x)
    xt[..., p, p] = 0
    assert np.abs(off - np.linalg.norm(xt.reshape(2, -1), axis=1)).max() <= 1e-12 * frob(x)
    total = np.linalg.norm(x.reshape(2, -1), axis=1) ** 2
    assert np.allclose(np.linalg.norm(blocks.reshape(2, -1), axis=1) ** 2 + off ** 2, total,
                       rtol=1e-12, atol=0)
    # F diag(blocks) F^dag on the walker axes
    dense = (f * np.moveaxis(blocks, -3, -1)[..., None, :]) @ f.conj().T
    dense = dense.swapaxes(-3, -2).reshape(2, dim, dim)
    assert np.abs(walks.from_momentum_blocks(w, blocks) - dense).max() <= 1e-12 * frob(x)
    # sum_k A_k x P_k commutes with every translation, so it is block diagonal
    coins = rng.normal(size=(c, c, c)) + 1j * rng.normal(size=(c, c, c))
    x = sum(kron(a, _translation(row)) for a, row in zip(coins, w.moves))
    angles = walks.momentum_angles(w)
    expected = np.tensordot(np.exp(-2j * np.pi * angles / n), coins, axes=1)
    blocks, off = walks.momentum_blocks(w, x)
    assert off <= 1e-12 * frob(x)
    assert np.abs(blocks - expected).max() <= 1e-12 * frob(x)
    assert np.abs(walks.from_momentum_blocks(w, blocks) - x).max() <= 1e-12 * frob(x)
    assert np.abs(walks.from_momentum_blocks(w, blocks[None])[0] - x).max() <= 1e-12 * frob(x)


@pytest.mark.parametrize("make", [lambda: walks.cycle_walk(5), lambda: walks.lattice_walk(3, 2),
                                  walks.example_walk, relabelled_cycle],
                         ids=["cycle:5", "lattice:3,2", "example", "relabelled cycle:7"])
def test_shift_phases_are_the_blocks_of_the_shift(make):
    w = make()
    c, n = w.coin_dim, w.walker_dim
    form = w.form
    d = np.diagonal(form.step(np.eye(c), form.one()), axis1=-2, axis2=-1)
    assert d.shape == (n, c)
    s = walks.from_momentum_blocks(w, d[:, :, None] * np.eye(c))
    assert np.abs(s - walks.shift_matrix(w)).max() <= 1e-12
    # conjugation by S puts D_p[a] conj(D_p[b]) on block p, each phase an exact root of unity
    phases = form.conjugate(np.ones((n, c, c)))
    assert np.abs(phases - d[:, :, None] * d[:, None, :].conj()).max() <= 1e-15
    assert np.all(phases[:, np.arange(c), np.arange(c)] == 1)


@pytest.mark.parametrize("make", [lambda: walks.cycle_walk(5), lambda: walks.lattice_walk(3, 2),
                                  walks.example_walk, relabelled_cycle, two_triangles,
                                  turn_or_flip_cycle],
                         ids=["cycle:5", "lattice:3,2", "example", "relabelled cycle:7",
                              "two triangles", "turn-or-flip cycle"])
def test_each_form_matches_the_dense_oracle(make):
    """The walk's form, and the dense kind on the same walk, against dense numpy: a step,
    k folded steps, X x 1 and S x S^-1 for a translation-invariant x; the momentum kind's
    blocks are those of the character matrix's formula."""
    w = make()
    c, n, dim = w.coin_dim, w.walker_dim, w.dim
    rng = np.random.default_rng(c * n)
    s = walks.shift_matrix(w)
    coin, x_coin = rng.normal(size=(2, c, c)) + 1j * rng.normal(size=(2, c, c))
    step = s @ kron(coin, np.eye(n))
    # sum_k A_k x P_k commutes with every translation of a walk with a group
    coins = rng.normal(size=(c, c, c)) + 1j * rng.normal(size=(c, c, c))
    x = sum(kron(a, _translation(row)) for a, row in zip(coins, w.moves))
    kinds = [w.form, walks.dense_form(w)]
    # the kind is chosen once, from the group: only the momentum kind folds steps
    assert [form.fold(coin, 2) is None for form in kinds] == [w.group is None, True]
    for form in kinds:
        scale = frob(step)
        assert np.abs(form.dense(form.step(coin, form.one())) - step).max() <= 1e-12 * scale
        for k in (1, 3):
            folded = form.fold(coin, k)
            if folded is not None:
                power = np.linalg.matrix_power(step, k)
                assert np.abs(form.dense(folded) - power).max() <= 1e-12 * frob(power)
        assert np.abs(form.dense(form.lift(x_coin)) - kron(x_coin, np.eye(n))).max() <= 1e-12
        blocks, off = form.blocks(x)
        assert off <= 1e-12 * frob(x)
        conjugated = form.dense(form.conjugate(blocks))
        assert conjugated.shape == (dim, dim)
        assert np.abs(conjugated - s @ x @ s.T).max() <= 1e-12 * frob(x)
    if w.group is not None:
        f = _characters(w)
        # xt[a, b, p, q] = <a,p| x |b,q>
        xt = f.conj().T @ x.reshape(c, n, c, n).swapaxes(1, 2) @ f
        expected = np.moveaxis(xt[:, :, np.arange(n), np.arange(n)], -1, 0)
        assert np.abs(w.form.blocks(x)[0] - expected).max() <= 1e-12 * frob(x)


@pytest.mark.parametrize("make", [lambda: walks.cycle_walk(5), lambda: walks.lattice_walk(3, 2),
                                  two_triangles, turn_or_flip_cycle],
                         ids=["cycle:5", "lattice:3,2", "two triangles", "turn-or-flip cycle"])
def test_a_step_on_a_stack_of_coins_is_each_coins_step(make):
    """Both kinds of form take a (M, c, c) stack of coins, on one operator or on M of them, and
    give each product bitwise as that coin's own step would."""
    w = make()
    c = w.coin_dim
    rng = np.random.default_rng(c * w.walker_dim)
    coins = rng.normal(size=(3, c, c)) + 1j * rng.normal(size=(3, c, c))
    for form in (w.form, walks.dense_form(w)):
        one = form.one()
        ops = np.stack([form.step(a, one) for a in coins[::-1]])
        shared, each = form.step(coins, one), form.step(coins, ops)
        assert shared.shape == each.shape == (3,) + one.shape
        for a, op, u, v in zip(coins, ops, shared, each):
            assert np.array_equal(u, form.step(a, one))
            assert np.array_equal(v, form.step(a, op))


@pytest.mark.parametrize("make", [lambda: walks.cycle_walk(7), lambda: walks.lattice_walk(4, 2),
                                  walks.example_walk, relabelled_cycle],
                         ids=["cycle:7", "lattice:4,2", "example", "relabelled cycle:7"])
def test_characters_are_the_exponential_formula_bitwise(make):
    """Every factor of the staged character transform is exp(-2 pi i l / N) at its angle l."""
    w = make()
    chars, exps = w.group
    n = w.walker_dim
    grid, stages = w._momentum_stages
    assert np.array_equal(np.sort(grid), np.arange(n))
    prefixes = 1
    for k, (twiddles, dft) in enumerate(stages):
        m = len(dft)
        e = np.arange(m)
        assert np.array_equal(dft, np.exp(-2j * np.pi * (np.outer(e, e) * (n // m) % n) / n)
                              / np.sqrt(m))
        t = chars[::n // prefixes, k] % (n // m)
        if twiddles is None:
            assert not t.any()
        else:
            assert np.array_equal(twiddles, np.exp(-2j * np.pi * (np.outer(t, e) % n) / n))
        prefixes *= m
    assert prefixes == n
    if len(stages) == 1:
        # the one stage is the formula's F^dag itself, in grid order
        assert np.array_equal(stages[0][1][:, grid], _characters(w).conj().T)
    # built once per walk, and read-only so that no caller can change them
    assert w._momentum_stages is w._momentum_stages
    factors = [grid] + [a for stage in stages for a in stage if a is not None]
    assert not any(a.flags.writeable for a in factors)


@pytest.mark.parametrize("n, offsets", [(8, [2, -2, 1, -1]), (16, [4, -4, 2, -2, 1, -1])],
                         ids=["Z_8 +2 -2 +1 -1", "Z_16 +-4 +-2 +-1"])
def test_non_split_towers_transform_through_their_twiddles(n, offsets):
    """Coin +2 (or +4) grows the orbit first, so the later stages need twiddles."""
    rng = np.random.default_rng(n)
    w = walks._translation_walk((n,), [(o,) for o in offsets])
    _, stages = w._momentum_stages
    assert [len(dft) for _, dft in stages] == [4] + [2] * (len(stages) - 1)
    assert stages[0][0] is None and all(t is not None for t, _ in stages[1:])
    for walk in (w, relabelled(w, rng.permutation(n))):
        _assert_characters(walk, rng)
        _assert_momentum_transform(walk, rng)


def _assert_characters_on_columns(w, rng):
    """_assert_characters without its N^3 products, for a walk too large for them: F's
    columns are orthonormal on a few vectors, every move maps column p of F to itself times
    exp(-2 pi i angles[p, k] / N), and the staged transforms apply F^dag and F within 1e-12."""
    n = w.walker_dim
    f = _characters(w)
    x = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    assert np.abs(f.conj().T @ (f @ x) - x).max() <= 1e-12
    angles = walks.momentum_angles(w)
    p = rng.choice(n, size=64, replace=False)
    for k, row in enumerate(w.moves):
        moved = np.empty((n, len(p)), dtype=complex)
        moved[row] = f[:, p]  # P_k e_v = e_row[v]
        assert np.abs(moved - f[:, p] * np.exp(-2j * np.pi * angles[p, k] / n)).max() <= 1e-12
    assert np.abs(walks._to_momenta(w, x) - f.conj().T @ x).max() <= 1e-12
    assert np.abs(walks._from_momenta(w, x) - f @ x).max() <= 1e-12
    assert np.abs(walks._from_momenta(w, walks._to_momenta(w, x)) - x).max() <= 1e-12


@pytest.mark.parametrize("n, sizes", [(128, [8, 16]), (256, [16, 16]), (2000, [40, 50])])
def test_a_long_cycle_transforms_in_two_balanced_stages(n, sizes):
    """The cycle's coin grows the orbit n-fold, and an n x n DFT would outgrow the walk, so
    the orbit grows by P^b (order a, the largest divisor of n up to sqrt n) and then by P
    (order b).  The staged transform is the character formula's, on the walk built and
    read relabelled from JSON, and its DFT tables hold at most 3N entries in all."""
    rng = np.random.default_rng(n)
    w = walks.cycle_walk(n)
    for walk in (w, relabelled(w, rng.permutation(n))):
        _, stages = walk._momentum_stages
        assert [len(dft) for _, dft in stages] == sizes
        assert sum(dft.size for _, dft in stages) <= 3 * n
        # P^b 0 has angle 0 at every character of the first stage, so only the second twiddles
        assert stages[0][0] is None and stages[1][0].shape == (sizes[0], sizes[1])
        if n <= 256:
            _assert_characters(walk, rng)
            _assert_momentum_transform(walk, rng)
        else:  # dense (2, 4000, 4000) operators would take over 1 GB
            _assert_characters_on_columns(walk, rng)


@pytest.mark.parametrize("make, sizes", [(lambda: walks.cycle_walk(31), [31]),
                                         (lambda: walks.cycle_walk(4), [4]),
                                         (lambda: walks.lattice_walk(8, 2), [8, 8])],
                         ids=["cycle:31", "cycle:4", "lattice:8,2"])
def test_orbits_that_no_split_shrinks_keep_one_stage_per_coin(make, sizes):
    """A prime orbit factor has no split, 4 = 2 x 2 saves no work per entry, and on
    lattice:8,2 each coin's 8 x 8 DFT is smaller than the walk."""
    _, stages = make()._momentum_stages
    assert [len(dft) for _, dft in stages] == sizes


@pytest.mark.parametrize("make, shape", [(lambda: walks.lattice_walk(10, 3), (10, 10, 10)),
                                         (lambda: walks.lattice_walk(3, 2), (3, 3)),
                                         (walks.example_walk, (2, 2))],
                         ids=["lattice:10,3", "lattice:3,2", "example"])
def test_product_groups_keep_their_group_bitwise(make, shape):
    """Each forward coin of Z_n^d grows the orbit n-fold, an n x n DFT smaller than the walk:
    exps[v] are the coordinates of v and chars[p] its digits times N / n, as integers."""
    chars, exps = make().group
    digits = np.indices(shape).reshape(len(shape), -1).T
    assert exps.dtype == chars.dtype == np.dtype(int)
    assert np.array_equal(exps, digits)
    assert np.array_equal(chars, digits * (math.prod(shape) // shape[0]))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(larger_translation_walks(), st.integers(0, 2 ** 32 - 1))
def test_larger_translation_walks_round_trip_their_blocks_and_keep_the_norm(w, seed):
    """On walks of up to 300 vertices, built and relabelled, often with split stages: the
    blocks of from_momentum_blocks(b) are b within 1e-12 and nothing is off them; expm_state
    keeps the norm of a walk state, and on the walker space it is the dense exponential."""
    rng = np.random.default_rng(seed)
    for walk in (w, relabelled(w, rng.permutation(w.walker_dim))):
        c, n = walk.coin_dim, walk.walker_dim
        b = rng.normal(size=(n, c, c)) + 1j * rng.normal(size=(n, c, c))
        back, off = walks.momentum_blocks(walk, walks.from_momentum_blocks(walk, b))
        assert np.abs(back - b).max() <= 1e-12 and off <= 1e-12 * frob(b)
        psi = rng.normal(size=walk.dim) + 1j * rng.normal(size=walk.dim)
        psi /= np.linalg.norm(psi)
        state = walks.expm_state(walk, np.linalg.eigh(b + b.conj().swapaxes(-1, -2)), 0.7, psi)
        assert abs(np.linalg.norm(state) - 1) <= 1e-12
        phi = psi[:n] / np.linalg.norm(psi[:n])
        expected = expm_eig(hermitian_eig(graphs.adjacency(walk.graph)), 0.7) @ phi
        state = walks.expm_state(walk, walks.adjacency_eig(walk), 0.7, phi)
        assert np.abs(state - expected).max() <= 1e-12


def _non_split(n, offsets):
    return lambda: walks._translation_walk((n,), [(o,) for o in offsets])


@pytest.mark.parametrize("make", [lambda: walks.cycle_walk(7), lambda: walks.cycle_walk(64),
                                  lambda: walks.lattice_walk(4, 2), walks.example_walk,
                                  relabelled_cycle, _non_split(8, [2, -2, 1, -1]),
                                  _non_split(16, [4, -4, 2, -2, 1, -1])],
                         ids=["cycle:7", "cycle:64", "lattice:4,2", "example",
                              "relabelled cycle:7", "Z_8 +2 -2 +1 -1", "Z_16 +-4 +-2 +-1"])
def test_the_group_law_is_grown_along_the_moves(make):
    """_sums, the table of g + u, comes from the moves, not from the transform's stages, and
    it is the group law: chi_p(g + u) = chi_p(g) chi_p(u) for every character p."""
    w = make()
    sums = w._sums
    assert "_momentum_stages" not in w.__dict__
    assert sums.dtype == np.intp and not sums.flags.writeable
    n = w.walker_dim
    assert np.array_equal(sums[:, 0], np.arange(n)) and np.array_equal(sums, sums.T)
    chars, exps = w.group
    angle = exps @ chars.T  # angle[v, p]: chi_p(v) = exp(2 pi i angle[v, p] / N)
    assert not np.any((angle[sums] - angle[None, :] - angle[:, None]) % n)


def test_momentum_blocks_allocate_about_one_operator():
    """On a fresh lattice:6,3 walk (dim 1296), so that building its tables counts, neither
    direction of the dense <-> momentum-block conversion allocates more than 1.25 times the
    dense operator's bytes at its peak."""
    w = walks.lattice_walk(6, 3)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(w.dim, w.dim)) + 1j * rng.normal(size=(w.dim, w.dim))
    tracemalloc.start()
    try:
        blocks, _ = walks.momentum_blocks(w, x)
        to_blocks = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = walks.from_momentum_blocks(w, blocks)
        from_blocks = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.shape == x.shape
    assert to_blocks <= 1.25 * x.nbytes, to_blocks / x.nbytes
    assert from_blocks <= 1.25 * x.nbytes, from_blocks / x.nbytes


def test_adjacency_blocks_need_a_group_and_distinct_targets():
    repeated = walks.walk_from_json(repeated_target_json(3, CYCLE8_CHORDS))
    assert repeated.group is not None
    # without a group or with repeated targets, A is decomposed densely
    for w in (turn_or_flip_cycle(), repeated):
        a = graphs.adjacency(w.graph)
        vals, vecs = walks.adjacency_eig(w)
        dense = hermitian_eig(a)
        assert np.array_equal(vals, dense[0]) and np.array_equal(vecs, dense[1])
        assert np.array_equal(walks.adjacency_spectrum(w), np.linalg.eigvalsh(a))
    w = walks.cycle_walk(5)
    vals, vecs = walks.adjacency_eig(w)
    assert vals.shape == (5, 1) and np.array_equal(vecs, np.ones((5, 1, 1)))
    # bitwise what eigh of the 1 x 1 blocks returns
    block_vals, block_vecs = np.linalg.eigh(vals[:, :, None])
    assert np.array_equal(block_vals, vals) and np.array_equal(block_vecs, vecs)
    assert np.array_equal(walks.adjacency_spectrum(w), vals.ravel())
    assert np.allclose(vals.ravel(), 2 * np.cos(2 * np.pi * np.arange(5) / 5), rtol=0,
                       atol=1e-15)


def test_expm_state_from_dense_eigenpairs_is_the_matrix_applied():
    rng = np.random.default_rng(3)
    w = turn_or_flip_cycle()
    h = rng.standard_normal((w.dim, w.dim)) + 1j * rng.standard_normal((w.dim, w.dim))
    h = h + h.conj().T
    psi = seeded_state(w.dim, 3)
    eig = hermitian_eig(h)
    for s in (0.0, 0.4, -2.5):
        state = walks.expm_state(w, eig, s, psi)
        assert np.abs(state - expm_eig(eig, s) @ psi).max() <= 1e-12
    assert np.array_equal(walks.expm_state(w, eig, 0.0, psi), psi)


def test_translation_walks_record_their_group():
    rng = np.random.default_rng(5)
    cases = [walks.cycle_walk(40), walks.cycle_walk(6), walks.lattice_walk(3, 2),
             walks.lattice_walk(4, 3), walks.example_walk(),
             # Z_2 x Z_3 and the generators 2, 3 of Z_6 are both the cyclic Z_6
             walks._translation_walk((2, 3), [(1, 0), (0, 1), (0, -1)]),
             walks._translation_walk((6,), [(2,), (-2,), (3,)]),
             walks._translation_walk((2, 4), [(1, 0), (0, 1), (0, -1)]),
             walks._translation_walk((4, 6), [(1, 0), (-1, 0), (0, 3), (1, 1), (-1, -1)])]
    for w in cases:
        # and the same walk with its vertices renamed, read from JSON
        for walk in (w, relabelled(w, rng.permutation(w.walker_dim))):
            _assert_characters(walk, rng)
            _assert_momentum_transform(walk, rng)
    # moves that do not commute, and moves that do not reach every vertex
    assert turn_or_flip_cycle().group is None
    assert walks._translation_walk((4, 6), [(2, 0), (0, 1), (0, -1)]).group is None


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(translation_walks(), st.integers(0, 2 ** 32 - 1))
def test_translation_walk_characters_diagonalize_the_moves(w, seed):
    rng = np.random.default_rng(seed)
    for walk in (w, relabelled(w, rng.permutation(w.walker_dim))):
        _assert_characters(walk, rng)
        _assert_momentum_transform(walk, rng)


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
    eye = np.eye(8, dtype=complex)
    assert np.array_equal(walks.apply_step(w, np.eye(2), eye), walks.shift_matrix(w))
    # with the coin R the step squares to -1
    assert frob(walks.apply_step(w, R, walks.apply_step(w, R, eye)) + eye) <= 1e-12
    coin = seeded_unitary(2, 42)
    step = walks.apply_step(w, coin, eye)
    assert frob(step.conj().T @ step - eye) <= 1e-12 * 8

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
            assert frob(walks.apply_step(w, coin, np.eye(w.dim)) - dense) <= 1e-12


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


def _is_index_permutation(p):
    return np.array_equal(np.sort(np.ravel(p)), np.arange(np.size(p)))


def test_edge_walk_structure():
    w = walks.cycle_walk(3)
    ew = walks.coined_to_edge_walk(w, np.eye(2))
    assert _is_index_permutation(ew.chi)
    assert _is_index_permutation(ew.w)
    assert _is_index_permutation(ew.out)
    assert is_unitary(ew.coin)
    assert walks.intertwining_residual(w, np.eye(2)) <= 1e-14
    with pytest.raises(NotUnitary):
        walks.coined_to_edge_walk(w, 2 * np.eye(2))
    # the coin operator never mixes different present vertices: the edges
    # it mixes at vertex j all start at j
    coin = seeded_unitary(3, 5)
    ew2 = walks.coined_to_edge_walk(walks.example_walk(), coin)
    for j in range(4):
        assert [ew2.edge_basis[e][0] for e in ew2.out[:, j]] == [j] * 3


def test_edge_walk_needs_distinct_targets():
    # a valid walk whose two coin results both step forward
    w = walks.CoinedWalk(graphs.cycle_graph(4), [[1, 2, 3, 0], [1, 2, 3, 0]])
    with pytest.raises(QwlError, match="move vertex 0 to vertex 1;"):
        walks.coined_to_edge_walk(w, np.eye(2))


def test_edge_walk_is_index_maps_at_scale():
    w = walks.lattice_walk(10, 3)
    ew = walks.coined_to_edge_walk(w, seeded_unitary(6, 1))
    for perm in (ew.chi, ew.w):
        assert perm.shape == (6000,)
        assert np.issubdtype(perm.dtype, np.integer)
    assert ew.out.shape == (6, 1000)


@pytest.mark.parametrize("field", ["chi", "w", "out"])
def test_intertwining_residual_sees_a_wrong_map(monkeypatch, field):
    build = walks.coined_to_edge_walk

    def rolled(w, coin):
        ew = build(w, coin)
        return walks.EdgeWalk(**{**vars(ew), field: np.roll(getattr(ew, field), 1)})

    monkeypatch.setattr(walks, "coined_to_edge_walk", rolled)
    for w in (walks.cycle_walk(5), walks.example_walk()):
        assert walks.intertwining_residual(w, seeded_unitary(w.coin_dim, 4)) > 1e-12


def _assert_float64_equal(real, oracle):
    assert real.dtype == np.float64
    assert np.array_equal(real, oracle)


def test_real_builders_match_complex_formulas():
    # each 0/1 builder equals the complex matrix of its defining rule, entry for entry
    for n in (2, 3, 8):
        k = np.arange(n)
        f = np.zeros((n, n), dtype=complex)
        f[(k + 1) % n, k] = 1
        _assert_float64_equal(cycle_shift(n), f)
    for w in (walks.cycle_walk(5), walks.lattice_walk(3, 2), walks.example_walk()):
        s = np.zeros((w.dim, w.dim), dtype=complex)
        s[w.shift, np.arange(w.dim)] = 1
        _assert_float64_equal(walks.shift_matrix(w), s)
    # each edge-space index map equals its defining rule, entry for entry
    for w in (walks.cycle_walk(5), walks.lattice_walk(3, 2), walks.example_walk(),
              relabelled_cycle()):
        c, n = w.coin_dim, w.walker_dim
        ew = walks.coined_to_edge_walk(w, seeded_unitary(c, 3))
        assert ew.edge_basis == tuple(sorted((j, int(w.moves[k, j]))
                                             for k in range(c) for j in range(n)))
        index = {pair: p for p, pair in enumerate(ew.edge_basis)}
        chi = [index[(j, int(w.moves[k, j]))] for k in range(c) for j in range(n)]
        wmap = []
        for j, f in ew.edge_basis:
            k = list(w.moves[:, j]).index(f)
            wmap.append(index[(f, int(w.moves[k, f]))])
        out = [[index[(j, int(w.moves[l, j]))] for j in range(n)] for l in range(c)]
        for got, rule in ((ew.chi, chi), (ew.w, wmap), (ew.out, out)):
            assert np.issubdtype(got.dtype, np.integer)
            assert np.array_equal(got, rule)
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
    w = walks.lattice_walk(6, 3)
    assert walks.intertwining_residual(w, seeded_unitary(6, 2)) <= 1e-12 * w.dim


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


def oracle_shift_order(w) -> int:
    """The lcm of the shift's cycle lengths, each cycle walked index by index."""
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


def disjoint_cycles_walk():
    """A two-coin walk on a 3-cycle beside a 4-cycle: forward on coin 0, back on coin 1."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
    forward = [1, 2, 0, 4, 5, 6, 3]
    back = [forward.index(j) for j in range(7)]
    return walks.CoinedWalk(graphs.graph(7, edges), [forward, back])


@pytest.mark.parametrize("make", [
    lambda: walks.cycle_walk(5), lambda: walks.lattice_walk(3, 2), walks.example_walk,
    relabelled_cycle, turn_or_flip_cycle, two_triangles, disjoint_cycles_walk,
], ids=["cycle5", "lattice3x2", "example", "relabelled-cycle", "turn-or-flip", "two-triangles",
        "disjoint-3-and-4-cycles"])
def test_shift_order_matches_the_cycle_walking_oracle(make):
    w = make()
    assert walks.shift_order(w) == oracle_shift_order(w)


def test_disjoint_cycles_of_coprime_lengths_multiply_the_order():
    assert walks.shift_order(disjoint_cycles_walk()) == 12


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(1, 300).flatmap(lambda n: st.permutations(range(n))))
def test_shift_order_of_any_permutation_matches_the_oracle(perm):
    w = SimpleNamespace(shift=np.array(perm))
    assert walks.shift_order(w) == oracle_shift_order(w)


def oracle_move_check(g, moves):
    """The coin rows checked one move at a time against the edge set."""
    edge_set = g.edges
    for k, row in enumerate(np.asarray(moves).tolist()):
        if len(set(row)) != g.n:
            raise NotBijective(k)
        for j, t in enumerate(row):
            if (min(j, t), max(j, t)) not in edge_set or j == t:
                raise NotAnEdge(j, k)


def _refusal(build):
    try:
        build()
    except (NotBijective, NotAnEdge) as exc:
        return type(exc), str(exc), getattr(exc, "vertex", None), exc.coin
    return None


def _edited_cycle5(k, j, t):
    spec = walks.walk_to_json(walks.cycle_walk(5))
    spec["moves"][k][j] = t
    return spec


@pytest.mark.parametrize("spec, refusal", [
    # 7 = 0 * 5 + 7 is the key 1 * 5 + 2 of the edge (1, 2): the range is checked first
    (_edited_cycle5(0, 0, 7), (NotAnEdge, 0, 0)),
    (_edited_cycle5(1, 3, -1), (NotAnEdge, 3, 1)),
    (_edited_cycle5(1, 2, 2), (NotBijective, None, 1)),  # moves[1][3] is 2 too
    (dict(walks.walk_to_json(walks.cycle_walk(5)), moves=[[2, 3, 4, 0, 1], [4, 0, 1, 2, 3]]),
     (NotAnEdge, 0, 0)),
], ids=["past-n-aliasing-an-edge-key", "negative", "repeated", "non-neighbour"])
def test_bad_move_tables_are_refused_at_the_oracles_first_offender(spec, refusal):
    g = graphs.graph_from_json(spec["graph"])
    expected = _refusal(lambda: oracle_move_check(g, spec["moves"]))
    assert (expected[0], expected[2], expected[3]) == refusal
    assert _refusal(lambda: walks.walk_from_json(spec)) == expected


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(cayley_walks(), st.data())
def test_every_edited_table_is_refused_where_the_oracle_refuses_it(w, data):
    c, n = w.moves.shape
    bad = np.array(w.moves)
    for _ in range(data.draw(st.integers(1, 4))):
        k, j = data.draw(st.integers(0, c - 1)), data.draw(st.integers(0, n - 1))
        bad[k, j] = data.draw(st.integers(-n - 2, 2 * n + 2))
    assert (_refusal(lambda: walks.CoinedWalk(w.graph, bad))
            == _refusal(lambda: oracle_move_check(w.graph, bad)))
