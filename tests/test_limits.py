"""Protocols, effective Hamiltonians, convergence orders, chiral projections."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qwl import graphs, liealg, limits, walks
from qwl.errors import (DimMismatch, DomainExceeded, NotBijective, NotScalarAtZero,
                        NotSkewHermitian, TooSmall)
from qwl.liealg import u_basis
from qwl.linalg import (commutator, expm_eig, expm_hermitian, frob, hermitian_eig,
                         is_hermitian, is_unitary, kron)
from qwl.rng import LcgStream, seeded_state
from walk_cases import (cayley_walks, cycle_shift, relabelled, relabelled_cycle,
                        repeated_target_json, translation_walks, two_triangles)

R = limits.R_COIN
D = limits.D_COIN


def random_atom(seed: int, nsteps: int = 2) -> limits.Atom:
    """Random two-step atom on the K4 walk; S^2 = 1 anchors the reference."""
    stream = LcgStream(seed)
    basis = u_basis(3)
    steps = []
    for _ in range(nsteps):
        gen = sum(stream.gauss_pair()[0] * b for b in basis)
        steps.append(limits.ProtocolStep(np.eye(3, dtype=complex), gen, 1.0))
    return limits.Atom(walks.example_walk(), steps)


def dense_factors(atom, x):
    """The steps S (C exp(a x E) x 1) of an atom as dense matrices, step 1 first."""
    s = walks.shift_matrix(atom.walk)
    eye_n = np.eye(atom.walk.walker_dim)
    return [s @ kron(st.coin @ expm_hermitian(1j * st.generator, st.slope * x), eye_n)
            for st in atom.steps]


def dense_unitary(p, x):
    """Dense reference for protocol_unitary: the plain left-to-right product."""
    if isinstance(p, limits.Atom):
        u = np.eye(p.walk.dim, dtype=complex)
        for f in dense_factors(p, x):
            u = u @ f
        return u
    if isinstance(p, limits.Concat):
        return dense_unitary(p.left, x) @ dense_unitary(p.right, x)
    u1, u2 = dense_unitary(p.left, np.sqrt(x)), dense_unitary(p.right, np.sqrt(x))
    return u1 @ u2 @ u1.conj().T @ u2.conj().T


def dense_hamiltonian(p):
    """Dense reference for effective_hamiltonian.

    An atom's H is i/phi times the derivative at 0 of its step product:
    the sum over steps j of prefix_j F_j (a_j E_j x 1) suffix_j.
    """
    if isinstance(p, limits.Concat):
        return dense_hamiltonian(p.left) + dense_hamiltonian(p.right)
    if isinstance(p, limits.Commutator):
        h1, h2 = dense_hamiltonian(p.left), dense_hamiltonian(p.right)
        return -1j * commutator(h1, h2)
    factors = dense_factors(p, 0.0)
    eye_n = np.eye(p.walk.walker_dim)
    dim = p.walk.dim
    suffixes = [np.eye(dim, dtype=complex)]
    for f in reversed(factors[1:]):
        suffixes.append(f @ suffixes[-1])
    suffixes.reverse()
    prefix = np.eye(dim, dtype=complex)
    deriv = np.zeros((dim, dim), dtype=complex)
    for st, f, suffix in zip(p.steps, factors, suffixes):
        deriv += prefix @ f @ kron(st.slope * st.generator, eye_n) @ suffix
        prefix = prefix @ f
    return 1j / p.phase * deriv


def random_orbit_atom(w, stream, perturbed):
    """shift_order(w) identity-coin steps (reference S^r = 1) with random u(c) generators on
    the steps listed in ``perturbed``."""
    c, r = w.coin_dim, walks.shift_order(w)
    basis = u_basis(c)
    steps = []
    for j in range(r):
        gen = sum(stream.gauss_pair()[0] * b for b in basis) if j in perturbed \
            else np.zeros((c, c), dtype=complex)
        steps.append(limits.ProtocolStep(np.eye(c, dtype=complex), gen, 0.5 + j / r))
    return limits.Atom(w, steps)


def test_structured_atoms_match_dense_oracle():
    stream = LcgStream(5)
    a, b, c = (random_orbit_atom(walks.cycle_walk(8), stream, perturbed)
               for perturbed in ({0, 3}, {2, 5, 7}, {1, 6}))
    composite = limits.Commutator(limits.Concat(a, b), c)
    for p in (limits.strauch_protocol(8), limits.evencyc_protocol(8), a, composite):
        h = limits.effective_hamiltonian(p)
        assert frob(h - dense_hamiltonian(p)) <= 1e-12
        for x in (0.0, 0.01, 0.3):
            assert frob(limits.protocol_unitary(p, x) - dense_unitary(p, x)) <= 1e-12


def test_idle_runs_are_folded_once_and_match_the_dense_product():
    """On a walk with a group, an atom's T(x) multiplies one block product per perturbed step
    and one per maximal run of unperturbed steps, folded at construction."""
    w = walks.lattice_walk(4, 2)
    eye, zero = np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex)
    idle = limits.Atom(w, [limits.ProtocolStep(eye, zero)] * walks.shift_order(w))
    stream = LcgStream(7)
    a, b = (random_orbit_atom(walks.cycle_walk(8), stream, perturbed)
            for perturbed in ({0, 3}, {2, 7}))
    composite = limits.Commutator(limits.Concat(a, limits.evencyc_protocol(8)), b)
    for p, count in ((limits.orbit_protocol(w), 3), (idle, 1), (a, 4), (b, 4)):
        assert len(p._factors) == count
        assert not any(f.flags.writeable for f in p._factors if isinstance(f, np.ndarray))
    for p in (limits.orbit_protocol(w), composite, idle):
        for x in (0.0, 0.01, 0.3):
            assert frob(limits.protocol_unitary(p, x) - dense_unitary(p, x)) <= 1e-12
    assert frob(limits.protocol_unitary(idle, 0.2) - np.eye(w.dim)) <= 1e-12


def atoms_of(p):
    """The atoms of a protocol tree, left to right."""
    return [p] if isinstance(p, limits.Atom) else atoms_of(p.left) + atoms_of(p.right)


def coin_stack(atom):
    """What np.linalg.eigh receives to exponentiate an atom's distinct perturbed steps: the
    symmetrized (k, c, c) stack of their i E_j, in order of first appearance."""
    moving = {id(st): st for st in atom.steps if st.generator.any()}.values()
    h = 1j * np.array([st.generator for st in moving])
    return (h + h.conj().swapaxes(-1, -2)) / 2


@pytest.mark.parametrize("m_list", [[8], [8, 16], [8, 16, 32, 64]])
def test_converge_decomposes_each_hamiltonian_once(monkeypatch, m_list):
    stream = LcgStream(7)
    a, b, c = (random_orbit_atom(walks.cycle_walk(8), stream, perturbed)
               for perturbed in ({0, 3}, {2, 5}, {1, 6}))
    triangles = two_triangles()
    protocols = [limits.strauch_protocol(8), limits.evencyc_protocol(8),
                 limits.Commutator(limits.Concat(a, b), c),
                 limits.two_step_protocol(triangles), limits.orbit_protocol(triangles)]
    eigh = np.linalg.eigh
    args = []

    def recording_eigh(h, *rest, **kwargs):
        args.append(np.array(h))
        return eigh(h, *rest, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for p in protocols:
        w = p.walk
        args.clear()
        # what `qwl converge` computes: the study, then one single-step error per m
        study = limits.convergence_study(p, 1.0, 1.0, m_list)
        for x, _ in study.samples:
            limits.single_step_error(p, x)
        # each evaluation of T(x) exponentiates each atom's distinct perturbed steps in one
        # call, told apart from H's decomposition by its argument
        rest = args
        for atom in atoms_of(p):
            stack = coin_stack(atom)
            assert stack.shape[1:] == (w.coin_dim,) * 2
            same = [np.array_equal(h, stack) for h in rest]
            assert sum(same) == 2 * len(m_list)
            rest = [h for h, s in zip(rest, same) if not s]
        # what is left is one decomposition of H: its momentum blocks on a translation walk,
        # the dense H on a walk without a group
        assert len(rest) == 1
        h = limits.effective_hamiltonian(p)
        expected = h if w.group is None else walks.momentum_blocks(w, h)[0]
        assert rest[0].shape == expected.shape
        assert frob(rest[0] - expected) <= 1e-12 * max(1.0, frob(h))


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3), st.integers(0, 2 ** 31),
       st.floats(0, 0.9))
def test_unitary_is_bitwise_the_per_step_product(slopes, seed, x):
    """T(x) on a walk without a group is bitwise the product of the steps
    S (C_j expm_hermitian(i E_j, a_j x) x 1), however the steps repeat."""
    w = two_triangles()
    stream = LcgStream(seed)
    basis = u_basis(2)
    gens = [sum(stream.gauss_pair()[0] * g for g in basis) for _ in range(2)]
    eye = np.eye(2, dtype=complex)
    moving = [limits.ProtocolStep(eye, g, a) for g, a in zip(gens, slopes)]
    idle = limits.ProtocolStep(eye, np.zeros((2, 2), dtype=complex), slopes[2])
    steps = [moving[0], idle, moving[1], moving[0], idle, idle]  # reference S^6 = 1
    p = limits.Atom(w, steps)
    u = np.eye(w.dim, dtype=complex)
    for st_ in reversed(steps):
        coin = st_.coin @ expm_hermitian(1j * st_.generator, st_.slope * x) if st_.generator.any() \
            else st_.coin
        u = walks.apply_step(w, coin, u)
    assert np.array_equal(p.unitary(x), u)


def test_converge_on_a_translation_walk_stays_in_momentum_blocks(monkeypatch):
    stream = LcgStream(9)
    a, b = (random_orbit_atom(walks.cycle_walk(6), stream, perturbed)
            for perturbed in ({0, 3}, {2, 5}))
    p = limits.Commutator(limits.Concat(a, limits.evencyc_protocol(6)), b)
    expected = limits.convergence_study(p, 1.0, 1.0, [8, 16, 32])

    def dense(*args):
        raise AssertionError("a dense walk operator was formed")

    # after construction, nothing of size dim x dim: no dense step, no block-to-dense map
    monkeypatch.setattr(limits, "apply_step", dense)
    monkeypatch.setattr(limits, "from_momentum_blocks", dense)
    assert limits.convergence_study(p, 1.0, 1.0, [8, 16, 32]) == expected
    assert p.unitary(0.1).shape == (6, 2, 2)
    for x, _ in expected.samples:
        limits.single_step_error(p, x)


@pytest.mark.parametrize("w", [walks.cycle_walk(8), walks.lattice_walk(3, 2)],
                         ids=["cycle:8", "lattice:3,2"])
def test_construction_on_a_translation_walk_stays_in_momentum_blocks(monkeypatch, w):
    """With a group an atom folds T(0) and H in momentum blocks, and no dense step is formed;
    a walk without a group keeps the dense fold."""
    def dense(*args):
        raise AssertionError("a dense walk step was formed")

    monkeypatch.setattr(limits, "apply_step", dense)
    stream = LcgStream(11)
    r = walks.shift_order(w)
    a, b, c = (random_orbit_atom(w, stream, perturbed) for perturbed in ({0}, {1, r - 1}, {0, 2}))
    built = [limits.orbit_protocol(w), limits.Commutator(limits.Concat(a, b), c)]
    if w.coin_dim == 2:
        built.append(limits.two_step_protocol(w))
    for p in built:
        assert frob(limits.effective_hamiltonian(p) - dense_hamiltonian(p)) <= 1e-12
    with pytest.raises(AssertionError, match="dense walk step"):
        limits.two_step_protocol(two_triangles())


def test_reference_check_takes_one_phase_over_all_momentum_blocks():
    """Both coins step +1, so the idle step's T(0) = S is D_p 1 in block p: scalar in every
    block, with a phase that varies with p, so it is not a scalar times the identity."""
    w = walks.walk_from_json(repeated_target_json(2))
    assert w.group is not None
    idle = limits.ProtocolStep(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    with pytest.raises(NotScalarAtZero):
        limits.Atom(w, [idle])


def test_atom_hamiltonian_is_stored_read_only():
    p = limits.strauch_protocol(6)
    h = limits.effective_hamiltonian(p)
    assert h is limits.effective_hamiltonian(p)
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0, 0] = 1.0


@pytest.mark.parametrize("kind", [limits.Concat, limits.Commutator])
def test_composite_hamiltonian_is_stored_read_only(kind):
    p = kind(limits.strauch_protocol(6), limits.evencyc_protocol(6))
    h = limits.effective_hamiltonian(p)
    assert h is limits.effective_hamiltonian(p)
    assert not h.flags.writeable and not p._h.flags.writeable
    with pytest.raises(ValueError):
        h[0, 0] = 1.0


def test_composites_keep_their_hamiltonian_in_the_walks_form(monkeypatch):
    """Concat adds and Commutator brackets its children's momentum blocks, so the dense H of a
    nested composite is made once, from its own blocks; on a walk without a group, _h is the
    dense H."""
    made = []

    def counted(w, blocks):
        made.append(blocks.shape)
        return walks.from_momentum_blocks(w, blocks)

    monkeypatch.setattr(limits, "from_momentum_blocks", counted)
    w = walks.cycle_walk(8)
    p = limits.Commutator(limits.Concat(limits.strauch_protocol(8), limits.evencyc_protocol(8)),
                          limits.two_step_protocol(w))
    assert p._h.shape == (8, 2, 2) and p._h.flags.c_contiguous and not p._h.flags.writeable
    p.eigenpairs
    assert made == [(8, 2, 2)]
    w = two_triangles()
    stream = LcgStream(3)
    a, b, c = (random_orbit_atom(w, stream, perturbed) for perturbed in ({0}, {1, 2}, {0, 2}))
    q = limits.Commutator(limits.Concat(a, b), c)
    assert q._h.shape == (w.dim, w.dim) == (12, 12)
    assert limits.effective_hamiltonian(q) is q._h
    assert frob(q._h) > 1 and frob(q._h - dense_hamiltonian(q)) <= 1e-12


@st.composite
def shift_orbit_atoms(draw, w):
    """shift_order(w) identity-coin steps (so S^r = 1), random u(c) generators and
    slopes on a random nonempty subset of the steps."""
    c, r = w.coin_dim, walks.shift_order(w)
    perturbed = draw(st.sets(st.integers(0, r - 1), min_size=1))
    entries = arrays(np.float64, (2, c, c), elements=st.floats(-1, 1))
    steps = []
    for j in range(r):
        gen = np.zeros((c, c), dtype=complex)
        if j in perturbed:
            re, im = draw(entries)
            m = re + 1j * im
            gen = (m - m.conj().T) / 2
        slope = draw(st.floats(-2, 2))
        steps.append(limits.ProtocolStep(np.eye(c, dtype=complex), gen, slope))
    return limits.Atom(w, steps)


@st.composite
def protocols(draw):
    w = draw(st.one_of(translation_walks(), cayley_walks()))
    a = draw(shift_orbit_atoms(w))
    kind = draw(st.sampled_from(["atom", "concat", "commutator"]))
    if kind == "atom":
        return a
    b = draw(shift_orbit_atoms(w))
    return limits.Concat(a, b) if kind == "concat" else limits.Commutator(a, b)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(protocols(), st.floats(0, 0.5))
def test_stored_hamiltonian_and_eigenpairs_match_dense_oracles(p, x):
    """H, and from the momentum blocks T(x), its m-th power, the single-step and the repeated
    error, are the dense products' within 1e-12, at x and at 0, 0.01 and 0.3."""
    h = dense_hamiltonian(p)
    assert frob(limits.effective_hamiltonian(p) - h) <= 1e-12
    m = 5
    for x in (x, 0.0, 0.01, 0.3):
        u = dense_unitary(p, x)
        assert frob(limits.protocol_unitary(p, x) - u) <= 1e-12
        expected = frob(u / p.phase - expm_hermitian(h, x))
        assert abs(limits.single_step_error(p, x) - expected) <= 1e-12
        t = m * x
        power = np.linalg.matrix_power(dense_unitary(p, t / m) / p.phase, m)
        result, err = limits.repeated_limit(p, 1.0, t, m)
        assert frob(result - power) <= 1e-12
        assert abs(err - frob(power - expm_hermitian(h, t))) <= 1e-12


def test_strauch_coin():
    assert np.array_equal(limits.strauch_coin(0.0), R)
    assert is_unitary(limits.strauch_coin(0.3), 1e-12)
    for x in (0.01, 0.05, 0.1):
        lin = R @ (np.eye(2) + 1j * D * x)
        assert frob(limits.strauch_coin(x) - lin) <= x ** 2


def test_reference_phases():
    assert limits.strauch_protocol(5).phase == pytest.approx(-1.0)
    assert limits.evencyc_protocol(5).phase == pytest.approx(1.0)
    with pytest.raises(NotScalarAtZero):
        limits.Atom(walks.cycle_walk(4),
                    [limits.ProtocolStep(np.eye(2, dtype=complex),
                                         np.zeros((2, 2), dtype=complex))])


def test_non_permutation_shift_is_refused_before_any_atom():
    # The shift of this table is not a permutation; the walk itself refuses it, so
    # Atom never sees it.
    with pytest.raises(NotBijective) as err:
        walks.CoinedWalk(graphs.cycle_graph(4), [[1, 2, 3, 0], [1, 2, 3, 1]])
    assert err.value.coin == 1


def test_protocol_unitary_at_zero():
    p = limits.strauch_protocol(4)
    assert frob(limits.protocol_unitary(p, 0.0) + np.eye(8)) <= 1e-12
    for make in (limits.strauch_protocol, limits.evencyc_protocol):
        for n in (4, 6, 8):
            q = make(n)
            u0 = limits.protocol_unitary(q, 0.0)
            phi = q.phase
            assert frob(u0 - phi * np.eye(2 * n)) <= 1e-10
    q = random_atom(0)
    u0 = limits.protocol_unitary(q, 0.0)
    assert frob(u0 - q.phase * np.eye(12)) <= 1e-10
    with pytest.raises(DomainExceeded):
        limits.protocol_unitary(p, 1.5)


def test_two_step_product_tracks_exponential():
    p = limits.strauch_protocol(4)
    h = limits.effective_hamiltonian(p)
    u = limits.protocol_unitary(p, 0.01)
    assert frob(u + expm_hermitian(h, 0.01)) <= 5e-4


def test_protocol_shapes():
    p = limits.strauch_protocol(6)
    assert len(p.steps) == 2
    q = limits.evencyc_protocol(6)
    assert len(q.steps) == 6
    # the shift-orbit generator -i(J - 1) is R_COIN on two coins
    assert np.array_equal(q.steps[0].generator, R) and np.array_equal(q.steps[-1].generator, R)
    with pytest.raises(TooSmall):
        limits.strauch_protocol(2)


def test_limit_hamiltonian_structure():
    h = limits.limit_hamiltonian_cycle(4)
    assert np.array_equal(h, h.conj().T)
    # column k of the upper-right block has ones at rows k and k+2 mod 4
    for k in range(4):
        col = h[:4, 4 + k]
        hot = {k, (k + 2) % 4}
        assert all(col[r] == (1 if r in hot else 0) for r in range(4))
    # spectrum {+-2cos(2*pi*k/n)}
    for n in (4, 6, 7):
        vals = np.linalg.eigvalsh(limits.limit_hamiltonian_cycle(n))
        expected = np.sort(np.concatenate([
            2 * np.cos(2 * np.pi * np.arange(n) / n),
            -2 * np.cos(2 * np.pi * np.arange(n) / n)]))
        assert np.allclose(vals, expected, atol=1e-10)


def test_limit_hamiltonian_matches_complex_formula():
    for n in (3, 4, 7, 16):
        f2 = np.linalg.matrix_power(cycle_shift(n).astype(complex), 2)
        oracle = np.zeros((2 * n, 2 * n), dtype=complex)
        oracle[:n, n:] = np.eye(n) + f2
        oracle[n:, :n] = np.eye(n) + f2.T
        h = limits.limit_hamiltonian_cycle(n)
        assert h.dtype == np.float64
        assert np.array_equal(h, oracle)


ORBIT_WALKS = {
    "cycle:8": lambda: walks.cycle_walk(8),
    "lattice:4,2": lambda: walks.lattice_walk(4, 2),
    "lattice:3,3": lambda: walks.lattice_walk(3, 3),
    "example": walks.example_walk,
    "relabelled cycle:7": relabelled_cycle,
}


def _assert_orbit_limit(w):
    """The fold of orbit_protocol(w) is orbit_hamiltonian(w), and H V+- = V+-((c-2) 1 +- A).

    V+- stacks the N x N blocks 1 +- P_k over the coin results k, where
    P_k e_j = e_moves[k, j], and A = sum_k P_k is the adjacency.
    """
    p = limits.orbit_protocol(w)
    h = limits.orbit_hamiltonian(w)
    assert len(p.steps) == walks.shift_order(w)
    assert h.dtype == np.float64
    assert frob(p.hamiltonian() - h) <= 1e-12
    c, n = w.coin_dim, w.walker_dim
    perms = [np.eye(n)[row].T for row in w.moves]
    a = sum(perms)
    assert np.array_equal(a, graphs.adjacency(w.graph))
    for sign in (1, -1):
        v = np.vstack([np.eye(n) + sign * pk for pk in perms])
        assert frob(h @ v - v @ ((c - 2) * np.eye(n) + sign * a)) <= 1e-12


@pytest.mark.parametrize("name", list(ORBIT_WALKS))
def test_orbit_hamiltonian_is_the_fold_and_intertwines_the_adjacency(name):
    _assert_orbit_limit(ORBIT_WALKS[name]())


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(cayley_walks())
def test_orbit_limit_on_cayley_walks(w):
    _assert_orbit_limit(w)


def _assert_character_operators(w, s, seed):
    """A's spectrum, exp(-i*s*A) and exp(-i*s*H) from w's momentum angles match the dense path.

    The spectrum multiset is equal, and states and orbit-H blocks are within 1e-12.
    """
    a = graphs.adjacency(w.graph)
    eig = walks.adjacency_eig(w)
    assert eig[0].shape == (w.walker_dim, 1)
    spectrum = walks.adjacency_spectrum(w)
    assert liealg.eigenvalue_multiset(spectrum) == liealg.spectrum_multiset(a)
    psi = seeded_state(w.walker_dim, seed)
    state = walks.expm_state(w, eig, s, psi)
    assert np.abs(state - expm_eig(hermitian_eig(a), s) @ psi).max() <= 1e-12
    h = limits.orbit_hamiltonian(w)
    vals, vecs = limits.orbit_eig(w)
    h_blocks = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    expected, off = walks.momentum_blocks(w, h)
    assert off <= 1e-12 and np.abs(h_blocks - expected).max() <= 1e-12
    psi = seeded_state(w.dim, seed)
    state = walks.expm_state(w, (vals, vecs), s, psi)
    assert np.abs(state - expm_eig(hermitian_eig(h), s) @ psi).max() <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.one_of(translation_walks(), cayley_walks()), st.floats(-3, 3), st.integers(0, 2 ** 31))
@example(walks.cycle_walk(8), 0.7, 0)
@example(walks.lattice_walk(4, 2), 1.3, 1)
@example(walks.example_walk(), -2.0, 2)
def test_character_operators_match_the_dense_path(w, s, seed):
    rng = np.random.default_rng(seed)
    for walk in (w, relabelled(w, rng.permutation(w.walker_dim))):
        _assert_character_operators(walk, s, seed)


def test_character_kernel_at_s_zero_returns_the_state():
    w = walks.lattice_walk(3, 2)
    psi = seeded_state(w.dim, 4)
    assert np.array_equal(walks.expm_state(w, limits.orbit_eig(w), 0.0, psi), psi)


def test_step_generators_are_skew_relative_to_their_largest_entry():
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    g = 1j * (q * rng.normal(size=2)) @ q.conj().T  # skew-Hermitian up to roundoff
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert frob(g + g.conj().T) > 0
    for scale in (1e-12, 1e9):
        assert limits.ProtocolStep(np.eye(2), scale * g).generator.shape == (2, 2)
        with pytest.raises(NotSkewHermitian, match="largest entry"):
            limits.ProtocolStep(np.eye(2), scale * m)


def test_orbit_protocol_rejects_long_orbits(monkeypatch):
    w = walks.cycle_walk(9)  # shift order 9
    monkeypatch.setattr(walks, "MAX_DIM", 8)
    with pytest.raises(DomainExceeded, match="shift order 9"):
        limits.orbit_protocol(w)


def test_effective_hamiltonian_matches_block_form():
    for n in (4, 6, 8):
        hs = limits.effective_hamiltonian(limits.strauch_protocol(n))
        he = limits.effective_hamiltonian(limits.evencyc_protocol(n))
        href = limits.limit_hamiltonian_cycle(n)
        assert frob(hs - href) <= 1e-8
        assert frob(he - href) <= 1e-8


def test_effective_hamiltonian_hermitian_and_fd():
    protocols = [limits.strauch_protocol(8), limits.evencyc_protocol(6)]
    protocols += [random_atom(seed) for seed in range(10)]
    for p in protocols:
        h = limits.effective_hamiltonian(p)
        assert frob(h - h.conj().T) <= 1e-9 * max(frob(h), 1.0)
        step = 1e-6
        fd = 1j / p.phase \
            * (limits.protocol_unitary(p, step) - limits.protocol_unitary(p, 0.0)) / step
        assert frob(h - fd) <= 1e-4


def test_concat_additivity():
    p = limits.strauch_protocol(6)
    cc = limits.Concat(p, p)
    assert frob(limits.effective_hamiltonian(cc)
                - 2 * limits.effective_hamiltonian(p)) <= 1e-8
    p1, p2 = random_atom(21), random_atom(22)
    cc2 = limits.Concat(p1, p2)
    expected = limits.effective_hamiltonian(p1) + limits.effective_hamiltonian(p2)
    assert frob(limits.effective_hamiltonian(cc2) - expected) <= 1e-9


def test_commutator_protocol_law():
    p1, p2 = random_atom(31), random_atom(32)
    cm = limits.Commutator(p1, p2)
    h1 = limits.effective_hamiltonian(p1)
    h2 = limits.effective_hamiltonian(p2)
    hcm = limits.effective_hamiltonian(cm)
    assert is_hermitian(hcm, 1e-9)
    assert frob(hcm - (-1j) * commutator(h1, h2)) <= 1e-6
    assert cm.phase == pytest.approx(1.0)
    # composite error decays faster than first order
    xs = [2.0 ** (-k) for k in range(6, 13)]
    assert limits.single_step_study(cm, xs).fitted_exponent > 1.0


def test_single_step_error_scaling():
    p = limits.strauch_protocol(8)
    e_coarse = limits.single_step_error(p, 0.02)
    e_fine = limits.single_step_error(p, 0.01)
    assert 0.22 <= e_fine / e_coarse <= 0.30
    xs = [2.0 ** (-k) for k in range(4, 11)]
    errs = [limits.single_step_error(p, x) for x in xs]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # O(x^2) for atoms with linear perturbations (n=4 is exactly exponential,
    # so the slope is only meaningful away from it)
    for q in (limits.strauch_protocol(5), limits.evencyc_protocol(6), random_atom(41)):
        assert limits.single_step_study(q, xs).fitted_exponent >= 1.8


def test_repeated_limit():
    p = limits.strauch_protocol(8)
    result, err = limits.repeated_limit(p, 1.0, 0.0, 4)
    assert frob(result - np.eye(16)) <= 1e-12 and err <= 1e-12
    errs = [limits.repeated_limit(p, 1.0, 1.0, 2 ** k)[1] for k in range(5, 11)]
    for a, b in zip(errs, errs[1:]):
        assert 0.4 <= b / a <= 0.6
    with pytest.raises(DomainExceeded):
        limits.repeated_limit(p, 1.0, 10.0, 4)


def test_repeated_limit_ratio_law_or_exact():
    # n=4 cycles converge exactly (the two-step product is exactly the
    # exponential there); elsewhere the global error halves with m.
    for n in (4, 6, 8):
        for make in (limits.strauch_protocol, limits.evencyc_protocol):
            errs = [limits.repeated_limit(make(n), 1.0, 1.0, 2 ** k)[1]
                    for k in (5, 6, 7)]
            if errs[0] < 1e-10:
                assert n == 4
                assert all(e <= 1e-10 for e in errs)
            else:
                assert all(0.4 <= b / a <= 0.6 for a, b in zip(errs, errs[1:]))


def test_evencyc_converges_to_same_target():
    ps = limits.strauch_protocol(6)
    pe = limits.evencyc_protocol(6)
    rs, es = limits.repeated_limit(ps, 1.0, 1.0, 512)
    re_, ee = limits.repeated_limit(pe, 1.0, 1.0, 512)
    assert frob(rs - re_) <= es + ee


def test_convergence_study():
    p = limits.strauch_protocol(8)
    rep = limits.convergence_study(p, 1.0, 1.0, [8 * 2 ** k for k in range(8)])
    assert 0.9 <= rep.fitted_exponent <= 1.1
    xs = [x for x, _ in rep.samples]
    assert all(b < a for a, b in zip(xs, xs[1:]))
    ss = limits.single_step_study(p, [2.0 ** (-k) for k in range(4, 11)])
    assert 1.9 <= ss.fitted_exponent <= 2.1
    with pytest.raises(DomainExceeded):
        limits.convergence_study(p, 1.0, 1.0, [64, 32])


def test_convergence_study_takes_its_target_once(monkeypatch):
    calls = []

    def counting_expm_eig(eig, s):
        calls.append(s)
        return expm_eig(eig, s)

    monkeypatch.setattr(limits, "expm_eig", counting_expm_eig)
    for p in (limits.evencyc_protocol(8), limits.orbit_protocol(two_triangles())):
        calls.clear()
        study = limits.convergence_study(p, 0.7, 1.5, [8, 16, 32])
        assert calls == [0.7 * 1.5]
        # each error is bitwise the one repeated_limit reports for its m
        assert [e for _, e in study.samples] == \
            [limits.repeated_limit(p, 0.7, 1.5, m)[1] for m in (8, 16, 32)]
    # a first x outside [0, X_MAX) is refused before H is decomposed
    for t in (10.0, -1.0):
        p = limits.evencyc_protocol(8)
        with pytest.raises(DomainExceeded):
            limits.convergence_study(p, 1.0, t, [4, 8])
        assert "eigenpairs" not in vars(p)


def test_exponent_fitted_on_two_value_grid():
    p = limits.strauch_protocol(4)
    rep = limits.convergence_study(p, 1.0, 1.0, [8, 16])
    (x1, e1), (x2, e2) = rep.samples
    assert rep.fitted_exponent == pytest.approx(np.log(e2 / e1) / np.log(x2 / x1), rel=1e-12)
    assert np.isnan(limits.convergence_study(p, 1.0, 1.0, [8]).fitted_exponent)


def test_chiral_split():
    psi = np.arange(8, dtype=complex)
    r, l = limits.chiral_split(psi, 4)
    assert np.array_equal(r, psi[:4]) and np.array_equal(l, psi[4:])
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1
    r, l = limits.chiral_split(e0, 4)
    assert r[0] == 1 and np.all(l == 0)
    e4 = np.zeros(8, dtype=complex)
    e4[4] = 1
    r, l = limits.chiral_split(e4, 4)
    assert np.all(r == 0) and l[0] == 1
    assert np.linalg.norm(psi) ** 2 == pytest.approx(
        np.linalg.norm(psi[:4]) ** 2 + np.linalg.norm(psi[4:]) ** 2)


def test_chiral_combinations_substitution():
    n = 5
    psi_r = seeded_state(n, 7)
    zero = np.zeros(n, dtype=complex)
    c1p, c2p, c1m, c2m = limits.chiral_combinations(psi_r, zero, n)
    f = cycle_shift(n)
    assert np.allclose(c1p, psi_r) and np.allclose(c1m, psi_r)
    assert np.allclose(c2p, f.T @ psi_r) and np.allclose(c2m, -(f.T @ psi_r))
    psi_l = seeded_state(n, 8)
    expected = (psi_r + f @ psi_l, psi_l + f.T @ psi_r, psi_r - f @ psi_l, psi_l - f.T @ psi_r)
    for got, want in zip(limits.chiral_combinations(psi_r, psi_l, n), expected):
        assert np.allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_chiral_pair_on_the_cycle_is_the_roll_formulas(n):
    psi_r, psi_l = seeded_state(n, 21), seeded_state(n, 22)
    # F moves entry k to k+1 and F^T moves it back: both are rolls
    f_l, ft_r = np.roll(psi_l, 1), np.roll(psi_r, -1)
    rolls = (psi_r + f_l, psi_l + ft_r, psi_r - f_l, psi_l - ft_r)
    plus, minus = limits.chiral_pair(walks.cycle_walk(n), np.concatenate([psi_r, psi_l]))
    blocks = (plus[:n], plus[n:], minus[:n], minus[n:])
    for got in (blocks, limits.chiral_combinations(psi_r, psi_l, n)):
        assert [b.tobytes() for b in got] == [b.tobytes() for b in rolls]


def test_chiral_pair_needs_two_coins_and_a_full_state():
    with pytest.raises(DimMismatch):
        limits.chiral_pair(walks.example_walk(), np.zeros(12))
    with pytest.raises(DimMismatch):
        limits.chiral_pair(walks.cycle_walk(4), np.zeros(7))


def test_chiral_reconstruction_exact():
    n = 6
    psi = seeded_state(2 * n, 3)
    r, l = limits.chiral_split(psi, n)
    c1p, c2p, c1m, c2m = limits.chiral_combinations(r, l, n)
    rec = 0.5 * (np.concatenate([c1p, c2p]) + np.concatenate([c1m, c2m]))
    assert np.linalg.norm(rec - psi) <= 1e-14


def test_chiral_dynamics_identities():
    n, gamma, t = 8, 1.0, 0.7
    a = graphs.adjacency(graphs.cycle_graph(n))
    lap = graphs.laplacian(graphs.cycle_graph(n))
    h = limits.limit_hamiltonian_cycle(n)
    psi0 = seeded_state(2 * n, 12)
    psit = walks.ctqw_propagator(h, gamma, t) @ psi0
    combos0 = limits.chiral_combinations(*limits.chiral_split(psi0, n), n)
    combost = limits.chiral_combinations(*limits.chiral_split(psit, n), n)
    for i in range(4):
        sign = 1 if i < 2 else -1
        u_a = walks.ctqw_propagator(a, sign * gamma, t)
        assert np.linalg.norm(combost[i] - u_a @ combos0[i]) <= 1e-10
        u_l = walks.ctqw_propagator(lap, sign * gamma, t)
        phi_t = limits.phi_transform(combost[i], gamma, t, sign)
        phi_0 = limits.phi_transform(combos0[i], gamma, 0.0, sign)
        assert np.linalg.norm(phi_t - u_l @ phi_0) <= 1e-10


def test_phi_transform_basics():
    psi = seeded_state(5, 9)
    assert np.allclose(limits.phi_transform(psi, 1.0, 0.0, 1), psi / 2)
    out = limits.phi_transform(psi, 0.8, 1.7, -1)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi) / 2)
    with pytest.raises(DomainExceeded):
        limits.phi_transform(psi, 1.0, 1.0, 0)
