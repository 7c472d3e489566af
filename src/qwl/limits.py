"""Perturbed-step protocols and their continuous-time limits.

A protocol perturbs a reference trajectory of a coined walk (a coin
sequence whose step product is a phase times the identity).  To first
order in the perturbation x the product agrees with exp(-i*H*x) for an
effective Hamiltonian H, and repeating the product gamma*t/x times while
x -> 0 converges to exp(-i*gamma*H*t).  Composites realize sums (by
concatenation) and commutators (by group commutators evaluated at
sqrt(x)) of effective Hamiltonians.  The shift orbit of any walk is one
such protocol (``orbit_protocol``), with a closed-form limit Hamiltonian
(``orbit_hamiltonian``) whose dynamics contain the continuous-time walk on
the walk's graph.

H depends only on the protocol, and every node keeps it in its walk's form:
an atom folds its steps once, at construction, into T(0) and H, ``Concat``
adds its children's H and ``Commutator`` brackets them, and the dense H and
the eigenpairs are made once, on first use.  The walk's form is
``CoinedWalk.form``, whose operations this module calls without asking for
the group: on a walk with a translation group, the C-contiguous (N, c, c)
stack of momentum blocks, in which block p of a step S (C x 1) is
diag(D_p) C; on any other walk, the dense matrix.  An atom's construction
fold and its T(x) multiply one factor list in that form; where the form
folds steps, as the momentum kind does, each run of unperturbed steps is
one block product, k repeats of one step object the k-th matrix power, so
no dim x dim step product is formed.  An atom
works on its distinct step objects as (k, c, c) stacks: T(x) exponentiates
all of its perturbed steps in one ``expm_hermitian`` call, each block
bitwise that step's own ``expm_hermitian(i*E, a*x)``, and every repeat of a
step reuses it.  Every product of block stacks, and every m-fold power, is
``linalg._matmul_blocks`` or ``linalg._power``: broadcast multiply-adds for
c <= 3, ``@`` and ``np.linalg.matrix_power``'s order for any larger c and
for dense matrices.  Every node's T(x) also takes an array of M values of x and
gives the (M, ...) stack of the T(x), each slice bitwise T(x) at its own x:
an atom then decomposes its step generators once for all M, and applies
each factor once to the whole stack.  The eigenpairs, the m-fold powers and
the errors of a convergence study stay in that form.  A study checks every
m first, takes exp(-i*gamma*H*t) once for all its m, and evaluates T over
its grid of x in chunks, as many x at a time as let the stacks that its
T(x) holds at once (``stacks``, the buffer of a block product among them)
fit ``MAX_STACK_BYTES`` (16 MiB; at least one x): the dense T(x) of a
dim-752 walk one at a time, a translation walk's blocks the whole grid at
once.  Both errors of each m come from its
one T(x), and the character transform is unitary, so every Frobenius error
is the dense one.
``effective_hamiltonian``, ``protocol_unitary`` and ``repeated_limit``
return dense matrices on every walk.
"""

import math
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import (
    DimMismatch,
    DomainExceeded,
    NotScalarAtZero,
    NotSkewHermitian,
    NotUnitary,
    TooSmall,
)
from .linalg import (_adjoint, _matmul_blocks, _power, expm_eig, expm_hermitian, frob,
                     is_permutation, is_skew_hermitian, is_unitary)
from .walks import CoinedWalk, checked_shift_order, cycle_walk, dense_form, shift_matrix

__all__ = [
    "ProtocolStep",
    "Atom",
    "Concat",
    "Commutator",
    "ConvergenceReport",
    "two_step_protocol",
    "strauch_protocol",
    "orbit_protocol",
    "orbit_hamiltonian",
    "orbit_eig",
    "evencyc_protocol",
    "limit_hamiltonian_cycle",
    "protocol_unitary",
    "effective_hamiltonian",
    "single_step_error",
    "repeated_limit",
    "convergence_study",
    "single_step_study",
    "chiral_split",
    "chiral_pair",
    "chiral_combinations",
    "phi_transform",
]

# Perturbations live in [0, X_MAX); repeated limits shrink x = gamma*t/m
# into this range by raising m.
X_MAX = 1.0
# Bytes of the (M, ...) stacks that ``convergence_study``'s T(x) holds at once: a dense
# dim-752 T(x) (9 MB) goes one x at a time, a translation walk's blocks the whole grid.
MAX_STACK_BYTES = 2 ** 24

R_COIN = np.array([[0, -1j], [-1j, 0]])
D_COIN = np.array([[0, -1], [-1, 0]], dtype=complex)


class ProtocolStep:
    """One step S (C exp(E*a*x) x 1): a fixed coin plus a linear perturbation."""

    def __init__(self, coin, generator, slope: float = 1.0):
        coin = np.asarray(coin, dtype=complex)
        gen = np.asarray(generator, dtype=complex)
        if not is_unitary(coin):
            raise NotUnitary("step coin is not unitary within 1e-10")
        if gen.shape != coin.shape:
            raise DimMismatch("generator and coin dimensions differ")
        if not is_skew_hermitian(gen):
            raise NotSkewHermitian(
                "step generator is not skew-Hermitian within 1e-10 of its largest entry")
        self.coin, self.generator, self.slope = coin, gen, slope


class _Node:
    """A protocol node: ``walk``, ``phase`` and ``_h``, its read-only H in the walk's form.

    ``Concat`` adds and ``Commutator`` brackets its children's ``_h``, as block stacks on a
    walk with a group.  The dense H, read-only, and the eigenpairs are made once, on first use.
    ``stacks`` is the most arrays the size of the (M, ...) stack of T(x) that ``unitary``
    holds at once.
    """

    @cached_property
    def _dense_hamiltonian(self):
        h = self.walk.form.dense(self._h)
        h.setflags(write=False)
        return h

    def hamiltonian(self) -> np.ndarray:
        """The dense H, read-only, made from its momentum blocks on a walk with a group."""
        return self._dense_hamiltonian

    @cached_property
    def eigenpairs(self):
        """(eigenvalues, eigenvectors) of the effective Hamiltonian in the walk's form.

        They are np.linalg.eigh of H in the form, symmetrized: its (N, c, c)
        momentum blocks on a walk with a group, else the dense H.
        """
        # _h holds these blocks already; this O(dim^2) round trip through the dense H stays only
        # because perfbench/tests/test_perfbench.py pins the effective_hamiltonian span it makes.
        blocks, _ = self.walk.form.blocks(effective_hamiltonian(self))
        return np.linalg.eigh((blocks + _adjoint(blocks)) / 2)


class Atom(_Node):
    """An ordered step sequence around a reference trajectory of one walk.

    The unperturbed product of the steps must be phi * identity for a
    unit-modulus phi, validated at construction.  Step 1 of the sequence
    is the leftmost factor of the product, so the last step acts first on
    state vectors.  One factor list from ``_factors`` serves both forms:
    construction folds it once, in the walk's form, into T(0) and ``_h``,
    and T(x) multiplies it.  On a walk with a translation group the factors
    are (N, c, c) momentum blocks; on any other walk they are the steps,
    applied to dense dim x dim matrices.
    """

    # a factor's input stack, its product and the product's buffer (``_matmul_blocks``), and
    # the momentum kind's scaled phases in between
    stacks = 4

    def __init__(self, walk: CoinedWalk, steps):
        steps = tuple(steps)
        if not steps:
            raise TooSmall("an atom needs at least one step")
        c = walk.coin_dim
        for st in steps:
            if st.coin.shape != (c, c):
                raise DimMismatch(f"step coin is {st.coin.shape}, walk coin space is {c}")
        # Cannot fail, since every CoinedWalk's shift is a permutation.  It stays only because
        # perfbench/tests/test_perfbench.py pins the walks.shift_matrix span it makes.
        if not is_permutation(shift_matrix(walk)):
            raise NotUnitary("walk shift is not a permutation")
        self.walk = walk
        self.steps = steps
        form = walk.form
        distinct, self._factors = _factors(form, steps)
        # T(x)'s coins: one stack of the distinct steps' coins, the k perturbed ones first, whose
        # exponentials exp(a_j E_j x) are one stacked call per evaluation, at one x or at M.
        k = sum(1 for st in distinct if st.generator.any())
        self._coins = np.array([st.coin for st in distinct])
        self._gens = 1j * np.array([st.generator for st in distinct[:k]]).reshape(-1, c, c)
        self._slopes = np.array([st.slope for st in distinct[:k]], dtype=float)
        r = form.one()
        h = np.zeros(r.shape, dtype=complex)
        # F_j = S (C_j x 1); R_j = F_(j+1)...F_m acts before step j (the chain ends at T(0)),
        # P_j = F_1...F_(j-1) after it.  T'(0) = sum_j P_j F_j (a_j E_j x 1) R_j, and T(0) =
        # P_j F_j R_j = phi 1 (checked below) gives P_j = phi (F_j R_j)^dag, so H = i T'(0) / phi
        # = i sum_j R_j^dag (a_j E_j x 1) R_j = i sum_j (F_j R_j)^dag S (a_j C_j E_j x 1) R_j,
        # block by block when the walk has a group.  A folded idle run adds nothing to H.
        for f in self._factors:
            if isinstance(f, np.ndarray):
                r = _matmul_blocks(f, r)
                continue
            st = distinct[f]
            fr = form.step(st.coin, r)
            if f < k:
                h += _matmul_blocks(_adjoint(fr), form.step(st.slope * (st.coin @ st.generator), r))
            r = fr
        # The diagonal of T(0) is the mean of its blocks' diagonals, and the Frobenius norm
        # over all blocks is the dense one, so one phi is checked against every block.
        phi = r[..., 0, 0].mean()
        if abs(abs(phi) - 1) > 1e-10 or frob(r - phi * np.eye(r.shape[-1])) > 1e-10:
            raise NotScalarAtZero(
                "reference trajectory is not a scalar multiple of the identity")
        self.phase = complex(phi)
        self._h = 1j * h
        self._h.setflags(write=False)

    def unitary(self, x) -> np.ndarray:
        """T(x) in the walk's form: one step or block product per factor.

        x is one float or an array of M floats, which gives the (M, ...)
        stack of the T(x): the factors multiply the identity broadcast to
        the stack's shape, each factor applied once to the whole stack.
        Step j's coin is C_j exp(E_j a_j x), with every perturbed step's
        exponential at every x taken in one ``expm_hermitian`` call on the
        stack of the i E_j at the a_j x, so the i E_j are decomposed once.
        """
        x = np.asarray(x, dtype=float)
        coins = np.broadcast_to(self._coins, x.shape + self._coins.shape)
        k = len(self._slopes)
        if k:
            coins = coins.copy()
            coins[..., :k, :, :] = _matmul_blocks(coins[..., :k, :, :], expm_hermitian(
                self._gens, x[..., None] * self._slopes))
        form = self.walk.form
        u = np.broadcast_to(form.one(), x.shape + self._h.shape)
        for f in self._factors:
            if isinstance(f, np.ndarray):
                u = _matmul_blocks(f, u)
            else:
                u = form.step(coins[..., f, :, :], u)
        return u

    # perfbench's tracer wraps Atom.__dict__["hamiltonian"], so Atom binds the method itself.
    hamiltonian = _Node.hamiltonian


def _factors(form, steps):
    """(distinct, factors): the distinct step objects, the perturbed ones first, and T(x)'s
    factors in the walk's form, the first to act first.

    A factor is the index of its step in ``distinct``, or a folded product.
    Each maximal run of steps with a zero generator is folded into one
    read-only product, k repeats of one step object by the form's ``fold``;
    where ``fold`` gives None, as the dense kind's does, every step is a factor.
    """
    # stable, so in order of first appearance among the perturbed steps, then the idle ones
    distinct = {id(st): st for st in sorted(steps, key=lambda st: not st.generator.any())}
    index = {key: j for j, key in enumerate(distinct)}
    factors = []
    for key, run in groupby(reversed(steps), key=id):
        run = tuple(run)
        block = None if run[0].generator.any() else form.fold(run[0].coin, len(run))
        if block is None:
            factors += [index[key]] * len(run)
            continue
        if factors and isinstance(factors[-1], np.ndarray):
            block = _matmul_blocks(block, factors.pop())
        block.setflags(write=False)
        factors.append(block)
    return tuple(distinct.values()), tuple(factors)


class _Pair(_Node):
    """A node over two protocols of the same walk."""

    def __init__(self, left, right):
        wl, wr = left.walk, right.walk
        if not np.array_equal(wl.moves, wr.moves):
            raise DimMismatch("all atoms of a protocol must share the same walk")
        self.walk, self.left, self.right = wl, left, right
        # the left child's T(x) is held while the right child's is made
        self.stacks = max(left.stacks, 1 + right.stacks, self.stacks)


class Concat(_Pair):
    """Left-to-right product of two protocols; effective Hamiltonians add."""

    stacks = 4  # both children's T(x), their product and its buffer

    def __init__(self, left, right):
        super().__init__(left, right)
        self.phase = left.phase * right.phase
        self._h = left._h + right._h
        self._h.setflags(write=False)

    def unitary(self, x) -> np.ndarray:
        return _matmul_blocks(self.left.unitary(x), self.right.unitary(x))


class Commutator(_Pair):
    """Group commutator U1 U2 U1^-1 U2^-1 with children evaluated at sqrt(x).

    Realizes the Lie bracket: the effective Hamiltonian is -i[H1, H2].
    """

    phase = 1.0 + 0j
    stacks = 6  # U1, U2, a product, the next one and its buffer, and the conjugate it reads

    def __init__(self, left, right):
        super().__init__(left, right)
        self._h = -1j * (_matmul_blocks(left._h, right._h) - _matmul_blocks(right._h, left._h))
        self._h.setflags(write=False)

    def unitary(self, x) -> np.ndarray:
        u1 = self.left.unitary(np.sqrt(x))
        u2 = self.right.unitary(np.sqrt(x))
        u = _matmul_blocks(_matmul_blocks(u1, u2), _adjoint(u1))
        return _matmul_blocks(u, _adjoint(u2))


def two_step_protocol(w: CoinedWalk) -> Atom:
    """Two perturbed R-coin steps on w; the reference product is -identity.

    ``Atom`` refuses w unless it has two coins whose moves undo each other.
    """
    step = ProtocolStep(coin=R_COIN, generator=1j * D_COIN)
    return Atom(w, [step, step])


def strauch_protocol(n: int) -> Atom:
    """``two_step_protocol`` on the n-cycle (Strauch's construction)."""
    return two_step_protocol(cycle_walk(n))


def orbit_protocol(w: CoinedWalk) -> Atom:
    """The shift orbit of w: r = shift_order(w) identity-coin steps, steps 1 and r perturbed.

    The reference trajectory is S^r = 1 and both perturbations have the
    generator -i(J - 1), J the all-ones coin matrix (``R_COIN`` for c = 2),
    so the limit Hamiltonian is ``orbit_hamiltonian(w)``.
    """
    r = checked_shift_order(w)
    c = w.coin_dim
    eye = np.eye(c, dtype=complex)
    perturbed = ProtocolStep(coin=eye, generator=(np.eye(c) - 1) * 1j)
    idle = ProtocolStep(coin=eye, generator=np.zeros((c, c), dtype=complex))
    return Atom(w, [perturbed] + [idle] * (r - 2) + [perturbed])


def _orbit_hamiltonian(form):
    """X x 1 + S (X x 1) S^-1, X = J - 1, in form."""
    x = form.lift(1 - np.eye(form.walk.coin_dim))
    return x + form.conjugate(x)


def orbit_hamiltonian(w: CoinedWalk) -> np.ndarray:
    """The float64 limit Hamiltonian (J-1) x 1 + S ((J-1) x 1) S^T of ``orbit_protocol(w)``.

    (J-1) x 1 joins (k, j) to (l, j) for every pair of coin results k != l;
    conjugating by S moves both ends along w.shift.
    """
    return _orbit_hamiltonian(dense_form(w))


def orbit_eig(w: CoinedWalk):
    """Eigenpairs of ``orbit_hamiltonian(w)`` in w's form, for ``walks.expm_state``.

    They are np.linalg.eigh of H, exactly Hermitian: with a group of its
    (N, c, c) momentum blocks X + D_p X D_p^dag, otherwise of the dense H.
    """
    return np.linalg.eigh(_orbit_hamiltonian(w.form))


def evencyc_protocol(n: int) -> Atom:
    """``orbit_protocol`` on the n-cycle: n steps, its H equal to the two-step protocol's."""
    return orbit_protocol(cycle_walk(n))


def limit_hamiltonian_cycle(n: int) -> np.ndarray:
    """``orbit_hamiltonian`` on the n-cycle: off-diagonal blocks 1+F^2 and 1+F^-2."""
    return orbit_hamiltonian(cycle_walk(n))


def _in_domain(x: float) -> float:
    """x, refused unless it is in [0, X_MAX)."""
    if not 0 <= x < X_MAX:
        raise DomainExceeded(f"perturbation x={x} outside [0, {X_MAX})")
    return x


def protocol_unitary(p, x: float) -> np.ndarray:
    """Evaluate the protocol's product at perturbation x, as a dense matrix."""
    return p.walk.form.dense(p.unitary(_in_domain(x)))


def effective_hamiltonian(p) -> np.ndarray:
    """The Hermitian H with phi^-1 T(x) = exp(-i*H*x) + O(x^(1+delta))."""
    return p.hamiltonian()


def single_step_error(p, x: float, u=None) -> float:
    """|| phi^-1 T(x) - exp(-i*H*x) ||_F, from u = phi^-1 T(x) in the walk's form if given."""
    if u is None:
        u = p.unitary(_in_domain(x)) / p.phase
    e = expm_eig(p.eigenpairs, x)
    e -= u  # -(u - e) exactly, so the norm is that of u - e
    return frob(e)


def _perturbation(gamma: float, t: float, m: int) -> float:
    """x = gamma*t/m, refused unless m >= 1 and x is in [0, X_MAX)."""
    if m < 1:
        raise TooSmall(f"repetition count must be >= 1, got {m}")
    x = gamma * t / m
    if x >= X_MAX:
        raise DomainExceeded(
            f"gamma*t/m = {x} >= {X_MAX}; raise m to shrink the perturbation")
    return _in_domain(x)


def repeated_limit(p, gamma: float, t: float, m: int):
    """Apply the de-phased protocol m times at x = gamma*t/m.

    Returns (the dense m-fold product, its Frobenius distance to
    exp(-i*gamma*H*t)).  The error decays like 1/m.
    """
    result = _power(p.unitary(_perturbation(gamma, t, m)) / p.phase, m)
    return p.walk.form.dense(result), frob(result - expm_eig(p.eigenpairs, gamma * t))


class ConvergenceReport:
    """Sampled errors against the perturbation size plus a log-log slope fit.

    fitted_exponent is the least-squares slope of log(error) vs log(x),
    fitted over the smallest half of the x grid to dodge pre-asymptotic
    contamination, and over both values of a two-value grid; it is nan for
    a single value.  single_step_errors are a ``convergence_study``'s, one
    per sample; a ``single_step_study``, whose samples they are, leaves it empty.
    """

    def __init__(self, samples: tuple, fitted_exponent: float, single_step_errors: tuple = ()):
        self.samples, self.fitted_exponent = samples, fitted_exponent
        self.single_step_errors = single_step_errors

    def __eq__(self, other):  # the three fields compared in order, as one tuple would be
        return type(other) is ConvergenceReport and vars(self) == vars(other)


def _fit_exponent(samples) -> float:
    """The least-squares slope of log error against log x over the tail of the samples."""
    tail = samples[min(len(samples) // 2, len(samples) - 2):]
    if len(tail) < 2 or any(x <= 0 for x, _ in tail):
        return float("nan")
    u = np.log([x for x, _ in tail])
    v = np.log([max(e, 1e-300) for _, e in tail])
    u -= u.mean()
    return float(u @ (v - v.mean()) / (u @ u))


def convergence_study(p, gamma: float, t: float, m_list) -> ConvergenceReport:
    """Repeated-limit and single-step errors over an ascending grid of repetition counts.

    Every m is checked first.  T(x) is then evaluated over the grid as (M, ...) stacks of
    de-phased T(x) in the walk's form, as many x at a time as let the ``p.stacks`` arrays of
    that size fit ``MAX_STACK_BYTES`` (at least one x), and both errors of each m come from
    its T(x).  The repeated error has a rounding floor, since the m-th power repeats T(x)'s
    rounding m times: on the 8-cycle Strauch's protocol follows 1.98/m up to m = 1e7, but
    gives 1.28e-7 at m = 1e8 and 1.6e-6 at m = 1e9, so a grid past about 1e7 fits rounding.
    """
    m_list = [int(m) for m in m_list]
    if not m_list or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise DomainExceeded("m_list must be nonempty and strictly ascending")
    xs = [_perturbation(gamma, t, m) for m in m_list]
    target = expm_eig(p.eigenpairs, gamma * t)
    chunk = max(1, MAX_STACK_BYTES // (p.stacks * p._h.nbytes))
    samples, single = [], []
    for lo in range(0, len(xs), chunk):
        grid = xs[lo:lo + chunk]
        u = p.unitary(np.array(grid))
        u /= p.phase  # in place: a T(x) stack is the node's own
        for x, m, um in zip(grid, m_list[lo:], u):
            single.append(single_step_error(p, x, um))
            samples.append((x, frob(_power(um, m) - target)))
        del u, um  # one stack at a time: this one goes before the next is made
    return ConvergenceReport(tuple(samples), _fit_exponent(samples), tuple(single))


def single_step_study(p, x_list) -> ConvergenceReport:
    """Single-evaluation errors over a descending grid of perturbations."""
    xs = [float(x) for x in x_list]
    if not xs or any(b >= a for a, b in zip(xs, xs[1:])):
        raise DomainExceeded("x grid must be nonempty and strictly decreasing")
    samples = [(x, single_step_error(p, x)) for x in xs]
    return ConvergenceReport(tuple(samples), _fit_exponent(samples))


def chiral_split(psi, n: int):
    """Split a 2n-component state into its upper and lower halves."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2 * n,):
        raise DimMismatch(f"state must have dimension {2 * n}, got {psi.shape}")
    return psi[:n].copy(), psi[n:].copy()


def chiral_pair(w: CoinedWalk, psi):
    """(psi + X S^T psi, psi - X S^T psi) for a state psi of a two-coin walk, X the coin swap.

    If coin 1's moves undo coin 0's, then under the orbit Hamiltonian each
    coin block of the first evolves as exp(-i*gamma*A*t), of the second as
    exp(+i*gamma*A*t), for A = P_0 + P_0^T the sum of the two move permutations.
    """
    if w.coin_dim != 2:
        raise DimMismatch(f"the chiral pair needs a two-coin walk, got coin_dim {w.coin_dim}")
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (w.dim,):
        raise DimMismatch(f"state must have dimension {w.dim}, got {psi.shape}")
    swapped = np.roll(psi[w.shift], w.walker_dim)
    return psi + swapped, psi - swapped


def chiral_combinations(psi_r, psi_l, n: int):
    """The four coin blocks of ``chiral_pair`` on the n-cycle, from the chiral halves:

    (psi_R + F psi_L, psi_L + F^T psi_R, psi_R - F psi_L, psi_L - F^T psi_R).
    """
    psi_r = np.asarray(psi_r, dtype=complex)
    psi_l = np.asarray(psi_l, dtype=complex)
    if psi_r.shape != (n,) or psi_l.shape != (n,):
        raise DimMismatch("both halves must have dimension n")
    plus, minus = chiral_pair(cycle_walk(n), np.concatenate([psi_r, psi_l]))
    return plus[:n], plus[n:], minus[:n], minus[n:]


def phi_transform(psi_pm, gamma: float, t: float, sign: int) -> np.ndarray:
    """Rescale a chiral combination so it evolves under the Laplacian.

    Returns exp(sign*2i*gamma*t)/2 times the input; sign matches the +-
    label of the combination.  A phase 2*gamma*t that overflows raises DomainExceeded.
    """
    if sign not in (1, -1):
        raise DomainExceeded(f"sign must be +1 or -1, got {sign}")
    if not math.isfinite(2 * float(gamma) * float(t)):
        raise DomainExceeded(f"the phase 2 * gamma * t must be finite, got 2 * {gamma} * {t}")
    return np.exp(sign * 2j * gamma * t) / 2 * np.asarray(psi_pm, dtype=complex)
