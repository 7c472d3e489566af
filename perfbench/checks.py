"""Output checker: expectations fixed before a run, compared with tolerances.

A faster kernel may move the last digits of a report, so nothing here
compares bytes.  Each ``expect_*`` function returns a check: a callable
that takes a parsed JSON report and returns a list of problems (empty when
the report is correct).  The expectations come from invariants (closure
dimensions, verdicts, convergence exponents, relabelling invariance), from
references this module computes with plain numpy, and from values recorded
from the seed commit in ``reference.json``.
"""

import json
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text(encoding="utf-8"))

RESIDUAL_TOL = 1e-10       # the project command's own pass threshold
STATE_TOL = 1e-9           # evolve: entrywise distance to the reference state
ERROR_ABS_TOL = 1e-9       # converge: distance to recorded or computed errors
ERROR_REL_TOL = 1e-7
SPECTRUM_TOL = 1e-6


def _close(actual, expected):
    return abs(actual - expected) <= ERROR_ABS_TOL + ERROR_REL_TOL * abs(expected)


def expect_closure(dimension):
    def check(rep):
        if rep.get("dimension") != dimension:
            return [f"closure dimension {rep.get('dimension')} != {dimension}"]
        return []
    return check


def expect_simulable(verdict, closure_dimension):
    def check(rep):
        problems = []
        if rep.get("simulable") is not verdict:
            problems.append(f"verdict {rep.get('simulable')} != {verdict}")
        if rep.get("closure_dimension") != closure_dimension:
            problems.append(
                f"closure dimension {rep.get('closure_dimension')} != {closure_dimension}")
        return problems
    return check


def expect_example():
    def check(rep):
        failed = [item["name"] for item in rep.get("items", []) if item.get("pass") is not True]
        if rep.get("all_pass") is not True or failed:
            return [f"example items failed: {failed}"]
        return []
    return check


def expect_project():
    def check(rep):
        problems = [f"{key} = {rep.get(key)} > {RESIDUAL_TOL}"
                    for key in ("psi_adjacency_residual", "phi_laplacian_residual",
                                "reconstruction_residual")
                    if not rep.get(key, np.inf) <= RESIDUAL_TOL]
        if rep.get("pass") is not True:
            problems.append("project did not pass")
        return problems
    return check


def expect_converge(exponent, tol, reference=None):
    """Fitted exponent within tol of ``exponent``; errors match ``reference``.

    ``reference`` is a list of {m, single_step_error, repeated_error}.
    """
    def check(rep):
        problems = []
        fitted = rep.get("fitted_exponent")
        if fitted is None or not abs(fitted - exponent) <= tol:
            problems.append(f"fitted exponent {fitted} not within {tol} of {exponent}")
        if reference is not None:
            samples = rep.get("samples", [])
            if [s.get("m") for s in samples] != [r["m"] for r in reference]:
                return problems + ["m values differ from the reference"]
            for s, r in zip(samples, reference):
                for key in ("single_step_error", "repeated_error"):
                    if not _close(s.get(key), r[key]):
                        problems.append(f"m={r['m']} {key} {s.get(key)} != {r[key]}")
        return problems
    return check


def _clusters(pairs):
    """Merge (value, multiplicity) pairs closer than SPECTRUM_TOL, sorted by value."""
    out = []
    for value, mult in sorted(pairs):
        if out and value - out[-1][0] <= SPECTRUM_TOL:
            out[-1][1] += mult
        else:
            out.append([value, mult])
    return out


def expect_info(coin_dim, walker_dim, shift_order, regular_degree, eigenvalues):
    expected = _clusters((float(v), 1) for v in eigenvalues)

    def check(rep):
        problems = [f"{key} {rep.get(key)} != {want}" for key, want in
                    (("coin_dim", coin_dim), ("walker_dim", walker_dim),
                     ("shift_order", shift_order), ("regular_degree", regular_degree))
                    if rep.get(key) != want]
        got = _clusters((float(v), int(m)) for v, m in rep.get("graph_spectrum", []))
        if len(got) != len(expected) or any(
                abs(g[0] - e[0]) > SPECTRUM_TOL or g[1] != e[1] for g, e in zip(got, expected)):
            problems.append("graph spectrum differs from the expected multiset")
        return problems
    return check


def expect_state(reference):
    def check(rep):
        state = np.array([complex(re, im) for re, im in rep.get("state", [])])
        if state.shape != reference.shape:
            return [f"state has shape {state.shape}, expected {reference.shape}"]
        dist = float(np.max(np.abs(state - reference)))
        problems = [] if dist <= STATE_TOL else [f"state is {dist:.3e} from the reference"]
        if not rep.get("norm_residual", np.inf) <= RESIDUAL_TOL:
            problems.append(f"norm residual {rep.get('norm_residual')}")
        return problems
    return check


# ---- references computed here with plain numpy ------------------------------

def _cycle_adjacency(n):
    f = np.zeros((n, n))
    f[(np.arange(n) + 1) % n, np.arange(n)] = 1
    return f + f.T


def _expm_hermitian(h, s):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * s * w)) @ v.conj().T


def lattice_eigenvalues(n, d):
    """Adjacency eigenvalues of the d-fold product of n-cycles (Kronecker sum)."""
    one = 2 * np.cos(2 * np.pi * np.arange(n) / n)
    vals = np.zeros(1)
    for _ in range(d):
        vals = (vals[:, None] + one[None, :]).ravel()
    return vals


def lattice_evolution(psi0, perm, n, d, gamma, t):
    """exp(-i*gamma*t*A') psi0 for the lattice relabelled by vertex v -> perm[v].

    The product adjacency is a Kronecker sum, so the propagator factors
    into d copies of the n-cycle propagator.
    """
    perm = np.asarray(perm)
    u1 = _expm_hermitian(_cycle_adjacency(n), gamma * t)
    psi = psi0[perm].reshape((n,) * d)
    for axis in range(d):
        psi = np.moveaxis(np.tensordot(u1, psi, axes=([1], [axis])), 0, axis)
    out = np.empty_like(psi0)
    out[perm] = psi.ravel()
    return out


def composite_errors(generators, n, gamma, t, m_list):
    """Errors of Commutator(Concat(A, B), C) for identity-coin atoms on the n-cycle.

    generators[a][j] is the u(2) generator of step j of atom a.  With
    identity coins an atom's step is S (exp(x G_j) x 1) and its reference
    product is S^n = 1, so its effective Hamiltonian is
    i * sum_j S^j (G_j x 1) S^-j.  The composite's Hamiltonian is
    -i [H_A + H_B, H_C] and it evaluates its children at sqrt(x).
    """
    dim = 2 * n
    s = np.zeros((dim, dim))
    j = np.arange(n)
    s[(j + 1) % n, j] = 1
    s[n + (j - 1) % n, n + j] = 1
    eye_n = np.eye(n)
    gens = [[np.array([[complex(*z) for z in row] for row in g]) for g in atom]
            for atom in generators]

    def atom_unitary(atom, x):
        u = np.eye(dim, dtype=complex)
        for g in atom:
            u = u @ s @ np.kron(_expm_hermitian(1j * g, x), eye_n)
        return u

    def atom_hamiltonian(atom):
        h = np.zeros((dim, dim), dtype=complex)
        power = np.eye(dim)
        for g in atom:
            power = power @ s
            h += power @ np.kron(g, eye_n) @ power.T
        return 1j * h

    def composite_unitary(x):
        r = np.sqrt(x)
        u1 = atom_unitary(gens[0], r) @ atom_unitary(gens[1], r)
        u2 = atom_unitary(gens[2], r)
        return u1 @ u2 @ u1.conj().T @ u2.conj().T

    h1 = atom_hamiltonian(gens[0]) + atom_hamiltonian(gens[1])
    h2 = atom_hamiltonian(gens[2])
    h = -1j * (h1 @ h2 - h2 @ h1)
    target = _expm_hermitian(h, gamma * t)
    out = []
    for m in m_list:
        x = gamma * t / m
        u = composite_unitary(x)
        out.append({"m": m,
                    "single_step_error": float(np.linalg.norm(u - _expm_hermitian(h, x))),
                    "repeated_error": float(np.linalg.norm(
                        np.linalg.matrix_power(u, m) - target))})
    return out
