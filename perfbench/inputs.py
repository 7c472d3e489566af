"""Input generator: every JSON file a benchmark pass hands to ``qwl``.

All randomness comes from ``numpy.random.default_rng(seed)``, so one seed
always gives byte-identical files.  The generator builds walks and
matrices with plain numpy and never imports ``qwl``: the program under
test receives only these files.

Usage: python3 perfbench/inputs.py --seed N --out DIR
"""

import argparse
import json
from pathlib import Path

import numpy as np

CYCLE_MEMBER_N = 40        # simulable: c * limit_hamiltonian_cycle(40)
EXAMPLE_DIM = 12           # simulable: random 12x12 Hermitian on the K4 walk
COMPOSITE_N = 32           # converge: Commutator(Concat(A, B), C) on cycle:32
COMPOSITE_PERTURBED = 3    # perturbed steps per composite atom
# Scaling the u(2) generators by 1/4 keeps every seed's composite in its
# asymptotic range over the fitted half of the m-list (m >= 256).
COMPOSITE_SCALE = 0.25
RELABEL_CYCLE_CLOSURE = 40
RELABEL_CYCLE_CONVERGE = 64
RELABEL_LATTICE = (10, 3)

R_COIN = np.array([[0, -1j], [-1j, 0]])
D_COIN = np.array([[0, -1], [-1, 0]], dtype=complex)


def matrix_json(m):
    """Rows of [re, im] pairs, the matrix format ``qwl`` reads."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def cycle_moves(n):
    j = np.arange(n)
    return np.stack([(j + 1) % n, (j - 1) % n])


def lattice_moves(n, d):
    """Move table of ``lattice:N,D``: coin 2l / 2l+1 steps coordinate l up / down."""
    v = np.arange(n ** d)
    moves = np.zeros((2 * d, n ** d), dtype=int)
    for l in range(d):
        stride = n ** (d - 1 - l)
        coord = (v // stride) % n
        moves[2 * l] = v + ((coord + 1) % n - coord) * stride
        moves[2 * l + 1] = v + ((coord - 1) % n - coord) * stride
    return moves


def relabelled_walk(moves, perm):
    """Walk JSON whose vertex v is renamed perm[v]; the coin order is kept.

    The graph is the one the moves trace out, which for the built-in walks
    is exactly their graph.
    """
    new_moves = np.empty_like(moves)
    new_moves[:, perm] = perm[moves]
    edges = {tuple(sorted((int(perm[j]), int(perm[t]))))
             for row in moves for j, t in enumerate(row)}
    n = moves.shape[1]
    return {"graph": {"n": n, "edges": [list(e) for e in sorted(edges)]},
            "coin_dim": int(moves.shape[0]),
            "moves": new_moves.tolist()}


def limit_hamiltonian_cycle(n):
    """The 2n x 2n cycle limit Hamiltonian with off-diagonal blocks 1 + F^2."""
    f = np.zeros((n, n))
    f[(np.arange(n) + 1) % n, np.arange(n)] = 1
    f2 = f @ f
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = np.eye(n) + f2
    h[n:, :n] = np.eye(n) + f2.T
    return h


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_u2(rng):
    """A skew-Hermitian 2x2 generator, i.e. an element of u(2)."""
    return 1j * random_hermitian(rng, 2)


def composite_generators(rng):
    """Per-step generators of the three atoms A, B, C (zeros on idle steps)."""
    atoms = []
    for _ in range(3):
        gens = [np.zeros((2, 2), dtype=complex) for _ in range(COMPOSITE_N)]
        for j in rng.choice(COMPOSITE_N, size=COMPOSITE_PERTURBED, replace=False):
            gens[int(j)] = COMPOSITE_SCALE * random_u2(rng)
        atoms.append(gens)
    return atoms


def atom_json(coins, gens):
    return {"kind": "atom",
            "steps": [{"coin": matrix_json(c), "generator": matrix_json(g), "slope": 1.0}
                      for c, g in zip(coins, gens)]}


def composite_json(atoms):
    eye2 = np.eye(2, dtype=complex)
    a, b, c = (atom_json([eye2] * COMPOSITE_N, gens) for gens in atoms)
    return {"kind": "commutator",
            "children": [{"kind": "concat", "children": [a, b]}, c]}


def build_inputs(seed):
    """Every input of every workload for one seed, as {file name: JSON object}.

    The returned ``meta`` entry is not a ``qwl`` input; it holds what the
    checker needs to compute references (relabellings, generators).
    """
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.5, 2.0))
    non_member = random_hermitian(rng, EXAMPLE_DIM)
    atoms = composite_generators(rng)
    perm_c40 = rng.permutation(RELABEL_CYCLE_CLOSURE)
    perm_c64 = rng.permutation(RELABEL_CYCLE_CONVERGE)
    perm_lat = rng.permutation(RELABEL_LATTICE[0] ** RELABEL_LATTICE[1])
    report_seed = int(rng.integers(0, 2 ** 31))
    files = {
        "member_cycle40.json": matrix_json(scale * limit_hamiltonian_cycle(CYCLE_MEMBER_N)),
        "nonmember_example.json": matrix_json(non_member),
        "composite_cycle32.json": composite_json(atoms),
        "cycle40_relabelled.json": relabelled_walk(cycle_moves(RELABEL_CYCLE_CLOSURE), perm_c40),
        "cycle64_relabelled.json": relabelled_walk(cycle_moves(RELABEL_CYCLE_CONVERGE), perm_c64),
        "lattice10x3_relabelled.json": relabelled_walk(lattice_moves(*RELABEL_LATTICE), perm_lat),
        "strauch_atom.json": atom_json([R_COIN, R_COIN], [1j * D_COIN, 1j * D_COIN]),
    }
    meta = {"report_seed": report_seed,
            "lattice_perm": perm_lat.tolist(),
            "composite_generators": [[matrix_json(g) for g in gens] for gens in atoms]}
    return files, meta


def write_inputs(seed, out_dir):
    """Write every input file for ``seed`` into out_dir; return (paths, meta)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, meta = build_inputs(seed)
    paths = {}
    for name, obj in files.items():
        path = out_dir / name
        path.write_text(json.dumps(obj, separators=(",", ":")) + "\n", encoding="utf-8")
        paths[name] = path
    return paths, meta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for path in write_inputs(args.seed, args.out)[0].values():
        print(path)


if __name__ == "__main__":
    main()
