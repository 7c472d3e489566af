"""Which Hamiltonians can a given walk reach in the continuous limit?

The answer is a Lie algebra: the coin algebra u(c) x 1 together with its
shift conjugates, closed under commutators.  A Hamiltonian H is reachable
iff -iH lies in that span.  We close the algebra numerically and test a
few candidates.  A translation walk's algebra is known in closed form,
u(1) + su(c)^q over its q linked momentum classes, and is built without
a single bracket.
"""

import numpy as np

from qwl import liealg, limits, walks

for n in (4, 6, 8):
    w = walks.cycle_walk(n)
    gens = list(liealg.generators(w))
    basis = liealg.lie_closure(gens, 1e-9)
    h = limits.effective_hamiltonian(limits.strauch_protocol(n))
    res = liealg.member_residual(basis, -1j * h)
    print(f"cycle n={n}: {len(gens)} raw generators close to dimension "
          f"{basis.dimension} (ambient u({2 * n}) has {(2 * n) ** 2});"
          f" limit Hamiltonian residual {res:.1e}")

print()
w = walks.cycle_walk(4)
basis = liealg.lie_closure(liealg.generators(w), 1e-9)

print("reachable:", liealg.is_simulable(basis, limits.limit_hamiltonian_cycle(4), 1e-7),
      "- the protocol-built Hamiltonian")

hopper = np.zeros((8, 8), dtype=complex)
hopper[0, 1] = hopper[1, 0] = 1.0  # couple two basis states only
res = liealg.member_residual(basis, -1j * hopper)
print(f"reachable: {liealg.is_simulable(basis, hopper, 1e-6)}"
      f" - a localized two-state coupling (residual {res:.2f})")

print()
for spec, w in (("cycle:4", walks.cycle_walk(4)), ("lattice:3,3", walks.lattice_walk(3, 3))):
    basis = liealg.walk_closure(w)
    q = (basis.dimension - 1) // (w.coin_dim ** 2 - 1)
    print(f"{spec}: closed form u(1) + su({w.coin_dim})^{q}, dimension {basis.dimension},"
          f" {basis.passes} bracket passes")
