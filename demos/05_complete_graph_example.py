"""End-to-end study of the three-coin walk on the complete graph K4.

The walk's shift is built from three perfect matchings, so it squares to
the identity.  Its reachable algebra has dimension 33 and contains an
element whose spectrum splits the 12-dimensional space into two copies of
the graph walk (one forward, one backward in time) plus a frozen block.
"""

import numpy as np

from qwl import graphs, liealg, walks

w = walks.example_walk()
print("vertices A,B,C,D; coin results are the three perfect matchings of K4")
print("shift order:", walks.shift_order(w))

a = graphs.adjacency(w.graph)
print("adjacency spectrum:", liealg.spectrum_multiset(a, 8))

gens = list(liealg.generators(w))
basis = liealg.lie_closure(gens, 1e-9)
print(f"closure of {len(gens)} generators: dimension {basis.dimension}"
      f" = 9 [u(3) x 1] + 3 x 8 [su(3) x matching]")

diag = np.kron(np.diag([-3j, 1j, 2j]), np.eye(4))
print(f"contains diag(-3i, i, 2i) x 1: residual {liealg.member_residual(basis, diag):.1e}")

el = liealg.example_subspace_element()
print("\nsubspace-splitting element:")
print("  spectrum (of i times it):", liealg.spectrum_multiset(el, 8))
print(f"  closure membership residual: {liealg.member_residual(basis, el):.1e}")
print("  +-3 blocks carry the two walk copies; the 0 block is frozen")
