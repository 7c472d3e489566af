"""Drive a discrete walk to continuous Hamiltonian dynamics.

Perturbing the coin of the cycle walk by x makes two steps match
exp(-i*H*x) up to O(x^2); repeating the pair gamma*t/x times and letting
x -> 0 yields exp(-i*gamma*H*t).  The table below shows the second-order
single-step error and the first-order repeated error side by side.
The shift-orbit protocol is built from any walk's move table, so the same
limit holds on the d-dimensional periodic lattice of the paper's title.
"""

from qwl import limits, walks

n, gamma, t = 8, 1.0, 1.0
p = limits.strauch_protocol(n)

print(f"cycle n={n}: reference phase {p.phase.real:+.0f}")
print(f"{'m':>6} {'x':>12} {'single step':>14} {'repeated':>14}")
for m in (32, 64, 128, 256, 512, 1024):
    x = gamma * t / m
    ss = limits.single_step_error(p, x)
    _, rep = limits.repeated_limit(p, gamma, t, m)
    print(f"{m:6d} {x:12.5f} {ss:14.3e} {rep:14.3e}")

rep = limits.convergence_study(p, gamma, t, [32 * 2 ** k for k in range(6)])
ss = limits.single_step_study(p, [2.0 ** (-k) for k in range(4, 11)])
print(f"\nfitted exponents: repeated {rep.fitted_exponent:.4f} (expect 1),"
      f" single step {ss.fitted_exponent:.4f} (expect 2)")

q = limits.evencyc_protocol(n)
diff = limits.effective_hamiltonian(p) - limits.effective_hamiltonian(q)
print(f"\nthe n-step shift-orbit protocol reaches the same Hamiltonian:"
      f" difference {abs(diff).max():.3e}")

lattice = limits.orbit_protocol(walks.lattice_walk(4, 2))
rep = limits.convergence_study(lattice, gamma, t, [32 * 2 ** k for k in range(6)])
print(f"\nevencyc, the shift orbit, on the 4x4 periodic lattice"
      f" (d = 2, {len(lattice.steps)} steps): fitted exponent {rep.fitted_exponent:.4f}"
      f" (expect 1)")
