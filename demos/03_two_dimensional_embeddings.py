"""All the ways two coupled second-order oscillators can hide a fourth-order
one.

Substituting x = mu0 q + mu2 qdd, y = nu0 q + nu2 qdd into the two
Euler-Lagrange expressions of a generic two-dimensional model and demanding
they reproduce q'''' + alpha q'' + beta q = 0 off-shell leaves four solution
families. Two are trivial (singular transform or degenerate model); the
other two are honest changes of variables, and they expose the trade-off:
the canonical 2D tensor pushes forward to J1 only when the kinetic
coefficients have opposite signs, i.e. only when the 2D energy is indefinite.
A positive definite 2D Hamiltonian always lands on a nontrivial blend.

Run: python demos/03_two_dimensional_embeddings.py
"""

import numpy as np

import puosc as p
from puosc.embedding import qqdot_component

par = p.make_params(1.0, 2.0)

print("=== family Tb1 (invertible, nu2 = 0) with a_x=1, b_x=2, g=1 ===")
free = {"a_x": 1.0, "b_x": 2.0, "g": 1.0}
solved = p.solve_family("Tb1", +1, free, par)
tab = p.tabulated_family("Tb1", +1, free, par)
print(f"re-derived: a_y = {solved.model.a_y}, b_y = {solved.model.b_y}")
print(f"tabulated:  a_y = {tab.model.a_y}, b_y = {tab.model.b_y}")
for name, m in (("re-derived", solved), ("tabulated", tab)):
    v = p.verify_map(m)
    print(f"  {name}: phi1 -> {v.phi1.kind} (factor {v.phi1.factor:+.1f}), "
          f"phi2 -> {v.phi2.kind}; contract {'OK' if v.passes else 'VIOLATED'}")
    if v.phi2.kind == "neither":
        print(f"    leftover phi2 coefficients (q, qd, qdd, qddd, q4): "
              f"{v.phi2.coefficients}")

print("\npushing the canonical 2D tensor to the jet chart:")
J = p.pushforward_poisson(solved)
print(J.j)
print(f"dq^dqd component: {qqdot_component(J):+.3f} "
      "(nonzero: this map cannot preserve J1)")

S, c1, c2, res = p.pullback_hamiltonian(solved)
print(f"\n2D Hamiltonian pulls back to c1*H1 + c2*H2 with "
      f"(c1, c2) = ({c1:+.3f}, {c2:+.3f}), fit residual {res:.1e}")
pos = p.positivity(par, S)
print(f"pulled-back form positive definite: {pos.positive_definite}")
Jb = p.blend_j(par, c1, c2)
print("blend tensor at the fitted coefficients equals the pushforward:",
      np.allclose(Jb.j, J.j, atol=1e-10))

print("\n=== the obstruction: preserving J1 costs positivity ===")
m = p.solve_family("Ta2", +1, {"a_x": 1.0, "a_y": -1.0, "g": 0.3}, par)
Jp = p.pushforward_poisson(m)
print(f"Ta2 with a_y = -a_x: dq^dqd component = {qqdot_component(Jp):+.1e}")
S2, _, c2, _ = p.pullback_hamiltonian(m)
eig = np.linalg.eigvalsh(S2.coeffs)
print(f"  fitted c2 = {c2:+.1e} (pure H1); "
      f"2D Hessian eigenvalues {np.round(eig, 3)} -> indefinite")

print("\n=== degenerate families are kept and flagged ===")
ta1 = p.solve_family("Ta1", +1, {"a_x": 1.0, "a_y": 2.0, "g": 1.0}, par)
print(f"Ta1: x and y proportional (det {ta1.transform_det:+.1e}); "
      f"singular = {ta1.singular}")
tb2 = p.solve_family("Tb2", -1, {"a_x": 1.0, "b_y": 1.0, "g": 0.5}, par)
print(f"Tb2: a_y = {tb2.model.a_y} (degenerate model); "
      f"singular = {tb2.singular}")

print("\n=== reconciliation against the tabulated rows (5 draws/family) ===")
rec = p.reconciliation_report(par, n_draws=5, seed=7)
for family, fam in rec["families"].items():
    print(f"  {family}: {fam['discrepant_tabulated_rows']} of "
          f"{fam['total_rows']} tabulated rows fail the off-shell identity; "
          "all re-derived rows pass")
