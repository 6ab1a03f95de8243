"""Benign and malicious ghosts: what interactions do to the free model.

The free oscillator is perfectly well behaved: its motion is a superposition
of two harmonic modes, one carrying negative energy. Turning on a quartic
coupling W(q) = lam q^4 / 4 breaks the second Hamiltonian structure (only J1
survives the invariance scan) and opens a channel between the positive- and
negative-energy modes. Below a coupling threshold trajectories stay bounded
(benign); above it they escape in finite time (malicious). Throughout, the
interacting energy H1 - W is conserved to integrator accuracy, while H2
drifts: exactly one structure survives.

Run: python demos/04_ghost_dynamics.py          (~2 seconds)
"""

import numpy as np

import puosc as p
from puosc.dynamics import closed_form_states, field_for
from puosc.symmetry import default_sample_points, projection_residual

par = p.make_params(1.0, 2.0)
z0 = p.ostro_to_jet(par, p.OstroState(x1=0.0, x2=0.0, p1=0.5, p2=-0.5))
print(f"reference initial data (momentum chart p1 = -p2 = 0.5): jet {z0}")

a1, a2 = m = p.mode_decompose(par, z0)
e = p.mode_energy(par, m)
print(f"mode content: |a1| = {abs(a1):.4f} (energy {e['e1']:+.4f}), "
      f"|a2| = {abs(a2):.4f} (energy {e['e2']:+.4f}), "
      f"total = {e['total']:+.4f}")

print("\n--- free motion: integrator vs closed form over t in [0, 100] ---")
traj = p.integrate(par, p.free_vector_field(par), z0, 100.0, tol=1e-10)
exact = closed_form_states(par, m, traj.times)
print(f"max pointwise deviation: {np.max(np.abs(traj.states - exact)):.2e}")
print(f"H1 drift {traj.drift('h1'):.2e}, H2 drift {traj.drift('h2'):.2e}")

print("\n--- the interaction breaks the second structure ---")
pot = p.quartic(0.1)
field = field_for(par, pot)
basis = p.invariant_tensor_space(field, default_sample_points(10))
print(f"constant invariant tensors at lam = 0.1: dimension {len(basis)}")
print(f"  J1 distance from span: "
      f"{projection_residual(basis, p.j1(par).j):.1e}")
print(f"  J2 distance from span: "
      f"{projection_residual(basis, p.j2(par).j):.1e}")

print("\n--- bounded interacting run at lam = 5 over t in [0, 200] ---")
traj5 = p.integrate(par, field_for(par, p.quartic(5.0)), z0, 200.0, tol=1e-10)
print(f"escaped: {traj5.escaped}")
print(f"interacting energy H1 - W drift: {traj5.drift('hint'):.2e} (conserved)")
print(f"H2 drift: {traj5.drift('h2'):.2e} (no longer conserved)")

print("\n--- coupling threshold over lam in [0, 10] ---")
print("coarse scan + bisection (t_end = 200, escape radius 1000) ...")
rep = p.threshold_search(par, z0, 200.0, 1000.0, (0.0, 10.0),
                         grid_points=16, bisect_iters=20, tol=1e-8)
print(f"threshold lam* = {rep.lambda_star:.4f} "
      f"(monotone grid: {rep.monotone})")
for g in rep.grid:
    marker = "bounded" if g.bounded else f"escapes at t = {g.escape_time:.1f}"
    print(f"  lam = {g.lam:7.4f}: {marker}")
print("\nnote: lam* is a property of (t_end, escape_radius, tol); longer"
      "\nhorizons can only lower it. The transition itself is the robust"
      " statement.")
