"""Where the second Hamiltonian structure comes from.

Linear point symmetries of a linear flow are exactly the matrices commuting
with it. For distinct frequencies the commutant of the flow matrix is
four-dimensional and abelian; acting with its elements on the energy H1
produces conserved charges. One of them, X3 = A^2/2, generates the second
Hamiltonian structure from the first: J2 = X3 J1 + J1 X3^T + alpha J1 and
H2 = X3(H1) / -beta, with every sign fixed. Solving J grad(H2) = flow for a
constant antisymmetric J gives the same J2.

Run: python demos/02_lie_symmetries.py
"""

import numpy as np

import puosc as p
from puosc.symmetry import max_pairwise_commutator, projection_residual

par = p.make_params(1.0, 2.0)
A = p.flow_matrix(par)

basis = p.commutant_basis(A)
print(f"commutant of the flow matrix: dimension {len(basis)}")
print(f"largest pairwise commutator in the computed basis: "
      f"{max_pairwise_commutator(basis):.2e}")

gens = p.known_generators(par)
names = ("X1 = A (the flow)", "X2 = I/2 (scaling)", "X3 = A^2/2",
         "X4 = A^3 + alpha A")
print("\nclosed-form generators and their distance from the computed span:")
for xi, name in zip(gens, names):
    print(f"  {name:24s} residual {projection_residual(basis, xi):.2e}")

print("\naction on the energy H1:")
H1 = p.h1(par)
charges = p.symmetry_charges(par)
labels = ("X1(H1)", "X2(H1)", "X3(H1)", "X4(H1)")
for label, Q in zip(labels, charges):
    if np.linalg.norm(Q) < 1e-10:
        print(f"  {label} = 0")
    elif np.allclose(Q, H1.coeffs, atol=1e-12):
        print(f"  {label} = H1")
    else:
        print(f"  {label} = -beta * H2 = {-par.beta:+.3f} * H2")

print("\nthe second structure generated by X3 (J2 = X3 J1 + J1 X3^T + alpha J1,"
      " H2 = X3(H1) / -beta):")
J2, S2 = p.generated_structure(par)
print(J2)
for name, M, T in (("J2", J2, p.j2(par).j), ("H2", S2, p.h2(par).coeffs)):
    rel = np.abs(M - T) / np.where(T != 0, np.abs(T), 1.0)
    print(f"  largest entrywise residual against the shipped {name}: "
          f"{rel.max():.1e}")

print("\nsolving J grad(H) = flow for the new charge as Hamiltonian:")
J = p.solve_bihamiltonian(par, p.h2(par))
print(J.j)
print("equals the shipped J2:", np.array_equal(J.j, p.j2(par).j))

print("\nnot every quadratic works; the identity Hessian has no "
      "constant Poisson partner:")
try:
    p.solve_bihamiltonian(par, p.QuadraticObservable(np.eye(4)))
except p.errors.NotAntisymmetricError as exc:
    print(f"  {exc}")
