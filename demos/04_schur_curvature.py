"""Schur-complement curvature of an equivariant Hessian family.

A family H(θ) = C₀ + Σ e^{sθ}C_s of symmetric PSD circulants (so it commutes
with the dihedral action of shift and reversal) is split into one collective
direction u and the banded complement B.  Eliminating the collective mode
leaves the Schur complement; its normalized trace κ(θ) is the curvature this
package studies.  The library takes κ from the spectra of the circulants;
the demo checks it against the second routes in ``goldenschur.oracle``,
numerically but at tight tolerances:

* the variational description (``variational_check``) — the Schur
  complement is the Loewner-minimal value of H_BB + H_BO Y + Yᵀ H_OB +
  Yᵀ H_OO Y over all couplings Y, tested by LDLᵀ pivots — and κ from the
  dense blocks (``dense_curvature``);
* matrix convexity of θ ↦ H(θ) along segments (``matrix_convexity_check``);
* convexity of the scalar curve κ(θ) from the library itself, plus a
  strict-convexity witness (``strict_convexity_witness``).
"""

import math
import random

from goldenschur import kappa_convexity_scan, make_family, schur_curvature
from goldenschur.oracle import (
    dense_curvature,
    matrix_convexity_check,
    strict_convexity_witness,
    variational_check,
)

N = 8
u = [math.cos(2 * math.pi * k / N) for k in range(N)]
# each coefficient is given by its generator row g, C[i][j] = g[(j − i) mod N]
c0 = [2.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]
c1 = [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]
c2 = [1.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0]
fam = make_family(N, 2.0, u, c0, [(1.0, c1), (-0.7, c2)])
print(f"family: N = {N}, dim B = {fam.split.dim_band}, {len(fam.terms)} exponential terms")

print()
print("== κ(θ) along a grid ==")
for theta in (-2.0, -1.7, -1.4, -1.1, -0.8, -0.5, -0.2):
    print(f"  θ = {theta:+.3f}  q = {math.exp(theta):.4f}  κ = {schur_curvature(fam, theta):.8f}")

print()
print("== variational check at θ = −0.8 ==")
rep = variational_check(fam, -0.8, trials=100, rng=random.Random(0))
print(f"  ‖expression(Y⋆) − Schur‖_F = {rep.minimizer_gap:.2e}")
print(f"  min LDLᵀ pivot of expression(Y) − Schur + 1e-10·I over 100 Y: {rep.min_pivot:.2e}")
print(f"  passed: {rep.passed()}")

print(f"  κ from blocks: {dense_curvature(fam, -0.8):.12f}")

print()
print("== matrix convexity along θ-segments ==")
rep = matrix_convexity_check(fam, -2.0, -0.2, t_grid=11)
print(f"  smallest gap eigenvalue over the t-grid: {min(rep.min_eigs):.3e}  (≥ 0 up to roundoff)")

print()
print("== scalar convexity of κ and a strict witness ==")
scan = kappa_convexity_scan(fam, -2.5, -0.1, points=101)
print(f"  min second difference: {scan.min_second_difference:.3e};  convex: {scan.convex_ok}")
wit = strict_convexity_witness(fam, 0, -2.5, -0.1)
print(f"  banded mass of term 0: {wit.witness:.4f};  curvature floor: {wit.curvature_floor:.3e};"
      f"  strict: {wit.strict}")
