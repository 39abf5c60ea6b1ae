"""How the golden point gets locked in.

Suppose the curvature follows the quadratic law κ(q) = A·I₁(q)² + B·Var(q).
The reduced objective F_red(θ) = N − 4I₁²/(N m_ρ²) + κ/N is then stationary
at θ⋆ = ln q⋆ exactly when the bracket B·Λ(N) + 2A − 2B − 8/m_ρ² vanishes —
an identity this demo verifies in exact arithmetic, then uses constructively:
pick any B, solve the bracket for A, and the golden point becomes the unique
interior stationary point.  Uniqueness is a theorem, not a scan: for N ≥ 3,
Λ(q) rises strictly from 3 to N + 1 on 0 < q < 1, so F′ (which has the sign
of B·Λ(q) + c, c = 2A − 2B − 8/m_ρ²) has one zero iff 3 < −c/B < N + 1.

The demo also runs the two-point identification that recovers (A, B) from
curvature samples, and evaluates the bracket residual of a pair of reported
reference constants (it is visibly nonzero — about −6.25 — which is reported
as a finding, not asserted away), and shows that they have no stationary
point at all.
"""

from fractions import Fraction

from goldenschur import (
    QSTAR,
    QuadLawCoeffs,
    moments,
    bracket_residual,
    decimal_str,
    f_red_prime_q,
    kappa_quadratic,
    lambda_n,
    quadratic_law_fit,
    stationarity_check,
    synthesize_consistent_ab,
)
from goldenschur.oracle import exact_sign_changes
from goldenschur.reference import REPORTED_A, REPORTED_B

print("== the bracket identity, exactly ==")
coeffs = QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12)
lam = lambda_n(12)
bracket = coeffs.b * lam + 2 * coeffs.a - 2 * coeffs.b - 8 / coeffs.m_rho_sq
m = moments(12, QSTAR)
i1p = m.var
print(f"  F'(θ⋆)                 = {f_red_prime_q(coeffs, QSTAR)}")
print(f"  bracket · I₁ · I₁' / N = {bracket * m.i1 * i1p / 12}")
print(f"  equal exactly: {f_red_prime_q(coeffs, QSTAR) == bracket * m.i1 * i1p / 12}")

print()
print("== constructive lock-in: choose B, solve for A ==")
c = synthesize_consistent_ab(Fraction(-1), 12)
print(f"  B = −1  →  A = {c.a}")
print(f"  bracket residual: {bracket_residual(c)}")
rep = stationarity_check(c)
print(f"  F'(θ⋆) = {rep.f_prime_at_star}   stationary: {rep.stationary}")

(lo, hi), = rep.sign_change_intervals
print(f"  sign changes of F' on 0 < q < 1: {rep.sign_changes}, at q ∈ [{float(lo):.6f}, "
      f"{float(hi):.6f}]  (q⋆ = {float(QSTAR):.6f})")
print("  decided exactly: −c/B = Λ(q⋆) lies in (3, 13), and Λ rises strictly")
cells = ", ".join(f"({a}, {b})" for a, b in exact_sign_changes(c))
print(f"  exact F' at q = k/64 changes sign in: {cells}")

print()
print("== two-point identification of (A, B) ==")
true = QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12)
pts = [(q, kappa_quadratic(true, q)) for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))]
fit = quadratic_law_fit(pts, 12)
print(f"  recovered A = {fit.a}, B = {fit.b}  (exact: {fit.a == true.a and fit.b == true.b})")
print(f"  held-out residuals: {fit.residuals}")

print()
print("== reported reference constants ==")
reported = QuadLawCoeffs(REPORTED_A, REPORTED_B, 12, 2.0)
print(f"  A = {REPORTED_A}, B = {REPORTED_B}, m_ρ² = 2")
print(f"  bracket residual = {decimal_str(bracket_residual(reported), 10)}")
print("  (nonzero: these constants do not satisfy the lock-in identity;")
print("   the verification suite reports this as information.)")
ratio = -(2 * REPORTED_A - 2 * REPORTED_B - 8 / 2) / REPORTED_B
place = "inside" if 3 < ratio < 13 else "outside"
print(f"  {stationarity_check(reported).sign_changes} stationary points: "
      f"−c/B ≈ {ratio:.3f} is {place} (3, 13)")
