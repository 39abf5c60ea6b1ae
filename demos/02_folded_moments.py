"""The folded exponential family and its moments.

The family puts weight x_r ∝ q^r on indices r = 1..N.  Its power sums
S_k = Σ s^k q^s have rational closed forms, which this demo checks against
direct summation — exactly, because both run over Fractions (or over Q(√5)
when q is the golden point).  In the natural parameter θ = ln q the mean and
second moment obey the exponential-family identities I₁′ = Var and
I₂′ = I₃ − I₁I₂.
"""

from fractions import Fraction

from goldenschur import QSTAR, folded_weights, moments, sums_closed
from goldenschur.oracle import sums_bruteforce, theta_derivatives_fd

N = 12

print("== closed forms vs direct summation (exact) ==")
for q in (Fraction(1, 2), Fraction(1, 3), Fraction(97, 100)):
    closed = sums_closed(N, q).as_tuple()
    brute = sums_bruteforce(N, q).as_tuple()
    print(f"  q = {str(q):>6}: match = {closed == brute},  S0 = {closed[0]}")

print()
print("== the weights are a probability vector ==")
w = folded_weights(5, Fraction(1, 2))
print(f"  N = 5, q = 1/2: {[str(x) for x in w]}  (sum = {sum(w)})")

print()
print("== moments at simple rational q ==")
m = moments(N, Fraction(1, 2))
print(f"  I1(1/2)  = {m.i1}")
print(f"  Var(1/2) = {m.var}")

print()
print("== moments at the golden point, exactly in Q(√5) ==")
m = moments(N, QSTAR)
print(f"  I1(q⋆) = {m.i1} ≈ {float(m.i1):.15f}")
print(f"  I2(q⋆) = {m.i2}")
print(f"  I3(q⋆) = {m.i3}")
print(f"  Var(q⋆) = {m.var}   (rational!)")

print()
print("== θ-derivative identities ==")
d1, d2 = m.var, m.i2_prime
print(f"  I1' = Var        = {d1}")
print(f"  I2' = I3 − I1·I2 = {d2}")
f1, f2 = theta_derivatives_fd(N, float(QSTAR), h=1e-4)
print(f"  finite differences agree: |Δ₁| = {abs(f1 - float(d1)):.2e}, "
      f"|Δ₂| = {abs(f2 - float(d2)):.2e}")
