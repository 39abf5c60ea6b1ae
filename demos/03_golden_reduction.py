"""Golden powers, Fibonacci coefficients, and the constant Λ(N).

Because q⋆² = 3q⋆ − 1, every power q⋆^m collapses to an integer combination
a_m·q⋆ + b_m, and the integers are Fibonacci numbers: a_m = F(2m),
b_m = −F(2m−2).  This demo prints the table, verifies the closed form far
beyond it, and uses the reduction to evaluate the derivative ratio
Λ(N) = I₂′(θ⋆)/I₁′(θ⋆) exactly.
"""

from goldenschur import QSTAR, decimal_str, golden_power_table, lambda_n
from goldenschur.oracle import fibonacci

table = golden_power_table(200)

print("== the reduction table q⋆^m = a_m·q⋆ + b_m ==")
print(f"  {'m':>3} {'a_m':>8} {'b_m':>8}")
for p in table[:13]:
    print(f"  {p.m:>3} {p.a:>8} {p.b:>8}")

print()
print("== the coefficients are Fibonacci numbers ==")
for m in (5, 50, 200):
    p = table[m]
    ok = (p.a, p.b) == (fibonacci(2 * m), -fibonacci(2 * m - 2))
    print(f"  m = {m:>3}: a_m = F({2*m}), b_m = −F({2*m-2})  → {ok}"
          f"  (a_m has {len(str(p.a))} digits)")

print()
print("== consistency: the reduced pair really is q⋆^m ==")
p = table[12]
print(f"  q⋆^12 = {QSTAR**12}")
print(f"  a·q⋆+b = {p.a * QSTAR + p.b}")

print()
print("== Λ(N) = I₂′(θ⋆)/I₁′(θ⋆) ==")
for n in (2, 3, 12):
    lam = lambda_n(n)
    print(f"  Λ({n:>2}) = {str(lam):<24} = {lam.to_golden()}")
lam = lambda_n(12)
print(f"  Λ(12) to 10 digits: {decimal_str(lam, 10)}")
print(f"  Λ(12) to 25 digits: {decimal_str(lam, 25)}")
