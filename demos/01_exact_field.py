"""A tour of exact arithmetic in Q(√5).

Every number here is a pair of rationals (a, b) standing for a + b√5, so
nothing is rounded: sums, products, inverses, and comparisons are all exact.
The golden point q⋆ = (3 − √5)/2 lives in this field, and the alternative
basis {1, q⋆} is often the more natural coordinate system for it.
"""

from fractions import Fraction

from goldenschur import PHI, QSTAR, SQRT5, Q5, decimal_str

print("== the field ==")
x = Q5(1, 1)  # 1 + √5
print(f"x = {x}")
print(f"x · conj(x) = {x * x.conjugate()}   (rational: the field norm is {x.norm()})")
print(f"1/x = {x.inverse()}")
print(f"x/x = {x / x}")

print()
print("== the golden point ==")
print(f"q⋆ = {QSTAR} = {float(QSTAR):.15f}")
print(f"φ  = {PHI} = {float(PHI):.15f}")
print(f"φ² · q⋆ = {PHI * PHI * QSTAR}   (q⋆ is exactly φ⁻²)")
print(f"q⋆² − 3q⋆ + 1 = {QSTAR * QSTAR - 3 * QSTAR + 1}   (its minimal polynomial)")

print()
print("== exact ordering ==")
print(f"sign(3 − 2√5) = {Q5(3, -2).sign()}   (because 3² = 9 < 20 = (2√5)²)")
print(f"q⋆ < 1/2 < φ: {QSTAR < Fraction(1, 2) < PHI}")

print()
print("== the {1, q⋆} basis ==")
g = SQRT5.to_golden()
print(f"√5 = {g}   (so the two bases are exactly interconvertible)")
value = Q5(Fraction(13, 2), Fraction(-131, 60))
print(f"{value}  =  {value.to_golden()}")

print()
print("== certified decimal printing ==")
print("every digit below is proven correct by integer-interval bounds on √5:")
for digits in (5, 15, 30):
    print(f"  q⋆ to {digits:>2} digits: {decimal_str(QSTAR, digits)}")
