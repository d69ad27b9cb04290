"""Fractional powers of a graph polynomial: exact series vs the limit law.

Q = (1-X)(1-Y) + (1-X)(1-Z) + (1-Y)(1-Z) raised to the power -beta has
nonnegative coefficients for beta >= 1/2; their asymptotics follow the
bare quadratic-point formula with the dual form 2(rs+rt+st) - r^2-s^2-t^2.
The series recurrence keeps every coefficient as an exact rational times
the single algebraic prefactor 3^(-beta); the prediction lands within
about 1/400 of the truth at r = (50,50,50).
"""

from fractions import Fraction

from conepoint import coefficient_at, total_asymptotics
from conepoint.presets import preset

fls = preset("fls", beta=Fraction(3, 4))

print("=== the diagonal coefficient at (50,50,50) ===")
oracle = coefficient_at(fls.spec, (50, 50, 50))
print(f"  oracle   {float(oracle):.9f}   (exact rational x 3^(-3/4))")
est = total_asymptotics(fls.spec, (50, 50, 50), points=[(1, 1, 1)])
print(f"  formula  {est.value:.9f}")
rel = abs(est.value - float(oracle)) / float(oracle)
print(f"  relative error {rel:.5f}  (about 1/400)")

print("\n=== convergence along the diagonal ===")
print("    t     oracle        formula       rel err")
for t in (10, 20, 30, 40):
    o = float(coefficient_at(fls.spec, (t, t, t)))
    e = total_asymptotics(fls.spec, (t, t, t), points=[(1, 1, 1)]).value
    print(f"  {t:3d}   {o:.6e}   {e:.6e}   {abs(e - o) / o:.4f}")

print("\n=== the power must exceed 1/2 ===")
try:
    preset("fls", beta=Fraction(1, 2))
except ValueError as e:
    print("  beta = 1/2 rejected:", e)
