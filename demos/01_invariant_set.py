"""Walk through the quadratic system: branches, conditions, interval covers.

Run from the repository root after an editable install (pip install -e .),
or with PYTHONPATH=src.
"""

import math

from cantor_coarse import (
    hausdorff_distance,
    invariant_cover,
    inverse_branches,
    itinerary_point,
    logistic,
    verify_statement_conditions,
)
from cantor_coarse.code_space import Address

mu = 5.0
print(f"map: {mu} * x * (1 - x)")
print(f"peak value at x = 1/2: {logistic(mu, 0.5)}  (> 1, so orbits escape)")

system = inverse_branches(mu)
print(f"\ninverse branches map [0,1] into [0, {float(system.branches[0](1.0)):.6f}]"
      f" and [{float(system.branches[1](1.0)):.6f}, 1]")
print(f"fixed points: {system.fixed_points}")
print(f"per-branch modulus: {system.modulus_inf[0]:.10f}  (= 1/sqrt(mu*(mu-4)))")

report = verify_statement_conditions(system)
print("\ncontraction-system conditions:")
print(f"  i) one-to-one branches:    {report.injective}")
print(f" ii) fixed set not a point:  {report.not_singleton}  {report.fixed_points}")
print(f"iii) modulus sum below one:  {report.modulus_sum_below_one}  (sum = {report.modulus_sum:.6f})")
print(f"the sum dips below one only past mu = {2.0 + 2.0 * math.sqrt(2.0):.6f}")

bad = verify_statement_conditions(inverse_branches(4.5))
print(f"at mu = 4.5 the sum is {bad.modulus_sum:.4f}, so condition iii fails there")

print("\nnested interval covers of the invariant set:")
previous = invariant_cover(system, 0)
for n in range(1, 7):
    cover = invariant_cover(system, n)
    width = max(hi - lo for lo, hi in cover.intervals)
    drift = hausdorff_distance(previous, cover)
    # interval i of the coarser cover holds intervals 2i and 2i+1 of the finer
    nested = all(
        lo <= cover.intervals[2 * i][0] and cover.intervals[2 * i + 1][1] <= hi
        for i, (lo, hi) in enumerate(previous.intervals)
    )
    print(f"  depth {n}: {len(cover):3d} intervals, widest {width:.6f}, "
          f"Hausdorff step {drift:.6f}, nested: {nested}")
    previous = cover

print("\npoints by symbolic address (midpoint +- radius at depth 30):")
for prefix, tail in (("", "0"), ("", "1"), ("1", "0"), ("01", "1")):
    a = Address(prefix, tail)
    est = itinerary_point(system, a, 30)
    print(f"  {str(a):12s} -> {est.value:.12f} +- {est.radius:.2e}")
