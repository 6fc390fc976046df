"""Coarse graining: collapse a partition, transport the metric, stack levels."""

from cantor_coarse import (
    FULL_SPACE,
    QuadraticParams,
    QuotientSpec,
    build_hierarchy,
    build_partition,
    code_distance,
    default_representatives,
    inverse_branches,
    verify_self_similarity,
)
from cantor_coarse.code_space import Address


def collapse(spec: QuotientSpec, x: Address) -> Address:
    """The collapse map: identity on the first block, q_i on block i."""
    first, *rest = spec.partition.blocks
    if first.contains(x):
        return x
    return next(q for q, block in zip(spec.representatives, rest) if block.contains(x))


partition = build_partition(FULL_SPACE, 2)
spec = QuotientSpec(partition, default_representatives(partition))
q2 = spec.representatives[0]
print("two-block collapse: identity on [0], constant on [1]")
print(f"  representative q2 = {q2}")
for pt in (Address("00", "0"), Address("", "1"), Address("1", "0")):
    print(f"  f({pt}) = {collapse(spec, pt)}")

print(f"\nmulti-point fibers: {[(str(f.label), f.block_indices) for f in spec.multi_fibers]}")
tower = build_hierarchy(inverse_branches(QuadraticParams(5.0)), 3)
level1 = tower[1]
x1, x2 = Address("001", "0"), Address("010", "1")
print("the floor map is an isometry for the transported metric, exactly:")
print(f"  d1(h(x1), h(x2)) = {level1.metric(level1.hom(x1), level1.hom(x2))}")
print(f"  d(x1, x2)        = {code_distance(x1, x2)}")

print("\nstacking three levels over the mu=5 invariant set:")
for level in tower:
    name = "S" if level.level == 0 else f"D{level.level}"
    rep = verify_self_similarity(level, samples=200, seed=0)
    print(
        f"  {name:3s} carrier {level.carrier.words}  coverage exact: {rep.coverage_exact}"
        f"  max contraction ratio: {max(rep.max_ratio):.6f} (bound {max(level.modulus_bound):.6f})"
    )

# the floor map h^1 sends x to the fiber labeled hom(x); no collapsed block
# is glued onto that label, so the fiber is a singleton
x = Address("10", "1")
label = level1.hom(x)
glued = level1.quotient.multi_fibers[0]
assert label not in {f.label for f in level1.quotient.multi_fibers}
print(f"\nthe floor map h^1 sends {x} to the singleton fiber labeled {label}")
print(f"the one multi-point fiber sits at {glued.label} and glues in "
      f"partition block {glued.block_indices[0]}")
