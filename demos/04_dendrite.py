"""The dendrite surjection: binary expansion composed with the closed tour."""

from fractions import Fraction

from cantor_coarse import (
    DendriteGraph,
    binary_expansion,
    check_continuity_modulus,
    check_surjectivity,
    dendrite_map,
    fiber_of,
)
from cantor_coarse.code_space import Address

tree = DendriteGraph(3)
print(f"complete binary tree, depth 3: {tree.vertex_count} vertices, "
      f"{tree.vertex_count - 1} edges")
print(f"total edge length {tree.total_edge_length}, closed tour length {tree.tour_length}")
print(f"tour walks every edge twice: {tree.tour_length == 2 * tree.total_edge_length}")

print("\naddresses land on the tree through value, then arc length:")
for prefix, tail in (("", "0"), ("", "1"), ("01", "0"), ("11", "0")):
    a = Address(prefix, tail)
    p = dendrite_map(tree, a)
    where = tree.as_vertex(p)
    spot = f"vertex {where}" if where else f"edge into {p.edge_child} at {p.offset}"
    print(f"  {str(a):10s} value {str(binary_expansion(a)):6s} -> {spot}")

root_fiber = fiber_of(tree, tree.vertex_point(1), 4)
print(f"\nroot fiber at depth 4: cylinders {[c.word for c in root_fiber.cylinders]}")
print(f"witness addresses: {[str(w) for w in root_fiber.witnesses]}")

mid = tree.point(2, Fraction(1, 6))
print(f"\nan interior point of the first edge is passed twice: "
      f"tour times {tree.tour_parameters(mid)}")

print(f"\nsurjectivity at depth 10 (all vertices and edge midpoints hit): "
      f"{check_surjectivity(tree, 10)}")
print(f"continuity modulus on 10^4 sampled pairs: "
      f"{check_continuity_modulus(tree, pairs=10_000, seed=0)}")
