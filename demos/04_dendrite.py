"""The dendrite surjection: binary expansion composed with the closed tour."""

from fractions import Fraction

from cantor_coarse import (
    DendriteGraph,
    binary_expansion,
    check_continuity_modulus,
    check_surjectivity,
    check_tour_conservation,
    dendrite_map,
    fiber_of,
)
from cantor_coarse.code_space import Address

tree = DendriteGraph(3)
print(f"complete binary tree, depth 3: {tree.vertex_count} vertices, "
      f"{tree.vertex_count - 1} edges")
print(f"total edge length {tree.total_edge_length}, closed tour length {tree.tour_length}")
print(f"tour walks every edge twice, each segment its edge's length: {check_tour_conservation(tree)}")

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

print(f"\nsurjectivity (every edge run once down, later once up, root to root): "
      f"{check_surjectivity(tree)}")
print(f"continuity modulus tour_length * 2**-m on every pair agreeing on m symbols: "
      f"{check_continuity_modulus(tree)}")
