"""
Weighted planar trees and the diagrams they generate
====================================================

Arborescent inputs are rooted trees with nonzero integer weights,
written in a bracketed text form: (2 (3)) is a two-vertex path.
"""

from foliar import (
    check_arborescent,
    check_main,
    family_tree,
    generate_diagram,
    parse_tree,
)

# The tree is judged by its weights and by the diagram it generates:
# every vertex needs weight at least two in absolute value, one vertex
# needs three or more, and the generated diagram must be a knot.
print(check_arborescent("(2 (3))").to_json())
print(check_arborescent("(2 (2))").to_json())
print(check_arborescent("(5)").to_json())

# Known families come with helpers that build the tree for you.
print("two-bridge:", family_tree("two_bridge", [2, 3, 4]).to_text())
print("pretzel:", family_tree("pretzel", [-2, 3, 7]).to_text())
print("montesinos:", family_tree("montesinos", [3, (2, 3), (1, 4)]).to_text())

# generate_diagram realises the tree as a planar diagram, alternating
# horizontal and vertical twist boxes down the levels.  The diagram
# route and the tree route agree.
t = parse_tree("(2 (2 (2 (2 (3)))))")
d = generate_diagram(t)
print("crossings:", len(d))
print("tree verdict:", check_arborescent(t).status.value)
print("diagram verdict:", check_main(d).status.value)

# Re-rooting the same underlying tree never changes the verdict.
for rt in parse_tree("(2 (3))").rerootings():
    print(rt.to_text(), "->", check_arborescent(rt).status.value)
