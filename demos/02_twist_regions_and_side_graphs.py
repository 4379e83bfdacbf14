"""
Twist regions, the collapsed graph, and its two side graphs
===========================================================
"""

from foliar import (
    build_side_graphs,
    collapse,
    detect_twist_regions,
    make_pretzel_pd,
)

# A flat pretzel: three twist columns of 2, 3 and 7 crossings.
d = make_pretzel_pd([-2, 3, 7])

# Twist regions are maximal chains of crossings linked by two-sided
# faces.  Each records its crossings and signed handedness.
dec = detect_twist_regions(d)
for r in dec:
    print(f"region {r.index}: count={r.count} handedness={r.handedness:+d}")

# Collapsing replaces every region by a single four-valent vertex.
# Faces obey the same Euler count as diagrams: V + 2.
cg = collapse(d)
print("collapsed vertices:", len(cg.vertices), "faces:", len(cg.faces))

# The faces two-colour like a checkerboard.  Each region contributes
# one edge joining its two same-coloured side faces, which sorts the
# regions into a green graph and a red graph.
green, red = build_side_graphs(cg)
for g in (green, red):
    print(g.to_dot())

# The criterion needs both graphs connected, in which case they are
# automatically trees.  Here the red graph has no edges on two
# vertices, which is why this pretzel fails.
print("green connected:", green.is_connected())
print("red connected:", red.is_connected())
