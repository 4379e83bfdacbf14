"""
The checkerboard route: an independent second opinion
=====================================================

Besides the twist-region pipeline there is a second, independently
implemented route through the two checkerboard graphs.  On inputs
where neither cancellation nor merging fires, the two must agree.
"""

from foliar import build_tait, check_main, check_tait, contract, parse_pd

square = parse_pd(
    "X[7,4,2,5] X[3,6,4,1] X[5,2,6,3] "
    "X[10,8,11,7] X[12,10,1,9] X[8,12,9,11]"
)

# Each crossing contributes one edge to each colour, signed by the
# side of the strand that crosses on top.
green, red = build_tait(square)
print("green:", [(e.u, e.v, e.signed) for e in green.edges])
print("red:", [(e.u, e.v, e.signed) for e in red.edges])

# Contracting runs of two-valent vertices recovers the twist weights:
# a run of j edges is a chain of weight j, and leftover parallel edges
# merge by their signed weights.
for name, tg in (("green", green), ("red", red)):
    c = contract(tg)
    print(name, "chains:", c.chain_weights, "merged:", c.merged_weights,
          "tree:", c.is_tree())

# Both routes certify the square knot.
print("direct route:", check_main(square).status.value)
print("checkerboard route:", check_tait(square).status.value)
