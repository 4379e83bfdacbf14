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
# side of the strand that crosses on top.  build_tait lists both graphs
# as FaceGraphs, the type the side graphs of the main route have: edge j
# joins faces u[j] and v[j] with weight signed[j].  It is a view for
# printing; the route itself reads the same edges straight off the
# diagram's corner lists.
green, red = build_tait(square)
print("green:", list(zip(green.u, green.v, green.signed)))
print("red:", list(zip(red.u, red.v, red.signed)))

# Contracting runs of two-valent vertices recovers the twist weights:
# a face's degree in its graph is its corner count, so a bigon is
# two-valent, and a run of j bigons is a chain of weight j + 1;
# leftover parallel edges merge by their signed weights.  contract
# returns (k, graphs): k is the signed twist count of a D_k diagram,
# one of whose graphs has only bigons, and None otherwise; graphs holds,
# per colour, the chain weights and the graph of the surviving faces,
# one edge per merged family, or None for a D_k diagram.
k, graphs = contract(square)
print("D_k twist count:", k)
for chain_weights, merged in graphs:
    print(merged.color_name, "chains:", chain_weights,
          "merged:", tuple(merged.signed), "tree:", merged.is_tree())

# Both routes certify the square knot.
print("direct route:", check_main(square).status.value)
print("checkerboard route:", check_tait(square).status.value)
