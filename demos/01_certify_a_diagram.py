"""
Certifying a knot from its crossing list
========================================

A diagram is given as PD text: one X[a,b,c,d] token per crossing,
listing the four arc labels counterclockwise with a-c the strand that
passes underneath.
"""

from foliar import check_main, diagnose, parse_pd

# The figure-eight knot: two clasps of opposite handedness.
fig8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")

print("crossings:", len(fig8))
print("faces:", len(fig8.faces))

# check_main runs the whole pipeline: cancel incoherent twists, group
# the crossings into twist regions, build both side graphs, and test
# the weight and connectivity hypotheses.
verdict = check_main(fig8)
print(verdict.to_json())

# The verdict says "fail" because every region has exactly two
# crossings; the criterion wants at least one with three or more.
# diagnose() names the construction that would apply and counts the
# surfaces it would produce.
print(diagnose(fig8).to_json())

# The trefoil collapses to a single closed twist region.  That family
# is recognised and set aside rather than judged.
trefoil = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
print(check_main(trefoil).to_json())

# A certified example: the square knot, a trefoil joined to its mirror
# image.  Both twist regions keep three crossings and both side graphs
# are trees.
square = parse_pd(
    "X[7,4,2,5] X[3,6,4,1] X[5,2,6,3] "
    "X[10,8,11,7] X[12,10,1,9] X[8,12,9,11]"
)
print(check_main(square).to_json())
