"""Per-multidegree reference for the graded oracle box.

froblab.local_cohomology.oracle_box_check evaluates each sign pattern of
theta once and weights it by the box points it covers.  This is the loop
it replaced, over every point of the box [lo, hi]^n, kept so that "both
sides depend on theta only through its signs" stays checked.  It looks
graded_dim and the oracle up on the module, so a monkeypatched graded_dim
reaches both routes.
"""

import itertools

from froblab import local_cohomology as lc


def oracle_box_check_per_theta(c, p, lo=-3, hi=1):
    top = c.dim + 1
    agree = 0
    mismatches = []
    for theta in itertools.product(range(lo, hi + 1), repeat=c.n_vertices):
        oracle = lc.cech_graded_oracle(c, p, theta)
        for i in range(0, top + 1):
            lhs = lc.graded_dim(c, p, i, theta)
            rhs = oracle.get(i, 0)
            if lhs == rhs:
                agree += 1
            else:
                mismatches.append((theta, i, lhs, rhs))
    return agree, mismatches
