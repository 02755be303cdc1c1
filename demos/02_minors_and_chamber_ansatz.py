"""The analytic layer: generalized minors and the Chamber Ansatz.

The twelve generalized minors of the sextuple product
x_2(a) x_1(b) x_2(c) x_1(d) x_2(e) x_1(f) are exact polynomials; the
Chamber Ansatz inverts the product, expressing each factorization
parameter as a monomial in these minors.

Run with:  python demos/02_minors_and_chamber_ansatz.py
"""

from fractions import Fraction

from g2cells import (
    WORD_I_TILDE,
    Factorization,
    alpha_factorize,
    cell_point,
    closed_form_epsilon,
    epsilon_factorize,
    family_by_name,
    flag_equal_opposed,
    symbolic_minors,
)
from g2cells.deodhar import CellId

# The symbolic minors, in the canonical graded-lexicographic order.
print("generalized minors of x_2(a)x_1(b)x_2(c)x_1(d)x_2(e)x_1(f):")
for label, poly in symbolic_minors().items():
    print("  %-6s = %s" % (label, poly))
print()

# Factor a concrete totally positive-ish point: the epsilon map sends
# an upper unipotent element to the lower unipotent element carrying
# the same flag.  All arithmetic is exact.
params = tuple(Fraction(v) for v in (1, 2, 3, 5, 7, 11))
xel = Factorization(WORD_I_TILDE, params, "upper").product()
fac = epsilon_factorize(xel, WORD_I_TILDE)
print("epsilon parameters at (1,2,3,5,7,11):")
print("  theorem    :", " ".join(map(str, fac.params)))
print("  closed form:", " ".join(map(str, closed_form_epsilon(params))))
print("  same flag  :", flag_equal_opposed(xel, fac.product()))
print()

# The alpha map goes the other way.  Starting from a Deodhar cell point
# (which is lower unipotent by construction), alpha expresses it as a
# product of upper one-parameter factors; the six signs of those
# factors will decide the connected component.
cell = CellId(family_by_name("x21x12"), (1, 1))
point = cell_point(cell, (1, 2), (3, 5))
afac = alpha_factorize(point, WORD_I_TILDE)
print("alpha parameters of the x21x12 point at t=(1,2), m=(3,5):")
print("  ", " ".join(map(str, afac.params)))
print("sign pattern:", afac.signs())

# Round trip: epsilon of the alpha image returns the original point.
back = epsilon_factorize(afac.product(), WORD_I_TILDE)
print("round trip returns the same matrix:", back.product() == point)
