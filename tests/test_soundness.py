"""Closed-form soundness oracle: on products of spheres, complex projective
spaces and orientable surfaces, computed without literature values over Q,
F2, F3 and Z, the classical interval contains the true cat and tc, and no
lower bound at any m exceeds them (cat_m and tc_m never exceed the
classical invariants).

The true values (Cornea, Lupton, Oprea and Tanre, *Lusternik-Schnirelmann
Category*, AMS 2003; Farber, *Topological complexity of motion planning*,
2003): cat(S^n) = 1, cat(CP^n) = n, cat(Sigma_g) = 2; tc(S^n) = 1 for odd n
and 2 for even n, tc(CP^n) = 2n, tc(Sigma_1) = 2 and tc(Sigma_g) = 4 for
g >= 2.  Both are additive on these products: the rational cup-length and
zero-divisor cup-length add up to the sums, which are also the upper bounds
of product subadditivity.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from secatm.algebra import GradedAlgebra
from secatm.domains import GF, Q, Z
from secatm.engine import Bundle, compute_tables
from secatm.spaces import complex_projective, orientable_surface, product, sphere
from secatm.tables import INF

# name -> (constructor over Q, parameter range, cat, tc)
FACTORS = {
    "s": (lambda n: sphere(n, Q), (1, 5), lambda n: 1, lambda n: 2 - n % 2),
    "cp": (complex_projective, (1, 2), lambda n: n, lambda n: 2 * n),
    "sigma": (orientable_surface, (1, 3), lambda g: 2, lambda g: 2 if g == 1 else 4),
}


def _over(model, coeff):
    """``model`` with its integral structure constants read in ``coeff``:
    the cohomology of the same space, which is torsion-free, over
    ``coeff``."""
    A = model.algebra
    table = {key: tuple(coeff.from_int(int(c)) for c in row) for key, row in A.table.items()}
    return replace(model, algebra=GradedAlgebra(
        coeff, A.names, {key: row for key, row in table.items() if any(row)}))


@st.composite
def closed_form_products(draw):
    """(space, coefficients, true cat, true tc) for a product of 1-3
    factors."""
    coeff = draw(st.sampled_from([Q, GF(2), GF(3), Z]))
    factors, cat, tc = [], 0, 0
    for _ in range(draw(st.integers(1, 3))):
        make, (low, high), cat_of, tc_of = FACTORS[draw(st.sampled_from(sorted(FACTORS)))]
        n = draw(st.integers(low, high))
        factors.append(_over(make(n), coeff))
        cat, tc = cat + cat_of(n), tc + tc_of(n)
    return product(factors), coeff, cat, tc


@settings(max_examples=60, deadline=None)
@given(closed_form_products())
def test_intervals_without_literature_contain_the_closed_forms(drawn):
    space, coeff, cat, tc = drawn
    bundle = Bundle()
    bundle.add_space("x", space)
    tables = compute_tables(bundle, use_literature=False)
    for inv, truth in (("cat", cat), ("tc", tc)):
        table = tables[(inv, "x")]
        lo, hi = table.interval(INF).as_pair()
        assert lo <= truth and (hi is None or truth <= hi), (inv, coeff.label, lo, hi, truth)
        assert all(table.lo(m) <= truth for m in table.index), (inv, coeff.label)
