from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from secatm.domains import GF, Q, Z
from secatm.algebra import (
    Subspace,
    cup_kernel,
    kunneth_product,
    make_algebra,
    tensor_square,
)
from secatm.cuplength import (
    CupLengthCertificate,
    CupLengthQuery,
    SizeGuardExceeded,
    brute_force_cuplength,
    capped_cuplength,
)
from secatm.spaces import (
    moore,
    nonorientable_surface,
    orientable_surface,
    product,
    real_projective,
    sphere,
)


def positive_query(algebra, cap):
    return CupLengthQuery(algebra, Subspace.positive_part(algebra), cap)


class TestCappedCuplength:
    def test_projective_three_space_cap_one(self):
        alg = real_projective(3).algebra
        length, cert = capped_cuplength(positive_query(alg, 1))
        assert length == 3
        assert cert.verify(cap=1)
        assert [f.degree for f in cert.factors] == [1, 1, 1]
        assert cert.product == alg.basis_element("x^3")

    def test_empty_generators(self):
        alg = sphere(3).algebra
        sub = Subspace.from_elements(alg, [])
        assert capped_cuplength(CupLengthQuery(alg, sub, 2)) == (0, None)

    def test_sphere_zero_divisor_square(self):
        A = sphere(2).algebra
        ck = cup_kernel(A)
        length, cert = capped_cuplength(CupLengthQuery(ck.algebra, ck, 2))
        assert length == 2
        assert cert.product == ck.algebra.element({"a(x)a": -2})
        assert cert.verify(cap=2)

    def test_product_of_spheres_zero_divisors_against_oracle(self):
        C, _, _ = kunneth_product(sphere(2).algebra, sphere(4).algebra)
        ck = cup_kernel(C)
        for cap, expected in [(2, 2), (4, 4)]:
            q = CupLengthQuery(ck.algebra, ck, cap)
            oracle = brute_force_cuplength(q, max_len=6)
            length, cert = capped_cuplength(q)
            assert length == oracle == expected
            assert cert.verify(cap=cap)

    def test_monotone_in_cap(self):
        alg = real_projective(5).algebra
        values = []
        for cap in range(1, alg.top_degree + 1):
            length, _ = capped_cuplength(positive_query(alg, cap))
            values.append(length)
        unbounded, _ = capped_cuplength(positive_query(alg, None))
        assert values == sorted(values)
        assert values[-1] <= unbounded

    def test_length_never_exceeds_top_degree(self):
        for alg in (real_projective(4).algebra, sphere(3).algebra):
            length, _ = capped_cuplength(positive_query(alg, None))
            assert length <= alg.top_degree

    def test_nonhomogeneous_products_never_beat_the_bound(self):
        # (x + x^2)^3 = x^3 != 0 in F2[x]/(x^4); the homogeneous search at
        # cap 2 must therefore reach length 3 as well
        alg = real_projective(3).algebra
        e = alg.element({"x": 1, "x^2": 1})
        assert not (e * e * e).is_zero()
        length, _ = capped_cuplength(positive_query(alg, 2))
        assert length >= 3

    def test_integer_lattice_nonvanishing(self):
        # scalar multiples witness nonvanishing over Z: 2x1 * 2x3 = 4 x1x3
        alg = make_algebra(
            Z,
            {0: ["1"], 1: ["x1"], 3: ["x3"], 4: ["x1x3"]},
            [("x1", "x3", {"x1x3": 1})],
        )
        sub = Subspace.from_elements(
            alg,
            [alg.basis_element("x1").scale(2), alg.basis_element("x3").scale(2)],
        )
        length, cert = capped_cuplength(CupLengthQuery(alg, sub, None))
        assert length == 2
        assert cert.product == alg.basis_element("x1x3").scale(4)

    def test_dead_end_monomial_does_not_hide_a_longer_chain(self):
        # a*a is the first product in degree 4 but dies at once; the chain
        # through a*b (a*b*c != 0) must still be found
        alg = make_algebra(
            Q,
            {0: ["1"], 2: ["a", "b", "c"], 4: ["aa", "ab", "ac", "bc"], 6: ["abc"]},
            [("a", "a", {"aa": 1}), ("a", "b", {"ab": 1}), ("a", "c", {"ac": 1}),
             ("b", "c", {"bc": 1}), ("a", "bc", {"abc": 1}),
             ("b", "ac", {"abc": 1}), ("c", "ab", {"abc": 1})],
        )
        length, cert = capped_cuplength(positive_query(alg, None))
        assert length == 3
        assert cert.verify()
        assert cert.product == alg.basis_element("abc")

    def test_rejects_degree_zero_generators(self):
        alg = sphere(2).algebra
        sub = Subspace.from_elements(alg, [alg.unit_element()])
        with pytest.raises(ValueError):
            CupLengthQuery(alg, sub, 1)


class TestBruteForce:
    def test_agrees_on_projective_three_space(self):
        alg = real_projective(3).algebra
        q = positive_query(alg, 1)
        assert brute_force_cuplength(q, max_len=5) == 3

    def test_agrees_on_empty(self):
        alg = sphere(2).algebra
        sub = Subspace.from_elements(alg, [])
        assert brute_force_cuplength(CupLengthQuery(alg, sub, 1), max_len=3) == 0

    def test_f2_guard(self):
        alg = real_projective(15).algebra  # total dimension 16
        with pytest.raises(SizeGuardExceeded):
            brute_force_cuplength(positive_query(alg, 1), max_len=2)

    def test_sequence_guard(self):
        alg = moore(15, 2, Q).algebra  # 15 spanning classes
        with pytest.raises(SizeGuardExceeded):
            brute_force_cuplength(positive_query(alg, None), max_len=2)

    def test_f2_mode_enumerates_subspace_elements(self):
        # over F2 the oracle searches sums of spanning classes too: in the
        # projective plane square, x(x)1 + 1(x)x has a nonzero square
        T, _, _ = tensor_square(real_projective(2).algebra)
        ck_rows = {1: [(1, 1)]}
        sub = Subspace(T, ck_rows)
        q = CupLengthQuery(T, sub, 1)
        assert brute_force_cuplength(q, max_len=4) == capped_cuplength(q)[0] == 3


class TestCertificates:
    def test_verify_rejects_tampered_product(self):
        alg = real_projective(3).algebra
        length, cert = capped_cuplength(positive_query(alg, 1))
        bad = CupLengthCertificate(cert.factors, alg.basis_element("x"))
        assert not bad.verify()

    def test_verify_rejects_cap_violation(self):
        alg = real_projective(3).algebra
        x2 = alg.basis_element("x^2")
        cert = CupLengthCertificate([x2], x2)
        assert cert.verify(cap=2)
        assert not cert.verify(cap=1)

    def test_factors_come_from_spanning_set(self):
        alg = real_projective(4).algebra
        sub = Subspace.positive_part(alg)
        q = CupLengthQuery(alg, sub, 1)
        _, cert = capped_cuplength(q)
        spanning = sub.spanning_elements()
        for f in cert.factors:
            assert f in spanning


# ---------------------------------------------------------------------------
# differential test against the brute-force oracle
# ---------------------------------------------------------------------------

F2 = GF(2)
FACTORS = {
    Q: [
        st.builds(sphere, st.integers(1, 4), st.just(Q)),
        st.builds(orientable_surface, st.integers(1, 2)),
        st.builds(moore, st.integers(1, 2), st.integers(2, 4), st.just(Q)),
    ],
    F2: [
        st.builds(sphere, st.integers(1, 4), st.just(F2)),
        st.builds(real_projective, st.integers(2, 5)),
        st.builds(nonorientable_surface, st.integers(2, 3)),
        st.builds(moore, st.integers(1, 2), st.integers(2, 4), st.just(F2)),
    ],
    Z: [st.builds(sphere, st.integers(1, 4), st.just(Z))],
}


@st.composite
def oracle_queries(draw):
    """A product of small spaces, generators drawn as random linear
    combinations of its positive-degree classes, and a cap; sized to stay
    within the oracle's guards."""
    coeff = draw(st.sampled_from([Q, F2, Z]))
    factors = [draw(st.one_of(FACTORS[coeff])) for _ in range(draw(st.integers(1, 3)))]
    total = 1
    for f in factors:
        total *= f.algebra.total_dim
    assume(total <= 12)
    alg = product(factors).algebra
    positive = [d for d in range(1, alg.top_degree + 1) if alg.dim(d)]
    elements = []
    for _ in range(draw(st.integers(1, 5))):
        combo = {}
        for d in draw(st.lists(st.sampled_from(positive), min_size=1, max_size=2)):
            first, *rest = alg.names[d]
            combo[first] = draw(st.sampled_from([1, -1, 3]))  # a unit mod 2 too
            for name in rest:
                combo[name] = draw(st.integers(-2, 2))
        elements.append(alg.element(combo))
    generators = Subspace.from_elements(alg, elements)
    lowest = min(generators.degrees())
    cap = draw(st.one_of(st.none(), st.integers(lowest, alg.top_degree)))
    return CupLengthQuery(alg, generators, cap)


@settings(max_examples=80, deadline=None)
@given(oracle_queries())
def test_dp_matches_oracle_and_certificates_check(query):
    algebra = query.algebra
    length, cert = capped_cuplength(query)
    assert length == brute_force_cuplength(query, max_len=algebra.top_degree + 1)
    if length == 0:
        assert cert is None
        return
    assert len(cert) == length
    assert cert.verify(cap=query.cap)
    spanning = query.generators.restricted(query.cap).spanning_elements()
    assert all(f in spanning for f in cert.factors)
    _, again = capped_cuplength(query)
    assert again.factor_strings() == cert.factor_strings()


# -- rational structure constants -----------------------------------------------
#
# Over Q the DP multiplies primitive integer vectors through structure
# constants scaled by their common denominator D.  In this algebra
# x*x = 1/2 y and x*z = -1/3 y, so (x + 3/4 z)^2 = (1/2 - 1/2) y = 0 while
# x^2 != 0: dropping D zeroes x^2, and keeping only numerators makes
# (x + 3/4 z)^2 nonzero.

def rational_algebra():
    return make_algebra(
        Q,
        {0: ["1"], 2: ["x", "z"], 4: ["y"]},
        [("x", "x", {"y": "1/2"}), ("x", "z", {"y": "-1/3"})],
    )


# generators in RREF: x, x + 3/4 z, the whole degree, x - 7/4 z
@pytest.mark.parametrize("combos", [
    [{"x": Fraction(1, 3)}],
    [{"x": 1, "z": Fraction(3, 4)}],
    [{"x": 1, "z": Fraction(3, 4)}, {"z": Fraction(2, 5)}],
    [{"x": Fraction(-2, 7), "z": Fraction(1, 2)}],
])
def test_rational_structure_constants(combos):
    alg = rational_algebra()
    generators = Subspace.from_elements(alg, [alg.element(c) for c in combos])
    for cap in (1, 2, 3, 4, None):
        query = CupLengthQuery(alg, generators, cap)
        length, cert = capped_cuplength(query)
        assert length == brute_force_cuplength(query, max_len=alg.top_degree + 1)
        if length == 0:
            assert cert is None
            continue
        assert cert.verify(cap=cap)
        product = cert.factors[0]
        for f in cert.factors[1:]:
            product = product * f
        assert cert.product == product


def test_rational_lengths_are_the_expected_ones():
    alg = rational_algebra()

    def length(*combos):
        gens = Subspace.from_elements(alg, [alg.element(c) for c in combos])
        return capped_cuplength(CupLengthQuery(alg, gens, None))[0]

    assert length({"x": Fraction(1, 3)}) == 2
    assert length({"x": 1, "z": Fraction(3, 4)}) == 1
    assert length({"x": 1, "z": Fraction(3, 4)}, {"z": 1}) == 2


def test_dp_leaves_no_cache_on_the_algebra():
    alg = tensor_square(product([sphere(1, Q)] * 3).algebra)[0]
    before = set(vars(alg))
    capped_cuplength(positive_query(alg, None))
    assert set(vars(alg)) == before


# -- witness pins ----------------------------------------------------------------
#
# Literal certificates of zero-divisor queries (the tc lower bound), recorded
# before the DP moved to right-multiplication operators and rank-only
# echelons.  The DP keeps the first monomials that grow the rank, so these
# strings change if it keeps other monomials or keeps them in another order.

RP8_ZD = ["1(x)x + x(x)1"] * 15
T3Q_ZD = ["1(x)1(x)1(x)1(x)1(x)a - 1(x)1(x)a(x)1(x)1(x)1",
          "1(x)1(x)1(x)1(x)a(x)1 - 1(x)a(x)1(x)1(x)1(x)1",
          "1(x)1(x)1(x)a(x)1(x)1 - a(x)1(x)1(x)1(x)1(x)1"]
T4F2_ZD = ["1(x)1(x)1(x)1(x)1(x)1(x)1(x)a + 1(x)1(x)1(x)a(x)1(x)1(x)1(x)1",
           "1(x)1(x)1(x)1(x)1(x)1(x)a(x)1 + 1(x)1(x)a(x)1(x)1(x)1(x)1(x)1",
           "1(x)1(x)1(x)1(x)1(x)a(x)1(x)1 + 1(x)a(x)1(x)1(x)1(x)1(x)1(x)1",
           "1(x)1(x)1(x)1(x)a(x)1(x)1(x)1 + a(x)1(x)1(x)1(x)1(x)1(x)1(x)1"]
SIGMA3_ZD = ["1(x)a1 - a1(x)1", "1(x)b1 - b1(x)1", "1(x)a2 - a2(x)1", "1(x)b2 - b2(x)1"]
S2XS4_ZD_2 = ["1(x)1(x)a(x)1 - a(x)1(x)1(x)1"] * 2
S2XS4_ZD_4 = S2XS4_ZD_2 + ["1(x)1(x)1(x)a - 1(x)a(x)1(x)1"] * 2

WITNESS_PINS = [
    (lambda: real_projective(8), [(1, RP8_ZD), (3, RP8_ZD), (None, RP8_ZD)]),
    (lambda: product([sphere(1, Q)] * 3), [(1, T3Q_ZD), (2, T3Q_ZD), (None, T3Q_ZD)]),
    (lambda: product([sphere(1, GF(2))] * 4), [(1, T4F2_ZD), (3, T4F2_ZD), (None, T4F2_ZD)]),
    (lambda: orientable_surface(3), [(1, SIGMA3_ZD), (2, SIGMA3_ZD), (None, SIGMA3_ZD)]),
    (lambda: product([sphere(2, Q), sphere(4, Q)]),
     [(1, []), (2, S2XS4_ZD_2), (3, S2XS4_ZD_2), (4, S2XS4_ZD_4), (None, S2XS4_ZD_4)]),
]


@pytest.mark.parametrize("build, pins", WITNESS_PINS)
def test_zero_divisor_witnesses_are_pinned(build, pins):
    A = build().algebra
    T, _, _ = tensor_square(A)
    zero_divisors = cup_kernel(A, T)
    for cap, factors in pins:
        length, cert = capped_cuplength(CupLengthQuery(T, zero_divisors, cap))
        assert length == len(factors)
        assert (cert.factor_strings() if cert else []) == factors
        assert cert is None or cert.verify(cap=cap)
