from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from secatm.domains import GF, Q, Z
from secatm.algebra import (
    Subspace,
    TensorProduct,
    kunneth_product,
    make_algebra,
    tensor_square,
)
from secatm.cuplength import (
    CupLengthCertificate,
    CupLengthQuery,
    capped_cuplength,
)
from secatm.engine import Bundle, _Engine, _lower_source
from secatm.linalg import vis_zero, vsub
from secatm.spaces import (
    complex_projective,
    moore,
    nonorientable_surface,
    orientable_surface,
    product,
    real_projective,
    sphere,
    SpaceModel,
)

from reference import (
    SizeGuardExceeded,
    brute_force_cuplength,
    cup_kernel,
    layered_cuplength,
    positive_part,
)
from test_algebra import SQUARE_FACTORS, cup_algebras, odd_rational, plain_copy
from test_engine import _over, _perfbench_cases


def positive_query(algebra, cap):
    return CupLengthQuery(algebra, positive_part(algebra), cap)


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
        # 2x1 * 2x3 = 4 x1x3 is nonzero over Z exactly as over Q; the
        # subspace is the Q-span, so the certificate is the primitive x1 * x3
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
        assert sub.dim(1) == sub.dim(3) == 1
        assert cert.verify()
        assert cert.product == alg.basis_element("x1x3")

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
        sub = positive_part(alg)
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
    spanning = [f for f in query.generators.spanning_elements()
                if query.cap is None or f.degree <= query.cap]
    assert all(f in spanning for f in cert.factors)
    _, again = capped_cuplength(query)
    assert again.factor_strings() == cert.factor_strings()


# -- zero divisors of Kunneth products against the oracle ---------------------
#
# The tc DP on the square of a product of spaces multiplies through nested
# TensorProducts, whose factors' constants are built from their own
# factors'.  The oracle multiplies the same zero divisors out through
# ``mul_vectors``.

@st.composite
def kunneth_square_queries(draw):
    """The square of a product of one to three small spaces, the span of
    its g (x) 1 - 1 (x) g, and a cap; sized to stay within the oracle's
    guards."""
    coeff = draw(st.sampled_from([Q, F2, Z]))
    factors = [draw(st.one_of(FACTORS[coeff])) for _ in range(draw(st.integers(1, 3)))]
    P = product(factors).algebra
    assume(P.total_dim <= (3 if coeff == F2 else 8))
    T, generators = square_zero_divisors(P)
    cap = draw(st.one_of(st.none(), st.integers(1, T.top_degree)))
    return CupLengthQuery(T, generators, cap)


@settings(max_examples=40, deadline=None)
@given(kunneth_square_queries())
def test_dp_on_squares_of_products_matches_the_oracle(query):
    length, cert = capped_cuplength(query)
    assert length == brute_force_cuplength(query, max_len=query.algebra.top_degree + 1)
    assert (cert is None) == (length == 0)
    assert cert is None or cert.verify(cap=query.cap)


# -- rational structure constants -----------------------------------------------
#
# Over Q the DP multiplies true products, in ``Fraction``s where a constant
# or a spanning entry is not integral.  In this algebra x*x = 1/2 y and
# x*z = -1/3 y, so (x + 3/4 z)^2 = (1/2 - 1/2) y = 0 while x^2 != 0:
# dropping the denominators zeroes x^2, and keeping only numerators makes
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


# -- integer products kept on each algebra ------------------------------------
#
# A tensor square multiplies through its factor's integer constants, a plain
# algebra through its table's; each algebra builds its own on first read and
# keeps them, and what one algebra keeps must never serve another.

def zero_divisor_runs(T, zero_divisors):
    """(length, factor strings) of the zero-divisor DP at every cap."""
    out = []
    for cap in [*range(1, T.top_degree + 1), None]:
        length, cert = capped_cuplength(CupLengthQuery(T, zero_divisors, cap))
        out.append((length, cert.factor_strings() if cert else []))
    return out


@pytest.mark.parametrize("build", SQUARE_FACTORS)
def test_cached_dp_on_the_thin_square_equals_the_dp_on_an_eager_copy(build):
    A = build()
    T, _, _ = tensor_square(A)
    E = plain_copy(tensor_square(A)[0])  # the same basis, with its table
    thin = zero_divisor_runs(T, cup_kernel(A, T))
    # a second pass reads the constants the first one kept
    assert zero_divisor_runs(T, cup_kernel(A, T)) == thin
    eager = zero_divisor_runs(E, Subspace(E, cup_kernel(A, T).rows))
    assert thin == eager
    # the square multiplied through the constants of its factor (and a
    # product factor's through its own factors'), which keeps them, and
    # built neither its table nor constants of its own
    assert "constants" in vars(A)
    assert "table" not in vars(T) and "constants" not in vars(T)


def test_one_structure_map_serves_squares_built_and_dropped_in_turn():
    # two factors of the same shape with different products (RP^3 and
    # S^1 v S^2 v S^3 over F2), each built, squared, run and dropped in
    # turn: data kept for one algebra and served to the other would change
    # its lengths
    builds = [
        lambda: real_projective(3).algebra,
        lambda: make_algebra(GF(2), {0: ["1"], 1: ["x"], 2: ["y"], 3: ["z"]}, []),
    ]

    def runs(A):
        # the zero divisors of A's generators; no inclusion keeps T alive
        return zero_divisor_runs(*square_zero_divisors(A))

    expected = [runs(build()) for build in builds]
    assert [n for n, _ in expected[0]] != [n for n, _ in expected[1]]
    for k in range(8):
        # A and its square are freed after each turn, and a later algebra
        # is then often allocated at a freed address, so data kept by id()
        # would be served to it
        assert runs(builds[k % 2]()) == expected[k % 2], k


# -- products of spaces: nested thin products against plain copies -------------
#
# spaces.product nests TensorProducts, (A (x) B) (x) C for three factors,
# and builds no table.  The cat DP multiplies through the product's factors'
# constants and the tc DP through those of its square; on a plain
# GradedAlgebra with the same
# table both must find the same lengths and certificates.

PRODUCTS_OF_SPACES = [
    lambda: product([SpaceModel(odd_rational()), sphere(1, Q), sphere(2, Q)]),
    lambda: product([sphere(1, Q), complex_projective(2), sphere(3, Q)]),
    lambda: product([real_projective(3), sphere(1, GF(2)), nonorientable_surface(2)]),
    lambda: product([sphere(1, GF(2))] * 4),
    lambda: product([sphere(1, GF(3)), sphere(2, GF(3)), sphere(3, GF(3))]),
    lambda: product([sphere(1, Z), sphere(3, Z), sphere(2, Z)]),
    lambda: product([sphere(2, Z), sphere(2, Z)]),
]


def dp_runs(inv, space):
    """(length, factor strings, product) of the DP of ``inv`` at every
    cap, None where ``inv`` has no cup-length source."""
    source = _lower_source(inv, space)
    if source is None:
        return None
    algebra, generators, _ = source
    out = []
    for cap in [*range(1, algebra.top_degree + 1), None]:
        length, cert = capped_cuplength(CupLengthQuery(algebra, generators, cap))
        out.append((length, cert.factor_strings(), cert.product.format()) if cert else (0,))
    return out


@pytest.mark.parametrize("build", PRODUCTS_OF_SPACES)
def test_products_of_spaces_give_the_dp_results_of_a_plain_copy(build):
    space = build()
    P = space.algebra
    nested = []
    while isinstance(P, TensorProduct):
        nested.append(P)
        P = P.left
    assert len(nested) == len(space.factors) - 1
    assert all("table" not in vars(T) for T in nested)  # none built yet
    plain = SpaceModel(plain_copy(space.algebra))
    for inv in ("cat", "tc"):
        runs = dp_runs(inv, space)
        assert runs == dp_runs(inv, plain), inv
        assert (runs is None) == (inv == "tc" and space.algebra.coeff == Z)
        assert runs is None or runs[-1][0] >= len(space.factors)


# ---------------------------------------------------------------------------
# products from the factors' constants against the square's table
# ---------------------------------------------------------------------------

def assert_columns_match_the_table(A, every_class):
    """The columns of right multiplication by the zero divisors ``g (x) 1 -
    1 (x) g`` of the square of ``A`` and by the classes of their support
    (by every class of positive degree with ``every_class``), each basis
    class times s from the algebra's ``product``, against the same
    products read from the square's table by ``mul_vectors``: equal entry
    for entry over every domain, the true products, and an empty dict
    exactly where a product vanishes.  A's own ``product`` is checked
    the same way against A's table."""
    T, left, right = tensor_square(A)
    E = plain_copy(tensor_square(A)[0])  # the same basis, multiplying by its table
    vectors = [(d, vsub(T.coeff, left.mats[d][i], right.mats[d][i]))
               for d, i in A.generators]
    classes = {(ds, i) for ds, v in vectors for i, c in enumerate(v) if c}
    if every_class:
        classes = {(d, i) for d in range(1, T.top_degree + 1) for i in range(T.dim(d))}
    for ds, i in sorted(classes):
        unit = [0] * T.dim(ds)
        unit[i] = 1
        vectors.append((ds, tuple(unit)))
    own = [(d, tuple(int(j == i) for j in range(A.dim(d))))
           for d in range(1, A.top_degree + 1) for i in range(A.dim(d))]
    for X, reference, xs in [(T, E, vectors), (A, A, own)]:
        for ds, s in xs:
            keys = X.product_keys(ds, [(i, c) for i, c in enumerate(s) if c])
            for dv in range(1, X.top_degree - ds + 1):
                for i1 in range(X.dim(dv)):
                    got = X.product(dv, ((i1, 1),), ds, keys)
                    v = [0] * X.dim(dv)
                    v[i1] = 1
                    w = reference.mul_vectors(dv, tuple(v), ds, s)
                    assert all(c for c in got.values()) and (not got) == vis_zero(w)
                    want = {j: c for j, c in enumerate(w) if c}
                    assert got == want, (dv, i1, ds, s)


@settings(max_examples=40, deadline=None)
@given(cup_algebras())
def test_square_columns_match_the_square_table(A):
    # the table's products take seconds past 16 classes of A; the ladder
    # test holds larger squares
    if A.total_dim <= 16:
        assert_columns_match_the_table(A, every_class=A.total_dim <= 6)


@pytest.mark.parametrize("build", SQUARE_FACTORS)
def test_square_columns_match_the_square_table_with_fractions(build):
    assert_columns_match_the_table(build(), every_class=True)


def test_square_columns_match_the_square_table_on_the_ladder():
    # every tc-ladder rung, re-read over Q, F2, F3 and Z where its
    # constants allow
    checked = set()
    for cid, _, build in _perfbench_cases()._tc_ladder_specs():
        A = build().algebra
        if cid == "rp16cat":
            continue  # a cat rung: its square is never multiplied in
        for coeff in (Q, GF(2), GF(3), Z):
            B = _over(A, coeff)
            if B is not None:
                assert_columns_match_the_table(B, every_class=False)
                checked.add(coeff.label)
    assert checked == {"Q", "F2", "F3", "Z"}


@pytest.mark.parametrize("build, zcl", [
    (lambda: real_projective(8), 15),
    (lambda: product([sphere(1, Q)] * 4), 4),
    (lambda: orientable_surface(3), 4),
], ids=["rp8", "t4q", "sigma3"])
def test_tc_builds_no_table_and_no_per_class_data_for_the_square(build, zcl):
    # a tc DP multiplies through the factor's constants: the square builds
    # neither its table nor constants nor generators of its own, and the
    # factor's constants, when it holds them already, are the ones it reads
    space = build()
    A = space.algebra
    constants = A.constants
    T, zero_divisors, _ = _lower_source("tc", space)
    assert capped_cuplength(CupLengthQuery(T, zero_divisors))[0] == zcl
    assert A.constants is constants
    assert not {"table", "constants", "generators"} & set(vars(T))


# ---------------------------------------------------------------------------
# certificate products read off the DP's own vector
# ---------------------------------------------------------------------------
#
# ``capped_cuplength`` takes the certificate's product from its own vector,
# the true product; multiplying the factors out through the algebra's
# ``mul_vectors`` must give the same element, scalar types included.

def assert_certificate_products_multiply_out(algebra, generators):
    """At every cap, the certificate's product equals its factors multiplied
    out, with scalars of the domain's own type, and the certificate verifies."""
    kind = type(algebra.coeff.zero())
    for cap in [*range(1, algebra.top_degree + 1), None]:
        length, cert = capped_cuplength(CupLengthQuery(algebra, generators, cap))
        if cert is None:
            assert length == 0
            continue
        product = cert.factors[0]
        for factor in cert.factors[1:]:
            product = product * factor
        assert cert.product == product and not product.is_zero(), cap
        assert all(type(c) is kind for v in cert.product.comps.values() for c in v)
        assert cert.verify(cap=cap)


def square_zero_divisors(A):
    """The square of A with the span of its g (x) 1 - 1 (x) g, over any
    coefficients (over Z too)."""
    T = tensor_square(A)[0]
    rows = {}
    for d, i in A.generators:
        rows.setdefault(d, []).append(T.zero_divisor(d, i))
    return T, Subspace(T, rows)


@st.composite
def generator_subspaces(draw, A):
    """A nonzero subspace of positive degree spanned by a few random rows,
    with entries a/b (b in 1, 2, 3) over Q, so the DP multiplies
    fractional spanning vectors."""
    dom, rows = A.coeff, {}
    for d in range(1, A.top_degree + 1):
        for _ in range(draw(st.integers(0, 2)) if A.dim(d) else 0):
            row = [dom.parse_scalar(draw(st.integers(-3, 3))) for _ in range(A.dim(d))]
            if dom == Q:
                row = [c / draw(st.integers(1, 3)) for c in row]
            rows.setdefault(d, []).append(row)
    sub = Subspace(A, rows)
    assume(not sub.is_zero())
    return sub


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificate_products_equal_their_factors_multiplied_out(data):
    A = data.draw(cup_algebras())
    assert_certificate_products_multiply_out(A, positive_part(A))
    assert_certificate_products_multiply_out(A, data.draw(generator_subspaces(A)))
    if A.total_dim <= 16:  # multiplying out in the square is slow past that
        assert_certificate_products_multiply_out(*square_zero_divisors(A))


@pytest.mark.parametrize("build", SQUARE_FACTORS)
def test_certificate_products_equal_their_factors_multiplied_out_with_fractions(build):
    A = build()
    assert_certificate_products_multiply_out(A, positive_part(A))
    assert_certificate_products_multiply_out(*square_zero_divisors(A))


def test_certificate_products_equal_their_factors_multiplied_out_on_the_ladder():
    # every tc-ladder rung, re-read over Q, F2, F3 and Z where its constants
    # allow: the zero divisors of its square and the classes of A
    checked = set()
    for cid, _, build in _perfbench_cases()._tc_ladder_specs():
        for coeff in (Q, GF(2), GF(3), Z):
            A = _over(build().algebra, coeff)
            if A is None:
                continue
            assert_certificate_products_multiply_out(A, positive_part(A))
            if cid != "rp16cat":  # a cat rung
                assert_certificate_products_multiply_out(*square_zero_divisors(A))
            checked.add(coeff.label)
    assert checked == {"Q", "F2", "F3", "Z"}


# ---------------------------------------------------------------------------
# one run over the rows in degree order against the layered DP
# ---------------------------------------------------------------------------
#
# ``layered_cuplength`` is the DP as it was before the rows were added one
# at a time: one run per cap, every kept monomial of a layer times every
# spanning row.  One multi-cap run must give its length at every cap.

def assert_matches_the_layered_dp(algebra, generators, label=""):
    caps = range(1, max(generators.degrees()) + 1)
    values = capped_cuplength(CupLengthQuery(algebra, generators), caps)
    assert sorted(values) == list(caps), label
    for cap in caps:
        old = layered_cuplength(CupLengthQuery(algebra, generators, cap))[0]
        assert values[cap][0] == old, (label, cap)


@pytest.mark.parametrize("coeff", [Q, GF(2), GF(3), Z], ids=lambda c: c.label)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dp_matches_the_layered_dp(coeff, data):
    # the cat source, the tc source up to 16 classes (the layered DP on
    # larger squares is slow) and a random span with rows in several degrees
    A = data.draw(cup_algebras(coeff))
    for inv in ("cat", "tc") if coeff.is_field and A.total_dim <= 16 else ("cat",):
        algebra, generators, _ = _lower_source(inv, SpaceModel(A))
        assert_matches_the_layered_dp(algebra, generators, inv)
    assert_matches_the_layered_dp(A, data.draw(generator_subspaces(A)), "span")


def _run_sources(bundle):
    """(label, algebra, generators) of every nonzero lower-bound source of
    the tables of a run on bundle."""
    engine = _Engine(bundle, None, True, None)
    engine.run()
    for inv, name in sorted(engine.tables):
        source = _lower_source(inv, engine.model(inv, name))
        if source is not None and not source[1].is_zero():
            yield f"{inv}[{name}]", source[0], source[1]


def test_dp_matches_the_layered_dp_on_the_catalogue_and_the_ladder():
    cases = _perfbench_cases()
    makers = {item: make for category in cases.rules_wide_catalogue().values()
              for item, make in category.items()}
    bundles = [Bundle()]
    cases.add_items(bundles[0], makers, sorted(makers))
    for cid, _, build in cases._tc_ladder_specs():
        bundles.append(Bundle())
        bundles[-1].add_space(cid, build())
    seen = Counter()
    for bundle in bundles:
        for label, algebra, generators in _run_sources(bundle):
            assert_matches_the_layered_dp(algebra, generators, label)
            seen[label.split("[")[0]] += 1
            seen["several degrees"] += len(generators.degrees()) > 1
    assert all(seen[key] for key in ("cat", "tc", "secat", "hdm", "several degrees")), seen


# ---------------------------------------------------------------------------
# soundness without the graded sign law
# ---------------------------------------------------------------------------
#
# The DP forms only ordered monomials s_i1 * ... * s_it, i1 <= ... <= it;
# they span every product of t rows by graded commutativity.  Without that
# law each kept monomial is still a true product, so the lengths stay sound
# and the certificates verify; only tightness is lost.

@st.composite
def unsigned_algebras(draw):
    """Classes in degrees 1, 2 and 3 with a product drawn for every ordered
    pair, so most break the sign law; built without validation."""
    coeff = draw(st.sampled_from([Q, GF(2), GF(3), Z]))
    basis = {1: ["a", "b", "c"][:draw(st.integers(1, 3))],
             2: ["u", "v"][:draw(st.integers(1, 2))],
             3: ["w"][:draw(st.integers(0, 1))]}
    degree = {n: d for d, names in basis.items() for n in names}
    products = [(left, right, {n: draw(st.integers(-2, 2))
                               for n in basis.get(degree[left] + degree[right], ())})
                for left in degree for right in degree]
    return make_algebra(coeff, basis, products, validate=False)


def assert_sound(A):
    generators = positive_part(A)
    caps = range(1, A.top_degree + 1)
    values = capped_cuplength(CupLengthQuery(A, generators), caps)
    for cap in caps:
        length, cert = values[cap]
        query = CupLengthQuery(A, generators, cap)
        assert length <= brute_force_cuplength(query, max_len=A.top_degree), cap
        assert length == 0 or (len(cert) == length and cert.verify(cap)), cap


@settings(max_examples=80, deadline=None)
@given(unsigned_algebras())
def test_dp_is_sound_without_the_sign_law(A):
    assert_sound(A)


def test_dp_without_the_sign_law_is_sound_but_not_tight():
    # a * b = 0 but b * a = u: the DP forms only a * b, the search finds b * a
    A = make_algebra(Q, {1: ["a", "b"], 2: ["u"]},
                     [("a", "b", {}), ("b", "a", {"u": 1})], validate=False)
    assert_sound(A)
    query = positive_query(A, None)
    assert capped_cuplength(query)[0] == 1 < brute_force_cuplength(query, max_len=2) == 2
