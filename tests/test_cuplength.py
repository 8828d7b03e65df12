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
    IntegerStructure,
    capped_cuplength,
)
from secatm.engine import _generators, _lower_source
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

from reference import SizeGuardExceeded, brute_force_cuplength, cup_kernel, positive_part
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
    spanning = query.generators.restricted(query.cap).spanning_elements()
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


# -- one integer structure per algebra ----------------------------------------
#
# A tensor square's structure comes from its factor's integer products, a
# plain algebra's from its table; a structure map shared across queries must
# give what a fresh structure per query gives.

def zero_divisor_runs(T, zero_divisors, structures=None):
    """(length, factor strings) of the zero-divisor DP at every cap."""
    out = []
    for cap in [*range(1, T.top_degree + 1), None]:
        length, cert = capped_cuplength(CupLengthQuery(T, zero_divisors, cap), structures)
        out.append((length, cert.factor_strings() if cert else []))
    return out


@pytest.mark.parametrize("build", SQUARE_FACTORS)
def test_cached_dp_on_the_thin_square_equals_the_dp_on_an_eager_copy(build):
    A = build()
    T, _, _ = tensor_square(A)
    E = plain_copy(tensor_square(A)[0])  # the same basis, with its table
    structures = {}
    thin = zero_divisor_runs(T, cup_kernel(A, T), structures)
    eager = zero_divisor_runs(E, Subspace(E, cup_kernel(A, T).rows))
    assert thin == eager
    assert list(structures) == [T] and "table" not in vars(T)


def test_one_structure_map_serves_squares_built_and_dropped_in_turn():
    # two factors of the same shape with different products (RP^3 and
    # S^1 v S^2 v S^3 over F2): a structure of one square served to the
    # other would change its lengths
    factors = [
        real_projective(3).algebra,
        make_algebra(GF(2), {0: ["1"], 1: ["x"], 2: ["y"], 3: ["z"]}, []),
    ]
    structures, runs = {}, []
    for A in factors * 4:
        T = tensor_square(A)[0]  # no inclusion keeps T alive
        zero_divisors = cup_kernel(A, T)
        fresh = zero_divisor_runs(T, zero_divisors)
        assert zero_divisor_runs(T, zero_divisors, structures) == fresh
        runs.append(fresh)
        # T is freed here unless the map holds it, and a later square is
        # then often allocated at its address, so an id() key would serve
        # it T's structure
        del T, zero_divisors
    assert [length for length, _ in runs[0]] != [length for length, _ in runs[1]]


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
    class times s from ``IntegerStructure.products``, against the same
    products read from the square's table by ``mul_vectors``: one nonzero
    rational scale for all of them (1 off Q), and an empty dict exactly
    where a product vanishes.  The structure of A itself is checked the
    same way against A's own table."""
    T, left, right = tensor_square(A)
    E = plain_copy(tensor_square(A)[0])  # the same basis, multiplying by its table
    vectors = [(d, vsub(T.coeff, left.mats[d][i], right.mats[d][i]))
               for d, i in _generators(A)]
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
        structure, scale = IntegerStructure(X), None
        for ds, s in xs:
            pairs = tuple((i, c) for i, c in enumerate(s) if c)
            for dv in range(1, X.top_degree - ds + 1):
                for i1 in range(X.dim(dv)):
                    (_, got), = structure.products(dv, ((i1, 1),), ds, [(0, pairs)])
                    v = [0] * X.dim(dv)
                    v[i1] = 1
                    w = reference.mul_vectors(dv, tuple(v), ds, s)
                    assert all(c for c in got.values()) and (not got) == vis_zero(w)
                    if got and scale is None:  # the first nonzero product
                        j = next(iter(got))
                        scale = Fraction(got[j]) / Fraction(w[j])
                        assert scale != 0 and (X.coeff == Q or scale == 1)
                    want = {j: scale * c for j, c in enumerate(w) if c}
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
    # neither its table nor constants of its own, and the factor's
    # structure, when the map holds it already, is the one it reads
    space = build()
    A = space.algebra
    T, zero_divisors, _ = _lower_source("tc", space)
    structures = {A: IntegerStructure(A)}
    assert capped_cuplength(CupLengthQuery(T, zero_divisors), structures)[0] == zcl
    assert list(structures) == [A, T]
    assert "table" not in vars(T) and "constants" not in vars(structures[T])
    assert structures[T]._factors == (structures[A], structures[A])


# ---------------------------------------------------------------------------
# certificate products read off the DP's own vector
# ---------------------------------------------------------------------------
#
# ``capped_cuplength`` takes the certificate's product from its integer
# vector (scalings undone over Q); multiplying the factors out through the
# algebra's ``mul_vectors`` must give the same element, scalar types included.

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
    for d, i in _generators(A):
        rows.setdefault(d, []).append(T.zero_divisor(d, i))
    return T, Subspace(T, rows)


@st.composite
def generator_subspaces(draw, A):
    """A nonzero subspace of positive degree spanned by a few random rows,
    with entries a/b (b in 1, 2, 3) over Q, so the spanning vectors the DP
    makes primitive and integral need scales other than 1."""
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
