from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from secatm.domains import GF, Q, Z
from secatm.algebra import (
    AlgebraMismatch,
    AssociativityViolation,
    CoefficientMismatch,
    CommutativityViolation,
    GradedAlgebra,
    InvalidAlgebraSpec,
    MorphismMismatch,
    MultiplicativityViolation,
    RingMorphism,
    Subspace,
    TensorProduct,
    UnitViolation,
    kernel,
    kunneth_product,
    make_algebra,
    tensor_morphism,
    tensor_square,
)
from secatm.cuplength import CupLengthQuery, capped_cuplength
from secatm.linalg import vzero
from secatm.spaces import (
    complex_projective,
    moore,
    nonorientable_surface,
    orientable_surface,
    point,
    product,
    real_projective,
    sphere,
)

from reference import (
    SubspaceMismatch,
    UnsupportedCoefficients,
    _cup_kernel_rows,
    cup_kernel,
    image_difference,
    multiplication_morphism,
    positive_part,
    pushforward_span,
)


def truncated_f2(n):
    """F2[x]/(x^{n+1}) with |x| = 1."""
    return real_projective(n).algebra


def exterior_z():
    """Exterior algebra over Z on x1 (degree 1) and x3 (degree 3)."""
    return make_algebra(
        Z,
        {0: ["1"], 1: ["x1"], 3: ["x3"], 4: ["x1x3"]},
        [("x1", "x3", {"x1x3": 1})],
    )


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def planted_violation(kind, coeff):
    """The tensor square of S^1 x S^2 with two products doubled.  "sign"
    doubles two products with a later class on the left, breaking the
    graded sign law; "assoc" doubles two products together with their
    mirrors, which keeps the sign law and breaks associativity."""
    T, _, _ = tensor_square(product([sphere(1, coeff), sphere(2, coeff)]).algebra)
    dom = T.coeff
    table = dict(T.table)
    keys = sorted(k for k in table if k[0] and k[2] and k[:2] < k[2:])
    for d1, i1, d2, i2 in (keys[7], keys[2]) if kind == "sign" else (keys[9], keys[4]):
        mirror = (d2, i2, d1, i1)
        for key in (mirror,) if kind == "sign" else ((d1, i1, d2, i2), mirror):
            table[key] = tuple(dom.add(c, c) for c in table[key])
    return GradedAlgebra(dom, T.names, table, validate=False)


class TestMakeAlgebra:
    def test_truncated_polynomial_f2(self):
        alg = truncated_f2(3)
        assert alg.top_degree == 3
        assert alg.dims() == (1, 1, 1, 1)
        x = alg.basis_element("x")
        assert (x * x * x * x).is_zero()

    def test_exterior_algebra_over_z(self):
        alg = exterior_z()
        assert alg.top_degree == 4
        x1, x3 = alg.basis_element("x1"), alg.basis_element("x3")
        assert (x1 * x3) == alg.basis_element("x1x3")
        # Koszul sign: odd times odd anticommutes
        assert (x3 * x1) == -alg.basis_element("x1x3")

    def test_commutativity_violation_names_the_pair(self):
        with pytest.raises(CommutativityViolation) as err:
            make_algebra(
                Q,
                {0: ["1"], 1: ["x", "y"], 2: ["u"]},
                [("x", "y", {"u": 1}), ("y", "x", {"u": 1})],  # should be -1
            )
        assert "'x'" in str(err.value) and "'y'" in str(err.value)

    @pytest.mark.parametrize("key, row", [
        ((0, 0, 1, 0), (Fraction(2),)),  # says 1 * x = 2x
        ((1, 0, 0, 0), (Fraction(2),)),  # says x * 1 = 2x
        ((0, 0, 1, 0), (Fraction(1),)),  # agrees with the unit law, still dead data
    ])
    def test_table_entries_with_a_degree_0_factor_are_rejected(self, key, row):
        with pytest.raises(UnitViolation, match="degree-0 factor"):
            GradedAlgebra(Q, [["1"], ["x"]], {key: row})
        with pytest.raises(UnitViolation, match="degree-0 factor"):
            GradedAlgebra(Q, [["1"], ["x"]], {key: row}, validate=False)

    def test_unit_violation(self):
        with pytest.raises(UnitViolation):
            make_algebra(
                Q,
                {0: ["1"], 1: ["x"]},
                [("1", "x", {})],  # declares 1*x = 0
            )

    def test_associativity_violation(self):
        # x*y = u, x*u = u*x = w, y*u = 0: then (x*y)*x = w but x*(y*x) = -w
        with pytest.raises(AssociativityViolation):
            make_algebra(
                Q,
                {0: ["1"], 1: ["x", "y"], 2: ["u"], 3: ["w"]},
                [
                    ("x", "y", {"u": 1}),
                    ("x", "u", {"w": 1}),
                    ("y", "u", {}),
                    ("x", "x", {}),
                    ("y", "y", {}),
                ],
            )

    def test_associativity_is_checked_mod_p(self):
        # a*a = u + v, b*u = w, b*v = 2w: (a*a)*b = 3w and a*(a*b) = 0,
        # equal over F3 only; over F2 with b*v = w, equal over F2 only
        for p, bv in [(3, 2), (2, 1)]:
            basis = {0: ["1"], 2: ["a", "b"], 4: ["u", "v"], 6: ["w"]}
            products = [("a", "a", {"u": 1, "v": 1}), ("b", "u", {"w": 1}),
                        ("b", "v", {"w": bv})]
            make_algebra(GF(p), basis, products)
            with pytest.raises(AssociativityViolation):
                make_algebra(Q, basis, products)

    def test_associativity_violation_seen_only_from_the_right(self):
        # x*y = 0 but x*(y*z) = x*u = w: the first violating triple has a
        # zero left side, so it is reached through y*z, not through x*y
        with pytest.raises(AssociativityViolation) as err:
            make_algebra(
                Q,
                {0: ["1"], 2: ["x", "y", "z"], 4: ["u"], 6: ["w"]},
                [("y", "z", {"u": 1}), ("x", "u", {"w": 1})],
            )
        assert str(err.value) == "('x' * 'y') * 'z' differs from 'x' * ('y' * 'z')"

    def test_odd_square_must_vanish_in_characteristic_zero(self):
        with pytest.raises(CommutativityViolation):
            make_algebra(
                Q,
                {0: ["1"], 1: ["x"], 2: ["u"]},
                [("x", "x", {"u": 1})],
            )
        # but squares of odd classes are fine over F2
        alg = make_algebra(
            GF(2),
            {0: ["1"], 1: ["x"], 2: ["u"]},
            [("x", "x", {"u": 1})],
        )
        x = alg.basis_element("x")
        assert (x * x) == alg.basis_element("u")

    def test_product_beyond_top_degree_must_be_zero(self):
        with pytest.raises(InvalidAlgebraSpec):
            make_algebra(
                Q,
                {0: ["1"], 1: ["x"]},
                [("x", "x", {"x": 1})],  # lands in degree 2 > top
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidAlgebraSpec):
            make_algebra(Q, {0: ["1"], 1: ["a"], 2: ["a"]}, [])

    def test_tensor_square_of_the_four_torus_validates(self):
        # 256 classes; checking every triple of them densely took minutes
        T, _, _ = tensor_square(product([sphere(1, Q)] * 4).algebra)
        T.validate()

    def test_validate_reports_the_first_sign_law_violation(self):
        # two broken pairs, each broken through its later mirror: the first
        # in basis order is named, as by a check over every pair
        for coeff in (Q, GF(3), Z):
            with pytest.raises(CommutativityViolation) as err:
                planted_violation("sign", coeff).validate()
            assert str(err.value) == (
                "'1(x)1(x)a(x)1' * '1(x)a(x)1(x)1' violates the graded sign law")

    def test_validate_reports_the_first_associativity_violation(self):
        for coeff in (Q, GF(3), Z):
            with pytest.raises(AssociativityViolation) as err:
                planted_violation("assoc", coeff).validate()
            assert str(err.value) == (
                "('1(x)1(x)a(x)1' * 'a(x)1(x)1(x)1') * '1(x)a(x)1(x)1' differs from "
                "'1(x)1(x)a(x)1' * ('a(x)1(x)1(x)1' * '1(x)a(x)1(x)1')")

    def test_validate_is_reassertable(self):
        alg = exterior_z()
        alg.validate()
        # derived constructions satisfy the same laws
        for base in (sphere(2).algebra, real_projective(3).algebra):
            T, _, _ = tensor_square(base)
            T.validate()
        C, _, _ = kunneth_product(sphere(1, Z).algebra, sphere(3, Z).algebra)
        C.validate()


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

class TestMultiply:
    def test_truncated_power(self):
        alg = truncated_f2(3)
        x = alg.basis_element("x")
        x2 = alg.basis_element("x^2")
        assert x * x2 == alg.basis_element("x^3")

    def test_unit_law(self):
        alg = truncated_f2(3)
        a = alg.element({"x": 1, "x^3": 1})
        assert alg.unit_element() * a == a
        assert a * alg.unit_element() == a

    def test_algebra_mismatch(self):
        a = truncated_f2(2).basis_element("x")
        b = truncated_f2(3).basis_element("x")
        with pytest.raises(AlgebraMismatch):
            a * b

    def test_element_degree(self):
        alg = exterior_z()
        assert alg.basis_element("x3").degree == 3
        with pytest.raises(ValueError):
            (alg.basis_element("x1") + alg.basis_element("x3")).degree


# ---------------------------------------------------------------------------
# tensor squares and Kunneth products
# ---------------------------------------------------------------------------

def expand_tensor_product(terms1, terms2):
    """Independent sign oracle: multiply two formal sums of decomposables.

    Terms are (coeff, p, q) simple tensors of powers of a single class a with
    a^2 = 0, |a| = n encoded by degrees p, q in {0, n}.  The product rule is
    (a^i (x) a^j)(a^k (x) a^l) = (-1)^{jk} a^{i+k} (x) a^{j+l} with any
    repeated factor vanishing.
    """
    out = {}
    for c1, p1, q1 in terms1:
        for c2, p2, q2 in terms2:
            if (p1 and p2) or (q1 and q2):
                continue  # a^2 = 0
            sign = -1 if (q1 % 2 == 1 and p2 % 2 == 1) else 1
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + sign * c1 * c2
    return {k: v for k, v in out.items() if v}


class TestTensorSquare:
    def test_sphere_dims(self):
        T, _, _ = tensor_square(sphere(2).algebra)
        assert T.dims() == (1, 0, 2, 0, 1)

    def test_even_class_sign_rule(self):
        A = sphere(2).algebra
        T, _, _ = tensor_square(A)
        left = T.element({"a(x)1": 1})
        right = T.element({"1(x)a": 1})
        aa = T.element({"a(x)a": 1})
        assert left * right == aa
        assert right * left == aa  # (-1)^{2*2} = +1

    def test_odd_diagonal_difference_squares_to_zero(self):
        # for |a| = 1 the square of 1(x)a - a(x)1 vanishes; cross-check the
        # claim against the independent sign oracle
        oracle = expand_tensor_product(
            [(1, 0, 1), (-1, 1, 0)], [(1, 0, 1), (-1, 1, 0)]
        )
        assert oracle == {}
        A = sphere(1).algebra
        T, _, _ = tensor_square(A)
        abar = T.element({"1(x)a": 1, "a(x)1": -1})
        assert (abar * abar).is_zero()

    def test_even_diagonal_difference_squares_to_minus_two(self):
        oracle = expand_tensor_product(
            [(1, 0, 2), (-1, 2, 0)], [(1, 0, 2), (-1, 2, 0)]
        )
        assert oracle == {(2, 2): -2}
        A = sphere(2).algebra
        T, _, _ = tensor_square(A)
        abar = T.element({"1(x)a": 1, "a(x)1": -1})
        assert abar * abar == T.element({"a(x)a": -2})

    def test_inclusions_are_ring_maps(self):
        A = real_projective(2).algebra
        T, inc1, inc2 = tensor_square(A)
        inc1.validate()
        inc2.validate()
        x = A.basis_element("x")
        assert inc1.apply(x) == T.element({"x(x)1": 1})
        assert inc2.apply(x) == T.element({"1(x)x": 1})


    def test_equal_product_rows_are_shared(self):
        # T^4 over Q: 6050 nonzero products, 494 distinct rows
        T, _, _ = tensor_square(product([sphere(1, Q)] * 4).algebra)
        assert len(T.table) == 6050
        assert len({id(row) for row in T.table.values()}) <= 494


class TestKunneth:
    def test_dimension_count(self):
        C, _, _ = kunneth_product(sphere(2).algebra, sphere(4).algebra)
        assert C.dims() == (1, 0, 1, 0, 1, 0, 1)
        a = C.element({"a(x)1": 1})
        b = C.element({"1(x)a": 1})
        assert not (a * b).is_zero()

    def test_dims_formula(self):
        A = real_projective(2).algebra
        B = real_projective(3).algebra
        C, _, _ = kunneth_product(A, B)
        for d in range(C.top_degree + 1):
            want = sum(A.dim(i) * B.dim(d - i) for i in range(d + 1))
            assert C.dim(d) == want

    def test_point_is_a_unit(self):
        A = complex_projective(2).algebra
        C, inc, _ = kunneth_product(A, point(Q).algebra)
        assert C.dims() == A.dims()
        u = A.basis_element("u")
        assert inc.apply(u * u) == inc.apply(u) * inc.apply(u)

    def test_exterior_generators(self):
        C, _, _ = kunneth_product(sphere(1, Z).algebra, sphere(3, Z).algebra)
        assert C.dims() == (1, 1, 0, 1, 1)
        x1 = C.element({"a(x)1": 1})
        x3 = C.element({"1(x)a": 1})
        assert x1 * x3 == C.element({"a(x)a": 1})
        assert x3 * x1 == C.element({"a(x)a": -1})

    def test_coefficient_mismatch(self):
        with pytest.raises(CoefficientMismatch):
            kunneth_product(sphere(2, Q).algebra, sphere(2, GF(2)).algebra)


# -- the Kunneth product against a direct reference ----------------------------
#
# (a (x) b)(a' (x) b') = (-1)^{|b||a'|} (a a') (x) (b b'), with each factor
# product taken through mul_basis, for every pair of positive-degree tensor
# classes.  The table must list its keys in (d1, k1, d2, k2) order.

F2 = GF(2)
KUNNETH_FACTORS = {
    Q: [st.builds(sphere, st.integers(1, 3), st.just(Q)),
        st.builds(orientable_surface, st.integers(1, 2)),
        st.builds(complex_projective, st.integers(1, 2)),
        st.builds(moore, st.integers(1, 2), st.integers(2, 3), st.just(Q))],
    F2: [st.builds(sphere, st.integers(1, 3), st.just(F2)),
         st.builds(real_projective, st.integers(2, 4)),
         st.builds(nonorientable_surface, st.integers(2, 3))],
    Z: [st.builds(sphere, st.integers(1, 4), st.just(Z))],
}


@st.composite
def kunneth_factors(draw):
    coeff = draw(st.sampled_from([Q, F2, Z]))

    def algebra():
        spaces = [draw(st.one_of(KUNNETH_FACTORS[coeff])) for _ in range(draw(st.integers(1, 2)))]
        return product(spaces).algebra

    return algebra(), algebra()


def kunneth_reference(A, B, C):
    dom = A.coeff
    slot = {d: {key: k for k, key in enumerate(C.kunneth_pairs[d])}
            for d in range(C.top_degree + 1)}
    out = {}
    for d1 in range(1, C.top_degree + 1):
        for k1, (p1, i1, q1, j1) in enumerate(C.kunneth_pairs[d1]):
            for d2 in range(1, C.top_degree + 1 - d1):
                for k2, (p2, i2, q2, j2) in enumerate(C.kunneth_pairs[d2]):
                    arow = A.mul_basis(p1, i1, p2, i2)
                    brow = B.mul_basis(q1, j1, q2, j2)
                    if arow is None or brow is None:
                        continue
                    row = [dom.zero()] * C.dim(d1 + d2)
                    for ia, ca in enumerate(arow):
                        for jb, cb in enumerate(brow):
                            c = dom.mul(ca, cb)
                            if q1 % 2 and p2 % 2:
                                c = dom.neg(c)
                            s = slot[d1 + d2][(p1 + p2, ia, q1 + q2, jb)]
                            row[s] = dom.add(row[s], c)
                    if any(row):
                        out[(d1, k1, d2, k2)] = tuple(row)
    return out


@settings(max_examples=60, deadline=None)
@given(kunneth_factors())
def test_kunneth_product_matches_the_reference(factors):
    A, B = factors
    C, _, _ = kunneth_product(A, B)
    assert C.table == kunneth_reference(A, B, C)
    assert list(C.table) == sorted(C.table)


# The tensor square is thin: mul_basis multiplies in the factor, and the
# table is built only when read.  Differential check against a plain
# GradedAlgebra holding the table of a second square, on every pair of
# basis classes, units included.

def plain_copy(T):
    """A plain :class:`GradedAlgebra` with the basis and the table of
    ``T``, which multiplies by table lookup."""
    return GradedAlgebra(T.coeff, T.names, T.table, validate=False)


def odd_rational():
    """Odd classes and the constants 1/2 and -1/3 over Q."""
    return make_algebra(
        Q,
        {0: ["1"], 1: ["a", "b"], 2: ["c", "x"], 3: ["e"]},
        [("a", "b", {"c": "1/2"}), ("a", "x", {"e": "-1/3"})],
    )


# factors of tensor squares: Q with the constants 1/2 and -1/3 in even and
# in odd degrees, Q, F2 and F3 with odd classes (Koszul signs), F3 with
# mixed parities
SQUARE_FACTORS = [
    lambda: make_algebra(Q, {0: ["1"], 2: ["x", "z"], 4: ["y"]},
                         [("x", "x", {"y": "1/2"}), ("x", "z", {"y": "-1/3"})]),
    odd_rational,
    lambda: orientable_surface(2).algebra,
    lambda: product([sphere(1, Q)] * 3).algebra,
    lambda: real_projective(5).algebra,
    lambda: nonorientable_surface(2).algebra,
    lambda: product([sphere(1, GF(3)), sphere(3, GF(3))]).algebra,
    lambda: product([sphere(1, GF(3)), sphere(2, GF(3))]).algebra,
]


@pytest.mark.parametrize("build", SQUARE_FACTORS)
def test_thin_square_products_equal_the_eager_table(build):
    A = build()
    T, _, _ = tensor_square(A)
    E = plain_copy(tensor_square(A)[0])
    assert type(E) is GradedAlgebra and T.names == E.names
    for d1 in range(T.top_degree + 1):
        for k1 in range(T.dim(d1)):
            for d2 in range(T.top_degree + 1):
                for k2 in range(T.dim(d2)):
                    assert T.mul_basis(d1, k1, d2, k2) == E.mul_basis(d1, k1, d2, k2)
    assert "table" not in vars(T)  # products never built the table
    assert T.table == E.table


def eager_square_names(A):
    """The names of A (x) A as the square's constructor once built them:
    degree by degree, blocks by the degree of the left factor, a-major."""
    top = 2 * A.top_degree
    names = [[] for _ in range(top + 1)]
    for d in range(top + 1):
        for p in range(d + 1):
            q = d - p
            for i in range(A.dim(p)):
                for j in range(A.dim(q)):
                    names[d].append(f"{A.names[p][i]}(x){A.names[q][j]}")
    return names


@pytest.mark.parametrize("build", SQUARE_FACTORS + [
    lambda: real_projective(4).algebra,
    lambda: make_algebra(Q, {0: ["1"], 2: ["x"], 4: [], 6: ["y"]}, []),
])
def test_square_names_are_built_on_first_read_as_eagerly(build):
    A = build()
    T, left, _ = tensor_square(A)
    assert not {"names", "_index"} & set(vars(T))  # nothing read them yet
    assert T.zero_divisor(1 if A.dim(1) else 2, 0) is not None
    assert not {"names", "_index", "mats"} & (set(vars(T)) | set(vars(left)))
    E = GradedAlgebra(A.coeff, eager_square_names(A), {}, validate=False)
    assert T.dims() == E.dims() and T.top_degree == E.top_degree
    assert [T.dim(d) for d in range(-1, T.top_degree + 2)] == \
        [E.dim(d) for d in range(-1, E.top_degree + 2)]
    assert T.names == E.names and T._index == E._index
    u = A.unit_name
    eager = RingMorphism.from_images(
        A, T, {n: {f"{n}(x){u}": 1} for ns in A.names[1:] for n in ns}, validate=False)
    assert left.mats == eager.mats
    for name, (d, i) in E._index.items():
        unit = [A.coeff.zero()] * T.dim(d)
        unit[i] = A.coeff.one()
        assert T.basis_element(name).comps == {d: tuple(unit)}
    a = next(n for d in range(1, A.top_degree + 1) for n in A.names[d])
    zd = T.element({f"{a}(x){u}": 1, f"{u}(x){a}": A.coeff.neg(A.coeff.one())})
    assert zd == T.component_element(A._index[a][0], T.zero_divisor(*A._index[a]))


def test_square_zero_divisors_need_a_square():
    with pytest.raises(AlgebraMismatch):
        TensorProduct(sphere(2).algebra, sphere(3).algebra).zero_divisor(2, 0)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class TestRingMorphism:
    def test_identity_and_augmentation(self):
        A = truncated_f2(3)
        ident = RingMorphism.identity(A)
        assert ident.is_identity() and not ident.is_augmentation()
        aug = RingMorphism.augmentation(A, sphere(3, GF(2)).algebra)
        assert aug.is_augmentation()
        aug.validate()

    def test_multiplicativity_violation_names_the_pair(self):
        alg = exterior_z()
        # negating the generators but forgetting the top class breaks
        # multiplicativity on (x1, x3)
        with pytest.raises(MultiplicativityViolation) as err:
            RingMorphism.from_images(
                alg, alg, {"x1": {"x1": -1}, "x3": {"x3": -1}, "x1x3": {"x1x3": -1}}
            )
        assert "x1" in str(err.value) and "x3" in str(err.value)

    def test_inversion_pullback_is_valid(self):
        alg = exterior_z()
        inv = RingMorphism.from_images(
            alg, alg, {"x1": {"x1": -1}, "x3": {"x3": -1}, "x1x3": {"x1x3": 1}}
        )
        assert inv.apply(alg.basis_element("x1")) == -alg.basis_element("x1")

    def test_degree_shift_rejected(self):
        A = truncated_f2(3)
        with pytest.raises(MorphismMismatch):
            RingMorphism.from_images(A, A, {"x": {"x^2": 1}})

    def test_products_beyond_the_source_top_degree_are_checked(self):
        # a*a = 0 on S^2, but a -> x1 + x2 into S^2 x S^2 squares to 2 x1x2:
        # over Q that is no ring map, over F2 it is one
        for coeff, valid in [(Q, False), (GF(2), True)]:
            S = sphere(2, coeff).algebra
            C, _, _ = kunneth_product(S, S)
            images = {"a": {"a(x)1": 1, "1(x)a": 1}}
            if valid:
                RingMorphism.from_images(S, C, images)
                continue
            with pytest.raises(MultiplicativityViolation, match="\\('a', 'a'\\)"):
                RingMorphism.from_images(S, C, images)


# -- the sparse multiplicativity check against the dense one --------------------
#
# ``RingMorphism.validate`` visits only the pairs where f(xy) or f(x)f(y) can
# be nonzero.  The reference visits every pair of basis classes whose degrees
# fit in the target, in basis order, and reports the first that fails.

def dense_violation(phi) -> str | None:
    src, tgt = phi.source, phi.target
    dom = src.coeff
    basis = [(d, i) for d in range(src.top_degree + 1) for i in range(src.dim(d))]
    for d1, i1 in basis:
        for d2, i2 in basis:
            d = d1 + d2
            if d > tgt.top_degree:
                continue
            prod = src.mul_basis(d1, i1, d2, i2)
            lhs = phi.apply_component(d, prod) if prod is not None else vzero(dom, tgt.dim(d))
            rhs = tgt.mul_vectors(d1, phi.mats[d1][i1], d2, phi.mats[d2][i2])
            if lhs != rhs:
                return (f"morphism is not multiplicative on "
                        f"({src.names[d1][i1]!r}, {src.names[d2][i2]!r})")
    return None


@st.composite
def mutated_morphisms(draw):
    """A ring map (identity, a Kunneth inclusion or a cup product map) over
    Q, F2, F3, F5 or Z with one to three positive-degree matrix entries
    changed, over Q also to non-integral values."""
    coeff = draw(st.sampled_from([Q, GF(2), GF(3), GF(5), Z]))
    A = draw(cup_algebras(coeff))
    kind = draw(st.sampled_from(["identity", "left", "right", "cup"]))
    if kind == "identity":
        phi = RingMorphism.identity(A)
    elif kind == "cup":
        _, phi = multiplication_morphism(A)
    else:
        B = draw(cup_algebras(A.coeff))
        _, left, right = kunneth_product(A, B)
        phi = left if kind == "left" else right
    mats = {d: [list(row) for row in rows] for d, rows in phi.mats.items()}
    cells = [(d, i, j) for d, rows in mats.items() if d
             for i, row in enumerate(rows) for j in range(len(row))]
    values = [-2, -1, 0, 1, 2]
    if coeff == Q:
        values += [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
    for d, i, j in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)):
        mats[d][i][j] = coeff.parse_scalar(draw(st.sampled_from(values)))
    return RingMorphism(phi.source, phi.target, mats, validate=False)


@settings(max_examples=120, deadline=None)
@given(mutated_morphisms())
def test_validate_reports_the_dense_checks_first_violation(phi):
    expected = dense_violation(phi)
    if expected is None:
        phi.validate()
        return
    with pytest.raises(MultiplicativityViolation) as err:
        phi.validate()
    assert str(err.value) == expected


# ---------------------------------------------------------------------------
# kernels, images, pushforwards
# ---------------------------------------------------------------------------

class TestKernel:
    def test_identity_kernel_is_zero(self):
        A = truncated_f2(3)
        assert kernel(RingMorphism.identity(A)).is_zero()

    def test_covering_pullback_kernel(self):
        base = real_projective(3)
        total = sphere(3, GF(2)).algebra
        p = RingMorphism.augmentation(base.algebra, total)
        ker = kernel(p)
        assert ker.contains(base.algebra.basis_element("x"))
        assert ker.dims() if hasattr(ker, "dims") else True
        assert ker.dim(1) == 1 and ker.dim(2) == 1 and ker.dim(3) == 1

    def test_hopf_base_kernel(self):
        # u and u^2 both pull back to zero on the 5-sphere
        base = complex_projective(2)
        total = sphere(5, Q).algebra
        p = RingMorphism.augmentation(base.algebra, total)
        ker = kernel(p)
        assert ker.dim(2) == 1 and ker.dim(4) == 1 and ker.dim(0) == 0
        assert ker.contains(base.algebra.basis_element("u"))
        u = base.algebra.basis_element("u")
        assert ker.contains(u * u)

    def test_rank_nullity_per_degree(self):
        alg = exterior_z()
        inv = RingMorphism.from_images(
            alg, alg, {"x1": {"x1": -1}, "x3": {"x3": -1}, "x1x3": {"x1x3": 1}}
        )
        ker = kernel(inv)
        assert ker.is_zero()  # an isomorphism

    def test_rank_nullity_for_the_cup_product_map(self):
        from secatm.linalg import span_rows

        A = real_projective(3).algebra
        T, mu = multiplication_morphism(A)
        ker = kernel(mu)
        for d in range(T.top_degree + 1):
            rank = len(span_rows(A.coeff, list(mu.mats[d]), A.dim(d)))
            assert ker.dim(d) + rank == T.dim(d)


class TestCupKernel:
    def test_sphere(self):
        ck = cup_kernel(sphere(2).algebra)
        T = ck.algebra
        assert ck.dim(2) == 1
        assert ck.contains(T.element({"1(x)a": 1, "a(x)1": -1}))

    def test_point_is_zero(self):
        assert cup_kernel(point(Q).algebra).is_zero()

    def test_projective_plane_degree_one(self):
        ck = cup_kernel(real_projective(2).algebra)
        T = ck.algebra
        assert ck.dim(1) == 1
        assert ck.contains(T.element({"1(x)x": 1, "x(x)1": 1}))

    def test_integers_unsupported(self):
        with pytest.raises(UnsupportedCoefficients):
            cup_kernel(exterior_z())

    def test_multiplication_morphism_is_a_ring_map(self):
        A = real_projective(2).algebra
        T, mu = multiplication_morphism(A)
        mu.validate()


class TestImageDifference:
    def test_equal_maps_give_zero(self):
        A = truncated_f2(3)
        ident = RingMorphism.identity(A)
        assert image_difference(ident, ident).is_zero()

    def test_inversion_difference_spans_doubled_generators(self):
        alg = exterior_z()
        ident = RingMorphism.identity(alg)
        inv = RingMorphism.from_images(
            alg, alg, {"x1": {"x1": -1}, "x3": {"x3": -1}, "x1x3": {"x1x3": 1}}
        )
        span = image_difference(ident, inv)
        assert span.dim(1) == 1 and span.dim(3) == 1 and span.dim(4) == 0
        assert span.contains(alg.basis_element("x1").scale(2))
        assert not span.contains(alg.basis_element("x1"))  # lattice, not Q-span

    def test_two_augmentations_give_zero(self):
        A = truncated_f2(2)
        B = sphere(2, GF(2)).algebra
        aug = RingMorphism.augmentation(A, B)
        assert image_difference(aug, aug).is_zero()

    def test_morphism_mismatch(self):
        A, B = truncated_f2(2), truncated_f2(3)
        with pytest.raises(MorphismMismatch):
            image_difference(RingMorphism.identity(A), RingMorphism.identity(B))


class TestPushforward:
    def test_identity_fixes_subspace(self):
        A = truncated_f2(3)
        sub = positive_part(A)
        assert pushforward_span(RingMorphism.identity(A), sub) == sub

    def test_augmentation_kills_positive_degrees(self):
        A = truncated_f2(3)
        B = sphere(3, GF(2)).algebra
        sub = positive_part(A)
        assert pushforward_span(RingMorphism.augmentation(A, B), sub).is_zero()

    def test_subspace_mismatch(self):
        A, B = truncated_f2(2), truncated_f2(3)
        with pytest.raises(SubspaceMismatch):
            pushforward_span(RingMorphism.identity(A), positive_part(B))

    def test_products_of_images_are_images_of_products(self):
        A = complex_projective(2).algebra
        T, inc1, _ = tensor_square(A)
        u = A.basis_element("u")
        lhs = inc1.apply(u) * inc1.apply(u)
        rhs = inc1.apply(u * u)
        assert lhs == rhs

    def test_pushforward_respects_products_on_samples(self):
        # pushing a span through a ring map and multiplying agrees with
        # multiplying first, for several morphisms and spanning pairs
        cases = []
        A = real_projective(3).algebra
        T, mu = multiplication_morphism(A)
        cases.append((mu, positive_part(T)))
        B = exterior_z()
        inv = RingMorphism.from_images(
            B, B, {"x1": {"x1": -1}, "x3": {"x3": -1}, "x1x3": {"x1x3": 1}}
        )
        cases.append((inv, positive_part(B)))
        for phi, sub in cases:
            spanning = sub.spanning_elements()
            for a in spanning:
                for b in spanning:
                    assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)


class TestSubspace:
    def test_membership_over_q(self):
        A = sphere(2).algebra
        sub = Subspace.from_elements(A, [A.basis_element("a").scale(Fraction(2, 3))])
        assert sub.contains(A.basis_element("a"))  # field span rescales

    def test_restriction_by_degree(self):
        A = truncated_f2(3)
        sub = positive_part(A)
        capped = sub.restricted(2)
        assert capped.degrees() == (1, 2)
        assert sub.restricted(None) is sub

    def test_spanning_elements_are_homogeneous(self):
        A = truncated_f2(3)
        for el in positive_part(A).spanning_elements():
            assert el.is_homogeneous() and not el.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_and_restriction_keep_canonical_rows(data):
    # both take their rows as they are, with no new echelon: those rows must
    # be what a fresh echelon of them gives
    phi = data.draw(mutated_morphisms())
    ker = kernel(phi)
    assert Subspace(ker.algebra, ker.rows) == ker
    cap = data.draw(st.integers(0, phi.source.top_degree))
    assert ker.restricted(cap) == Subspace(
        ker.algebra, {d: rs for d, rs in ker.rows.items() if d <= cap})


# -- the explicit cup-kernel basis against elimination ---------------------------
#
# ``cup_kernel`` spans ker(cup) by a (x) b - 1 (x) ab; ``kernel`` eliminates the
# multiplication map over [M | I].  Both are canonical, so equal subspaces
# have equal rows.  Over Z the explicit basis must give the same lattice.

def structured_algebra(coeff, g, n_low, n_high, rows) -> GradedAlgebra:
    """Classes in degrees g and 2g with random products between them: the
    top degree is 2g, so associativity holds whatever the products."""
    low = [f"x{k}" for k in range(n_low)]
    high = [f"y{k}" for k in range(n_high)]
    products = []
    for k1, left in enumerate(low):
        for k2 in range(k1, n_low):
            if k1 == k2 and g % 2 and coeff.p != 2:
                continue  # an odd class squares to zero outside F2
            row = rows[(k1 * n_low + k2) % len(rows)]
            products.append((left, low[k2], dict(zip(high, row))))
    return make_algebra(coeff, {g: low, 2 * g: high}, products)


@st.composite
def cup_algebras(draw, coeff=None, small=False):
    """A structured algebra over Q, F2, F3 or Z, or a small built-in over
    the same coefficients, or the Kunneth product of two of them; with
    ``small``, one of them with at most five classes."""
    coeff = coeff or draw(st.sampled_from([Q, GF(2), GF(3), Z]))

    def one():
        if draw(st.booleans()):
            n_high = draw(st.integers(1, 2))
            rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n_high,
                                          max_size=n_high), min_size=1, max_size=4))
            return structured_algebra(coeff, draw(st.integers(1, 2)),
                                      draw(st.integers(1, 2 if small else 3)), n_high, rows)
        builtins = [sphere(draw(st.integers(1, 3)), coeff)]
        if coeff == Q:
            builtins += [complex_projective(2)] + ([] if small else [orientable_surface(2)])
        if coeff == GF(2):
            builtins += [real_projective(3)] + ([] if small else [nonorientable_surface(3)])
        return draw(st.sampled_from(builtins)).algebra

    A = one()
    if not small and draw(st.booleans()):
        A, _, _ = kunneth_product(A, one())
    return A


def assert_cup_kernel_is_the_kernel(A):
    T, mu = multiplication_morphism(A)
    if A.coeff.is_field:
        assert cup_kernel(A, T) == kernel(mu)
    else:
        assert Subspace(T, _cup_kernel_rows(A, T)) == kernel(mu)


@settings(max_examples=60, deadline=None)
@given(cup_algebras())
def test_cup_kernel_equals_the_eliminated_kernel(A):
    assert_cup_kernel_is_the_kernel(A)


@pytest.mark.parametrize("build", [
    lambda: sphere(2).algebra,
    lambda: real_projective(4).algebra,
    lambda: complex_projective(3).algebra,
    lambda: orientable_surface(2).algebra,
    lambda: nonorientable_surface(3).algebra,
    lambda: product([sphere(1, GF(3)), sphere(2, GF(3)), sphere(3, GF(3))]).algebra,
    lambda: product([sphere(1, Q)] * 3).algebra,
    lambda: product([sphere(2, Z), sphere(3, Z)]).algebra,
    exterior_z,
])
def test_cup_kernel_equals_the_eliminated_kernel_on_builtins(build):
    assert_cup_kernel_is_the_kernel(build())


# -- zero divisors of a pair of maps ----------------------------------------------
#
# The image of ker(cup) of the source under a (x) b -> f(a) g(b) is spanned by
# f(a) g(b) - g(ab) = (f(a) - g(a)) g(b), so at every cap it has the
# cup-length of im(f - g), the one source of the dm and hdm lower bounds.
# The reference builds both tensor squares, eliminates the cup kernel and
# pushes it through f (x) g and the target's cup product.

def pushed_zero_divisors(f, g) -> Subspace:
    Y, X = f.source, f.target
    TY, TX = tensor_square(Y)[0], tensor_square(X)[0]
    cup_kernel_y = kernel(multiplication_morphism(Y, TY)[1])
    pair = tensor_morphism(f, g, source_tensor=TY, target_tensor=TX)
    return pushforward_span(multiplication_morphism(X, TX)[1],
                            pushforward_span(pair, cup_kernel_y))


def capped_lengths(span: Subspace) -> list[int]:
    """The cup-length of ``span`` at every cap up to its algebra's top
    degree, and uncapped."""
    caps = [*range(1, span.algebra.top_degree + 1), None]
    return [capped_cuplength(CupLengthQuery(span.algebra, span, cap))[0] for cap in caps]


def assert_pushed_length_is_the_difference_length(f, g):
    assert capped_lengths(pushed_zero_divisors(f, g)) == capped_lengths(
        image_difference(f, g))


def test_pair_zero_divisors_of_the_two_projections_reach_degree_four():
    # pr1 and pr2 from S^2 x S^2 to S^2: a (x) a has degree 4, beyond the top
    # of S^2, and goes to x1 x2, which is no difference of pullbacks; it is
    # the product of the two differences, so the lengths still agree
    for coeff in (Q, GF(2), GF(3), Z):
        S = sphere(2, coeff).algebra
        C, pr1, pr2 = kunneth_product(S, S)
        pushed = pushed_zero_divisors(pr1, pr2)
        assert pushed.contains(C.element({"a(x)a": 1}))
        assert not image_difference(pr1, pr2).contains(C.element({"a(x)a": 1}))
        assert_pushed_length_is_the_difference_length(pr1, pr2)


@st.composite
def map_pairs(draw):
    """Two ring maps A -> X: the inclusions of both factors of A (x) A, or
    the identity of A against itself or against the augmentation."""
    kind = draw(st.sampled_from(["factors", "identity", "constant"]))
    A = draw(cup_algebras(small=kind == "factors"))
    if kind == "factors":
        _, left, right = tensor_square(A)
        return draw(st.permutations([left, right]))
    identity = RingMorphism.identity(A)
    if kind == "identity":
        return identity, identity
    return draw(st.permutations([identity, RingMorphism.augmentation(A, A)]))


@settings(max_examples=40, deadline=None)
@given(map_pairs())
def test_pushed_zero_divisors_have_the_difference_length(pair):
    assert_pushed_length_is_the_difference_length(*pair)
