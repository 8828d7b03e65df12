import pytest

from secatm.domains import GF, Q, Z
from secatm.algebra import CoefficientMismatch, RingMorphism, image_difference
from secatm.spaces import (
    FibrationModel,
    MapPairModel,
    SpaceModel,
    complex_projective,
    constant_map_pullback,
    moore,
    nonorientable_surface,
    orientable_surface,
    point,
    product,
    product_fibration,
    real_projective,
    sphere,
)


class TestSphere:
    def test_even_sphere_metadata(self):
        s = sphere(2, Q)
        assert (s.known_cat, s.known_tc) == (1, 2)
        assert (s.conn, s.hdim) == (1, 2)
        assert s.pi_vanish_from is None

    def test_circle_is_aspherical(self):
        s = sphere(1, Q)
        assert s.pi_vanish_from == 2
        assert s.known_tc == 1

    def test_mod_two_sphere(self):
        s = sphere(3, GF(2))
        assert (s.conn, s.hdim) == (2, 3)
        a = s.algebra.basis_element("a")
        assert (a * a).is_zero()


class TestRealProjective:
    def test_known_tc_values(self):
        assert real_projective(3).known_tc == 3
        assert real_projective(7).known_tc == 7
        assert real_projective(2).known_tc == 3
        assert real_projective(4).known_tc == 7
        assert real_projective(8).known_tc == 15
        assert real_projective(5).known_tc is None
        assert real_projective(6).known_tc is None

    def test_ring_structure(self):
        s = real_projective(4)
        assert (s.conn, s.hdim, s.known_cat) == (0, 4, 4)
        x = s.algebra.basis_element("x")
        assert not (x * x * x * x).is_zero()
        assert (x * x * x * x * x).is_zero()


class TestComplexProjective:
    def test_metadata(self):
        s = complex_projective(3)
        assert (s.hdim, s.known_tc, s.known_cat, s.conn) == (6, 6, 3, 1)

    def test_line_is_the_two_sphere(self):
        assert complex_projective(1).algebra.dims() == sphere(2, Q).algebra.dims()
        u = complex_projective(1).algebra.basis_element("u")
        assert (u * u).is_zero()

    def test_truncation(self):
        u = complex_projective(2).algebra.basis_element("u")
        assert not (u * u).is_zero()
        assert (u * u * u).is_zero()


class TestMoore:
    def test_rank_two(self):
        s = moore(2, 3, Q)
        assert s.algebra.dims() == (1, 0, 0, 2)
        assert (s.conn, s.hdim, s.known_cat, s.known_tc) == (2, 3, 1, None)

    def test_rank_one_is_a_sphere(self):
        assert moore(1, 2, Q).algebra.dims() == sphere(2, Q).algebra.dims()

    def test_all_positive_products_vanish(self):
        s = moore(3, 4, GF(2))
        els = [s.algebra.basis_element(f"e{i}") for i in (1, 2, 3)]
        for a in els:
            for b in els:
                assert (a * b).is_zero()


class TestSurfaces:
    def test_torus(self):
        s = orientable_surface(1)
        assert (s.known_cat, s.known_tc, s.pi_vanish_from, s.hdim) == (2, 2, 2, 2)
        a = s.algebra.basis_element("a1")
        b = s.algebra.basis_element("b1")
        w = s.algebra.basis_element("w")
        assert a * b == w
        assert b * a == -w
        assert (a * a).is_zero()

    def test_higher_genus(self):
        s = orientable_surface(2)
        assert s.known_tc == 4
        assert s.algebra.dims() == (1, 4, 1)
        a1 = s.algebra.basis_element("a1")
        b2 = s.algebra.basis_element("b2")
        assert (a1 * b2).is_zero()

    def test_nonorientable(self):
        s = nonorientable_surface(2)
        assert (s.known_cat, s.known_tc, s.pi_vanish_from) == (2, 4, 2)
        v = s.algebra.basis_element("v1")
        assert v * v == s.algebra.basis_element("w")


class TestProduct:
    def test_metadata_combination(self):
        p = product([sphere(2, Q), sphere(4, Q)])
        assert (p.conn, p.hdim) == (1, 6)
        assert p.known_cat is None and p.known_tc is None
        assert len(p.factors) == 2

    def test_single_factor_is_identity(self):
        s = sphere(2, Q)
        assert product([s]) is s

    def test_circle_times_three_sphere(self):
        p = product([sphere(1, Q), sphere(3, Q)])
        assert p.algebra.dims() == (1, 1, 0, 1, 1)
        assert p.pi_vanish_from is None  # the 3-sphere is not aspherical

    def test_aspherical_product(self):
        p = product([sphere(1, Q), sphere(1, Q)])
        assert p.pi_vanish_from == 2

    def test_coefficient_mismatch(self):
        with pytest.raises(CoefficientMismatch):
            product([sphere(2, Q), sphere(2, GF(2))])

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            SpaceModel(sphere(2, Q).algebra, hdim=1)


class TestConstantMapPullback:
    def test_kills_positive_degrees(self):
        Y, X = sphere(2, Q), complex_projective(2)
        c = constant_map_pullback(Y, X)
        assert c.is_augmentation()
        assert c.apply(Y.algebra.basis_element("a")).is_zero()

    def test_difference_with_a_map_is_its_positive_image(self):
        X = sphere(2, Q)
        ident = RingMorphism.identity(X.algebra)
        c = constant_map_pullback(X, X)
        span = image_difference(ident, c)
        assert span.dim(2) == 1
        assert span.contains(X.algebra.basis_element("a"))


class TestPoint:
    def test_zero_invariants(self):
        p = point(Q)
        assert (p.known_cat, p.known_tc, p.hdim) == (0, 0, 0)
        assert p.algebra.dims() == (1,)


class TestConnectivity:
    def test_conn_is_checked_against_the_algebra(self):
        s2 = sphere(2, Q).algebra
        assert SpaceModel(s2, conn=1, hdim=2).conn == 1
        with pytest.raises(ValueError, match="degree 2") as err:
            SpaceModel(s2, conn=2, hdim=2)
        assert err.value.field == "conn"
        with pytest.raises(ValueError, match="degree 1"):
            SpaceModel(real_projective(3).algebra, conn=5, hdim=3)

    def test_conn_may_exceed_the_top_degree_of_a_point(self):
        assert SpaceModel(point(Q).algebra, conn=10**9, hdim=0).conn == 10**9


class TestFibrationModel:
    def test_endpoint_validation(self):
        base = real_projective(3)
        total = sphere(3, GF(2)).algebra
        wrong = RingMorphism.identity(total)
        with pytest.raises(ValueError):
            FibrationModel(base=base, total_algebra=total, pstar=wrong)

    def test_product_fibration(self):
        def cover(n):
            base = real_projective(n)
            total = sphere(n, GF(2)).algebra
            return FibrationModel(
                base=base,
                total_algebra=total,
                pstar=RingMorphism.augmentation(base.algebra, total),
                fiber_pi_vanish_from=1,
            )

        f = product_fibration(cover(2), cover(3))
        assert f.factors is not None and len(f.factors) == 2
        assert f.base.hdim == 5
        assert f.fiber_pi_vanish_from == 1
        # the product pullback still kills every positive class
        assert f.pstar.is_augmentation()


class TestMapPairModel:
    def test_endpoint_validation(self):
        u = sphere(2, Q)
        w = sphere(3, Q)
        with pytest.raises(ValueError):
            MapPairModel(
                domain=u,
                codomain=u,
                fstar=RingMorphism.identity(w.algebra),
                gstar=RingMorphism.identity(u.algebra),
            )

    def test_triangle_legs_must_share_maps(self):
        s = sphere(2, Q)
        ident = RingMorphism.identity(s.algebra)
        aug = constant_map_pullback(s, s)
        leg1 = MapPairModel(domain=s, codomain=s, fstar=ident, gstar=aug)
        leg2 = MapPairModel(domain=s, codomain=s, fstar=ident, gstar=ident)
        with pytest.raises(ValueError):
            MapPairModel(
                domain=s, codomain=s, fstar=ident, gstar=ident,
                triangle=(leg1, leg2),
            )


# The constructors skip GradedAlgebra.validate (graded sign law and
# associativity, cubic in the size); every one of them, at small sizes and
# over each coefficient ring it accepts, must pass it.

F3 = GF(3)
CONSTRUCTED = (
    [point(c) for c in (Q, GF(2), F3, Z)]
    + [sphere(n, c) for n in range(1, 5) for c in (Q, GF(2), F3, Z)]
    + [real_projective(n) for n in range(2, 10)]
    + [complex_projective(n) for n in range(1, 6)]
    + [moore(r, n, c) for r in (1, 2, 3) for n in (2, 3) for c in (Q, GF(2), F3)]
    + [orientable_surface(g) for g in range(1, 5)]
    + [nonorientable_surface(h) for h in range(2, 6)]
)


def test_every_constructor_passes_validation():
    assert len(CONSTRUCTED) == 4 + 16 + 8 + 5 + 18 + 4 + 4
    for space in CONSTRUCTED:
        space.algebra.validate()
