from dataclasses import replace

import pytest

from secatm.domains import Q, Z
from secatm.algebra import RingMorphism, UnsupportedCoefficients
from secatm.cuplength import CupLengthQuery, capped_cuplength
from secatm.engine import (
    Bundle,
    _Engine,
    _lower_source,
    cat_lower,
    compute_tables,
    default_max_m,
    dm_lower,
    hdm_lower,
    secat_lower,
    tc_lower,
)
from secatm.goldens import (
    all_cases,
    covering_fibration,
    hopf_fibration,
    unitary_group_pair,
)
from secatm.spaces import (
    FibrationModel,
    MapPairModel,
    complex_projective,
    constant_map_pullback,
    orientable_surface,
    point,
    product,
    real_projective,
    sphere,
)
from secatm.tables import INF, InconsistentModel, table_to_json


def entry(tables, inv, name, m):
    return tables[(inv, name)].interval(m).as_pair()


# ---------------------------------------------------------------------------
# standalone lower-bound operations
# ---------------------------------------------------------------------------

class TestLowerBounds:
    def test_cat_lower_projective(self):
        assert cat_lower(real_projective(5), 1) == 5

    def test_cat_lower_sphere_below_degree(self):
        assert cat_lower(sphere(3, Q), 2) == 0

    def test_cat_lower_sphere_product(self):
        p = product([sphere(2, Q), sphere(4, Q)])
        assert cat_lower(p, 2) == 1
        assert cat_lower(p, 4) == 2

    def test_tc_lower_complex_projective(self):
        assert tc_lower(complex_projective(3), 2) == 6

    def test_tc_lower_sphere_below_degree(self):
        assert tc_lower(sphere(3, Q), 2) == 0

    def test_tc_lower_projective_four(self):
        assert tc_lower(real_projective(4), 1) == 7

    def test_tc_lower_needs_a_field(self):
        with pytest.raises(UnsupportedCoefficients):
            tc_lower(sphere(2, Z), 1)

    def test_secat_lower_covering(self):
        _, fib = covering_fibration(5)
        assert secat_lower(fib, 1) == 5

    def test_secat_lower_injective_pullback(self):
        base = sphere(2, Q)
        fib = FibrationModel(
            base=base,
            total_algebra=base.algebra,
            pstar=RingMorphism.identity(base.algebra),
        )
        assert secat_lower(fib, 2) == 0

    def test_secat_lower_hopf(self):
        _, fib = hopf_fibration()
        assert secat_lower(fib, 1) == 0
        assert secat_lower(fib, 2) == 2

    def test_dm_lower_unitary_group(self):
        _, _, _, pair = unitary_group_pair()
        assert hdm_lower(pair, 1) == 1
        assert hdm_lower(pair, 3) == 2
        assert dm_lower(pair, 1) == 1
        assert dm_lower(pair, 3) == 2

    def test_dm_lower_equal_maps(self):
        s = sphere(2, Q)
        ident = RingMorphism.identity(s.algebra)
        pair = MapPairModel(
            domain=s, codomain=s, fstar=ident, gstar=ident, homotopic=True
        )
        assert dm_lower(pair, 2) == 0
        bundle = Bundle()
        bundle.add_space("s2", s)
        bundle.add_map_pair("p", pair)
        tables = compute_tables(bundle)
        for m in tables[("dm", "p")].index:
            assert entry(tables, "dm", "p", m) == (0, 0)

    def test_projection_pair_recovers_tc(self):
        # the two projections of a square: their distance bound reproduces
        # the zero-divisor bound, and the full table matches tc of the factor
        s2 = sphere(2, Q)
        square = product([s2, s2])
        pr1 = RingMorphism.from_images(
            s2.algebra, square.algebra, {"a": {"a(x)1": 1}}
        )
        pr2 = RingMorphism.from_images(
            s2.algebra, square.algebra, {"a": {"1(x)a": 1}}
        )
        pair = MapPairModel(domain=square, codomain=s2, fstar=pr1, gstar=pr2)
        for cap in (2, 3, 4):
            assert dm_lower(pair, cap) == tc_lower(s2, cap)
        bundle = Bundle()
        bundle.add_space("s2", s2)
        bundle.add_space("s2xs2", square)
        bundle.add_map_pair("projections", pair)
        tables = compute_tables(bundle)
        for m in tables[("dm", "projections")].index:
            assert (
                entry(tables, "dm", "projections", m)
                == entry(tables, "tc", "s2", m)
            )

    def test_honest_interval_where_literature_is_silent(self):
        # nothing pins tc of five-dimensional real projective space: the
        # engine must report the zero-divisor lower bound against the doubling
        # upper bound, not a made-up value
        bundle = Bundle()
        bundle.add_space("rp5", real_projective(5))
        tables = compute_tables(bundle)
        lo, hi = entry(tables, "tc", "rp5", 1)
        assert lo >= 5 and hi == 10
        assert lo <= hi

    def test_dm_lower_uses_pushed_zero_divisors(self):
        # identity against the constant map on the 2-sphere: the pushed
        # zero-divisor bound certifies 1 where the pullback difference also
        # gives 1
        s = sphere(2, Q)
        pair = MapPairModel(
            domain=s,
            codomain=s,
            fstar=RingMorphism.identity(s.algebra),
            gstar=constant_map_pullback(s, s),
        )
        assert dm_lower(pair, 2) == 1


# ---------------------------------------------------------------------------
# table computation: worked spot cases
# ---------------------------------------------------------------------------

class TestComputeTables:
    def test_projective_cat_collapses(self):
        bundle = Bundle()
        bundle.add_space("rp4", real_projective(4))
        tables = compute_tables(bundle)
        for m in tables[("cat", "rp4")].index:
            assert entry(tables, "cat", "rp4", m) == (4, 4)

    def test_complex_projective_tc(self):
        bundle = Bundle()
        bundle.add_space("cp3", complex_projective(3))
        tables = compute_tables(bundle)
        assert entry(tables, "tc", "cp3", 1) == (0, 0)
        for m in list(range(2, 13)) + [INF]:
            assert entry(tables, "tc", "cp3", m) == (6, 6)

    def test_sphere_product_tc_steps(self):
        bundle = Bundle()
        s2, s4 = sphere(2, Q), sphere(4, Q)
        bundle.add_space("s2", s2)
        bundle.add_space("s4", s4)
        bundle.add_space("p", product([s2, s4]))
        tables = compute_tables(bundle)
        got = [entry(tables, "tc", "p", m) for m in (1, 2, 3, 4, 5)]
        assert got == [(0, 0), (2, 2), (2, 2), (4, 4), (4, 4)]

    def test_point_space_is_zero(self):
        bundle = Bundle()
        bundle.add_space("pt", point(Q))
        tables = compute_tables(bundle, max_m=3)
        for m in tables[("cat", "pt")].index:
            assert entry(tables, "cat", "pt", m) == (0, 0)
            assert entry(tables, "tc", "pt", m) == (0, 0)

    def test_inconsistent_literature_fails_loudly(self):
        bundle = Bundle()
        bundle.add_space("cp2", replace(complex_projective(2), known_tc=3))
        with pytest.raises(InconsistentModel) as err:
            compute_tables(bundle)
        assert err.value.invariant == "tc" and err.value.target == "cp2"

    def test_no_literature_mode_widens_honestly(self):
        bundle = Bundle()
        bundle.add_space("rp4", real_projective(4))
        tables = compute_tables(bundle, use_literature=False)
        got = entry(tables, "cat", "rp4", 1)
        assert got[0] == 4 and got[1] is None  # lower bound survives, cap gone

    def test_determinism(self):
        def run():
            bundle = Bundle()
            bundle.add_space("cp2", complex_projective(2))
            tables = compute_tables(bundle)
            from secatm.tables import table_to_json
            import json
            return json.dumps(
                [table_to_json(t) for t in tables.values()], sort_keys=True
            )

        assert run() == run()

    def test_default_max_m(self):
        bundle = Bundle()
        bundle.add_space("s3", sphere(3, Q))
        assert default_max_m(bundle) == 6
        bundle2 = Bundle()
        bundle2.add_space(
            "mystery", replace(sphere(3, Q), hdim=None)
        )
        assert default_max_m(bundle2) is None
        with pytest.raises(ValueError):
            compute_tables(bundle2)

    @pytest.mark.parametrize("max_m", [0, -3])
    def test_max_m_below_one_is_rejected(self, max_m):
        bundle = Bundle()
        bundle.add_space("s3", sphere(3, Q))
        with pytest.raises(ValueError, match="max_m must be >= 1"):
            compute_tables(bundle, max_m=max_m)

    def test_factor_models_are_auto_registered(self):
        # a product space added without its factors still gets the
        # subadditivity cap: factors are registered under derived names
        bundle = Bundle()
        bundle.add_space("p", product([sphere(2, Q), sphere(4, Q)]))
        tables = compute_tables(bundle)
        assert entry(tables, "cat", "p", 2) == (1, 1)
        assert ("cat", "p.factor1") in tables

    def test_bundle_is_left_unchanged(self):
        # derived models are named inside the engine, not in the caller's
        # bundle
        bundle = Bundle()
        bundle.add_space("p", product([sphere(2, Q), sphere(4, Q)]))
        before = [dict(d) for d in (bundle.spaces, bundle.fibrations, bundle.map_pairs)]
        compute_tables(bundle)
        assert [bundle.spaces, bundle.fibrations, bundle.map_pairs] == before

    def test_derived_models_set_the_default_range(self):
        # the base of a lone fibration is registered as a space, whose tc
        # table needs twice its dimension
        _, fib = covering_fibration(3)
        bundle = Bundle()
        bundle.add_fibration("cover", fib)
        tables = compute_tables(bundle)
        assert ("tc", "cover.base") in tables
        assert tables[("secat", "cover")].max_m == 2 * fib.base.hdim

    def test_requested_targets_limit_lower_bounds(self):
        bundle = Bundle()
        bundle.add_space("rp8", real_projective(8))
        tables = compute_tables(bundle, targets=[("cat", "rp8")])
        assert tables[("cat", "rp8")].lower_bounds_applied
        assert not tables[("tc", "rp8")].lower_bounds_applied
        for m in tables[("cat", "rp8")].index:
            assert entry(tables, "cat", "rp8", m) == (8, 8)

    def test_closure_follows_rules_between_tables(self):
        # lower bounds reach cat[s3] from secat (secat <= cat of the base),
        # from tc (H-space equality) and from dm (distance of the identity to
        # a constant map equals cat), and reach dm from hdm
        s3 = replace(sphere(3, Q), h_space_with_division=True)
        pt = point(Q)
        bundle = Bundle()
        bundle.add_space("s3", s3)
        bundle.add_fibration("path", FibrationModel(
            base=s3, total_algebra=pt.algebra,
            pstar=constant_map_pullback(s3, pt), total_contractible=True,
        ))
        bundle.add_map_pair("idconst", MapPairModel(
            domain=s3, codomain=s3, fstar=RingMorphism.identity(s3.algebra),
            gstar=constant_map_pullback(s3, s3),
        ))
        tables = compute_tables(bundle, targets=[("cat", "s3")])
        applied = {key for key, t in tables.items() if t.lower_bounds_applied}
        assert applied == {("cat", "s3"), ("tc", "s3"), ("secat", "path"),
                           ("dm", "idconst"), ("hdm", "idconst")}


# ---------------------------------------------------------------------------
# individual rules
# ---------------------------------------------------------------------------

class TestRules:
    def test_conn_vanishing_and_double_cat(self):
        # tc(S^2) at m=1 is forced to zero through connectivity and the
        # doubling inequality, with no zero-divisor input
        bundle = Bundle()
        bundle.add_space("s2", sphere(2, Q))
        tables = compute_tables(bundle, targets=[("tc", "s2")])
        assert entry(tables, "tc", "s2", 1) == (0, 0)
        rules = {e.rule for e in tables[("tc", "s2")].events[1]}
        assert "tc_le_2cat" in rules

    def test_dimension_recovery_closes_without_literature(self):
        # cat(S^3) with no literature: conn kills m <= 2, and the dimension
        # recovery bound turns that into a classical upper bound of 1
        bundle = Bundle()
        bundle.add_space("s3", replace(sphere(3, Q), known_cat=None, known_tc=None))
        tables = compute_tables(bundle, use_literature=False)
        assert entry(tables, "cat", "s3", INF) == (1, 1)
        assert entry(tables, "cat", "s3", 3) == (1, 1)
        assert entry(tables, "cat", "s3", 2) == (0, 0)

    def test_skeletal_cap_closes_the_classical_column(self):
        # distance capped at 2 by the dimension-connectivity rule, which only
        # reaches finite m; with max_m = hdim - 1 the skeletal cap is the one
        # rule that carries that 2 to the classical column (plain dimension
        # recovery would only give 3)
        sigma = replace(
            orientable_surface(3),
            known_cat=None, known_tc=None, pi_vanish_from=None,
        )
        circle = sphere(1, Q)
        f = RingMorphism.from_images(
            circle.algebra, sigma.algebra, {"a": {"a1": 1}}
        )
        pair = MapPairModel(
            domain=sigma, codomain=circle, fstar=f,
            gstar=constant_map_pullback(circle, sigma),
        )
        bundle = Bundle()
        bundle.add_space("sigma3", sigma)
        bundle.add_space("s1", replace(circle, known_cat=None, known_tc=None))
        bundle.add_map_pair("fc", pair)
        tables = compute_tables(bundle, max_m=1, use_literature=False)
        assert entry(tables, "dm", "fc", INF) == (1, 2)
        rules = {e.rule for e in tables[("dm", "fc")].events[INF]}
        assert "skeletal_cap" in rules

    def test_stabilization_rule(self):
        bundle = Bundle()
        bundle.add_space("s3", sphere(3, Q))
        tables = compute_tables(bundle)
        t = tables[("cat", "s3")]
        assert t.interval(3).as_pair() == t.interval(INF).as_pair() == (1, 1)

    def test_pi_vanishing_equalities(self):
        # an aspherical space with no literature: every finite entry equals
        # the classical one even though nothing is pinned
        bundle = Bundle()
        bundle.add_space(
            "sigma2",
            replace(orientable_surface(2), known_cat=None, known_tc=None),
        )
        tables = compute_tables(bundle, use_literature=False)
        t = tables[("cat", "sigma2")]
        pairs = {t.interval(m).as_pair() for m in t.index}
        assert pairs == {(2, None)}  # equal everywhere, honestly unbounded

    def test_product_subadditivity_for_secat(self):
        from secatm.spaces import product_fibration

        bundle = Bundle()
        _, f2 = covering_fibration(2)
        _, f3 = covering_fibration(3)
        bundle.add_fibration("c2", f2)
        bundle.add_fibration("c3", f3)
        bundle.add_fibration("c2x3", product_fibration(f2, f3))
        tables = compute_tables(bundle)
        for m in (1, 2, 3, 4, 5, INF):
            assert entry(tables, "secat", "c2x3", m) == (5, 5)

    def test_dim_conn_cap(self):
        # maps from a genus-3 surface to the circle, no literature: only the
        # dimension-connectivity bound caps the distance
        sigma = replace(
            orientable_surface(3),
            known_cat=None, known_tc=None, pi_vanish_from=None,
        )
        circle = sphere(1, Q)
        f = RingMorphism.from_images(
            circle.algebra, sigma.algebra, {"a": {"a1": 1}}
        )
        pair = MapPairModel(
            domain=sigma, codomain=circle, fstar=f,
            gstar=constant_map_pullback(circle, sigma),
        )
        bundle = Bundle()
        bundle.add_space("sigma3", sigma)
        bundle.add_space("s1", replace(circle, known_cat=None, known_tc=None))
        bundle.add_map_pair("fc", pair)
        tables = compute_tables(bundle, use_literature=False)
        assert entry(tables, "dm", "fc", 1) == (1, 2)
        rules = {e.rule for e in tables[("dm", "fc")].events[1]}
        assert "dim_conn_cap" in rules

    def test_triangle_rule(self):
        t2 = orientable_surface(1)
        ident = RingMorphism.identity(t2.algebra)
        leg1 = MapPairModel(domain=t2, codomain=t2, fstar=ident, gstar=ident,
                            homotopic=True)
        leg2 = MapPairModel(domain=t2, codomain=t2, fstar=ident, gstar=ident,
                            homotopic=True)
        pair = MapPairModel(domain=t2, codomain=t2, fstar=ident, gstar=ident,
                            triangle=(leg1, leg2))
        bundle = Bundle()
        bundle.add_space("t2", t2)
        bundle.add_map_pair("p", pair)
        tables = compute_tables(bundle)
        for m in tables[("dm", "p")].index:
            assert entry(tables, "dm", "p", m) == (0, 0)
        rules = {e.rule for e in tables[("dm", "p")].events[1]}
        assert "triangle" in rules

    def test_hspace_collapse(self):
        bundle = Bundle()
        bundle.add_space(
            "t2", replace(orientable_surface(1), h_space_with_division=True)
        )
        tables = compute_tables(bundle)
        for m in tables[("tc", "t2")].index:
            assert entry(tables, "tc", "t2", m) == entry(tables, "cat", "t2", m)

    def test_constant_vs_identity_equals_cat(self):
        t2 = orientable_surface(1)
        pair = MapPairModel(
            domain=t2, codomain=t2,
            fstar=RingMorphism.identity(t2.algebra),
            gstar=constant_map_pullback(t2, t2),
        )
        bundle = Bundle()
        bundle.add_space("t2", t2)
        bundle.add_map_pair("cid", pair)
        tables = compute_tables(bundle)
        for m in tables[("dm", "cid")].index:
            assert entry(tables, "dm", "cid", m) == entry(tables, "cat", "t2", m)
            assert entry(tables, "dm", "cid", m) == (2, 2)

    def test_constant_vs_general_map_is_capped(self):
        # constant against the degree-style self-map of the 2-sphere: capped
        # by cat of both sides
        s2 = sphere(2, Q)
        doubled = RingMorphism.from_images(
            s2.algebra, s2.algebra, {"a": {"a": 2}}
        )
        pair = MapPairModel(
            domain=s2, codomain=s2, fstar=doubled,
            gstar=constant_map_pullback(s2, s2),
        )
        bundle = Bundle()
        bundle.add_space("s2", s2)
        bundle.add_map_pair("dc", pair)
        tables = compute_tables(bundle)
        assert entry(tables, "dm", "dc", 2) == (1, 1)
        assert entry(tables, "dm", "dc", 1) == (0, 0)

    def test_torsion_moore_space_via_explicit_algebra(self):
        # a Moore space with torsion has no constructor: model it by its
        # mod-2 cohomology (one class each in degrees n and n+1, trivial
        # products) plus metadata; the tables still collapse to 0 / 1
        from secatm.algebra import make_algebra
        from secatm.domains import GF
        from secatm.spaces import SpaceModel

        n = 3
        alg = make_algebra(GF(2), {0: ["1"], n: ["e"], n + 1: ["f"]}, [])
        model = SpaceModel(alg, conn=n - 1, hdim=n + 1, known_cat=1)
        bundle = Bundle()
        bundle.add_space("m", model)
        tables = compute_tables(bundle)
        for m in tables[("cat", "m")].finite_ms():
            expected = (0, 0) if m < n else (1, 1)
            assert entry(tables, "cat", "m", m) == expected

    def test_monotone_tables_everywhere(self):
        bundle = Bundle()
        bundle.add_space("cp2", complex_projective(2))
        bundle.add_space("rp3", real_projective(3))
        tables = compute_tables(bundle)
        for t in tables.values():
            los = [t.lo(m) for m in t.finite_ms()] + [t.lo(INF)]
            assert los == sorted(los)


# ---------------------------------------------------------------------------
# targeted runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
def test_targeted_tables_equal_full_run(case):
    # the lower-bound closure of a targeted run is derived from the rule
    # table, so requested tables come out exactly as in a full run; asking
    # for one table at a time also exercises every edge of the closure
    full_bundle, targets, _ = case.build()
    full = compute_tables(full_bundle)
    for request in [targets] + [[key] for key in full]:
        bundle, _, _ = case.build()
        targeted = compute_tables(bundle, targets=request)
        for key in request:
            assert table_to_json(targeted[key]) == table_to_json(full[key]), key


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
def test_bisected_cap_values_equal_direct_dp(case):
    # _capped_values bisects over the caps and fills constant ranges from
    # their lower end; every cap must still read what a direct DP gives
    bundle, _, _ = case.build()
    engine = _Engine(bundle, None, True, None)
    engine.run()
    for inv, name in engine.tables:
        source = _lower_source(inv, engine.model(inv, name), engine._zero_divisors)
        if source is None or source[1].is_zero():
            continue
        algebra, generators, _ = source
        degmax = max(generators.degrees())
        values = engine._capped_values(algebra, generators, degmax)
        assert set(values) == {min(m, degmax) for m in range(1, engine.max_m + 1)} | {degmax}
        for cap, (length, cert) in values.items():
            assert length == capped_cuplength(CupLengthQuery(algebra, generators, cap))[0]
            assert length == 0 or cert.verify(cap=cap)
