import ast
import functools
import gc
import importlib.util
import json
import weakref
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from secatm.domains import GF, Q, Z
from secatm.algebra import (
    AlgebraError,
    GradedAlgebra,
    RingMorphism,
    Subspace,
    TensorProduct,
    _kunneth_layout,
    kernel,
    kunneth_product,
    make_algebra,
    tensor_morphism,
    tensor_square,
)
from secatm.cuplength import CupLengthQuery, capped_cuplength
from secatm.engine import (
    Bundle,
    _Engine,
    _lower_source,
    compute_tables,
    default_max_m,
)
from secatm.linalg import vunit
from secatm.modelfile import load_model_file
from secatm.goldens import (
    all_cases,
    covering_fibration,
    hopf_fibration,
    unitary_group_pair,
)
from secatm.spaces import (
    FibrationModel,
    MapPairModel,
    SpaceModel,
    complex_projective,
    constant_map_pullback,
    orientable_surface,
    point,
    product,
    real_projective,
    sphere,
)
from secatm.tables import INF, BoundTable, InconsistentModel, table_to_json

from reference import (
    SelfRecordEngine,
    UnsupportedCoefficients,
    cat_lower,
    cup_kernel,
    dm_lower,
    hdm_lower,
    image_difference,
    multiplication_morphism,
    positive_part,
    pushforward_span,
    secat_lower,
    tc_lower,
    zero_divisor,
)
from test_algebra import cup_algebras, kunneth_factors, plain_copy


def entry(tables, inv, name, m):
    return tables[(inv, name)].interval(m).as_pair()


def fired(tables, inv, name, m, rule):
    """(side, value) of each provenance event of ``rule`` at entry m."""
    return [(e.side, e.value) for e in tables[(inv, name)].events[m] if e.rule == rule]


def golden_tables(name, use_literature=True):
    """A full run on the bundle of the golden case ``name``."""
    case = next(case for case in all_cases() if case.name == name)
    return compute_tables(case.build()[0], use_literature=use_literature)


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

    def test_dm_and_hdm_of_a_pair_share_one_cup_length_run(self, monkeypatch):
        # dm reads hdm's source, so a run that bounds both reads the source
        # once and runs the DP once for the two tables and all their caps;
        # on the identity against a constant map of S^2 the dm table
        # stabilizes at the domain's hdim, which is the generators' top
        # degree, and hdm never does
        s2 = sphere(2, Q)
        square = product([s2, s2])
        pr1 = RingMorphism.from_images(s2.algebra, square.algebra, {"a": {"a(x)1": 1}})
        pr2 = RingMorphism.from_images(s2.algebra, square.algebra, {"a": {"1(x)a": 1}})
        pairs = {
            "projections": MapPairModel(domain=square, codomain=s2, fstar=pr1, gstar=pr2),
            "identity_vs_constant": MapPairModel(
                domain=s2, codomain=s2, fstar=RingMorphism.identity(s2.algebra),
                gstar=constant_map_pullback(s2, s2)),
        }
        queries, sources = [], []

        def counted(query, *args, **kwargs):
            queries.append(query)
            return capped_cuplength(query, *args, **kwargs)

        def read(inv, model):
            source = _lower_source(inv, model)
            if any(model is pair for pair in pairs.values()):
                sources.append(source[1])
            return source

        monkeypatch.setattr("secatm.engine.capped_cuplength", counted)
        monkeypatch.setattr("secatm.engine._lower_source", read)
        for name, pair in pairs.items():
            queries.clear()
            sources.clear()
            bundle = Bundle()
            bundle.add_space("s2", s2)
            bundle.add_space("s2xs2", square)
            bundle.add_map_pair(name, pair)
            tables = compute_tables(bundle, targets=[("dm", name)])
            assert tables[("hdm", name)].lower_bounds_applied
            assert len(sources) == 1, name
            # one DP per source, the pair's included, for every cap
            ids = [id(q.generators) for q in queries]
            assert len(set(ids)) == len(ids), name
            assert sum(q.generators is sources[0] for q in queries) == 1, name
            certificates = [{id(ev.certificate) for ev in tables[(inv, name)].log[INF]
                             if ev.rule == "cup_length"} for inv in ("dm", "hdm")]
            assert certificates[0] == certificates[1] != set(), name

    def test_each_algebra_ranks_its_generators_once(self, monkeypatch):
        # validating the projections reads the generators of S^2, and so do
        # cat and tc of S^2 and dm and hdm of the projections into it; those
        # of S^2 x S^2 come from them: each algebra ranks its generators on
        # first read and keeps them, so neither run ranks S^2's again and a
        # second run ranks nothing
        ranked = _count_first_reads(monkeypatch, "generators")
        s2 = sphere(2, Q)
        square = product([s2, s2])
        pr1 = RingMorphism.from_images(s2.algebra, square.algebra, {"a": {"a(x)1": 1}})
        pr2 = RingMorphism.from_images(s2.algebra, square.algebra, {"a": {"1(x)a": 1}})
        assert ranked == [s2.algebra]
        bundle = Bundle()
        bundle.add_space("s2", s2)
        bundle.add_space("s2xs2", square)
        bundle.add_map_pair("projections", MapPairModel(
            domain=square, codomain=s2, fstar=pr1, gstar=pr2))
        for _ in range(2):
            tables = compute_tables(bundle)
            for key in [("cat", "s2"), ("tc", "s2"), ("hdm", "projections"),
                        ("dm", "projections"), ("cat", "s2xs2"), ("tc", "s2xs2")]:
                assert tables[key].lower_bounds_applied, key
            assert sorted(map(id, ranked)) == sorted(map(id, [s2.algebra, square.algebra]))

    def test_a_run_converts_each_algebras_constants_once(self, monkeypatch):
        # cat of S^2 x S^3 multiplies through the spheres' constants and tc
        # through the product's, built from them; the spheres' own cat runs
        # after the product's and reads the constants the spheres kept, so
        # each algebra converts its constants once, and a second run on the
        # same models converts nothing
        s2, s3 = sphere(2, Q), sphere(3, Q)
        both = product([s2, s3])
        bundle = Bundle()
        for name, space in [("s2", s2), ("s2xs3", both), ("s3", s3)]:
            bundle.add_space(name, space)
        converted = _count_first_reads(monkeypatch, "constants")
        for _ in range(2):
            tables = compute_tables(bundle)
            for inv in ("cat", "tc"):
                for name in ("s2", "s2xs3", "s3"):
                    assert tables[(inv, name)].lower_bounds_applied, (inv, name)
            assert sorted(map(id, converted)) == sorted(
                map(id, [s2.algebra, s3.algebra, both.algebra]))

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
        # identity against the constant map on the 2-sphere: the pushed zero
        # divisors have the cup-length of the difference of pullbacks, the
        # fundamental class, one factor
        s = sphere(2, Q)
        pair = MapPairModel(
            domain=s,
            codomain=s,
            fstar=RingMorphism.identity(s.algebra),
            gstar=constant_map_pullback(s, s),
        )
        assert dm_lower(pair, 2) == 1


def _count_first_reads(monkeypatch, attr):
    """Wrap the cached ``attr`` of ``GradedAlgebra`` and of
    ``TensorProduct`` so that each first read, the one that builds it,
    appends its algebra to the list returned."""
    built = []
    for cls in (GradedAlgebra, TensorProduct):
        build = vars(cls)[attr].func

        def counted(A, build=build):
            built.append(A)
            return build(A)

        wrapped = functools.cached_property(counted)
        wrapped.__set_name__(cls, attr)
        monkeypatch.setattr(cls, attr, wrapped)
    return built


# Each algebra keeps its generators and integer constants from its first run
# on.  A second run on the same models must give the tables of the first,
# and both those of a run on freshly built models, certificates included.
# The models of one case are dropped before the next case is built, so data
# kept by id() rather than on the algebra would be served to a later algebra
# allocated at a freed address.

@pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])
def test_warm_runs_equal_a_run_on_fresh_models(lit):
    builds = [(case.name, lambda case=case: case.build()[0]) for case in all_cases()]
    builds += [(path.name, lambda path=path: load_model_file(str(path)).bundle)
               for path in sorted((PERFBENCH.parent / "models").glob("*.json"))]

    def dumps(bundle) -> str:
        tables = compute_tables(bundle, use_literature=lit)
        return json.dumps([(key, table_to_json(t)) for key, t in tables.items()],
                          sort_keys=True)

    for label, build in builds:
        bundle = build()
        cold, warm = dumps(bundle), dumps(bundle)
        del bundle
        assert cold == warm == dumps(build()), label


def generator_names(A):
    return [A.names[d][i] for d, i in A.generators]


class TestGenerators:
    def test_real_projective_is_generated_by_x(self):
        assert generator_names(real_projective(6).algebra) == ["x"]

    def test_torus_is_generated_by_its_degree_one_classes(self):
        A = product([sphere(1, Q)] * 3).algebra
        assert A.generators == ((1, 0), (1, 1), (1, 2))

    def test_complex_projective_is_generated_by_u(self):
        assert generator_names(complex_projective(3).algebra) == ["u"]

    def test_decomposable_class_is_left_out(self):
        # x y = u: u is decomposable, and v complements it in degree 2
        A = make_algebra(Q, {1: ["x", "y"], 2: ["u", "v"]}, [("x", "y", {"u": 1})])
        assert generator_names(A) == ["x", "y", "v"]

    def test_partly_decomposable_degree_keeps_one_class_in_basis_order(self):
        # x y = u + v: one class of degree 2 complements the decomposables,
        # the first in basis order that does
        A = make_algebra(Q, {1: ["x", "y"], 2: ["u", "v"]}, [("x", "y", {"u": 1, "v": 1})])
        assert generator_names(A) == ["x", "y", "u"]

    def test_integer_ranks_are_taken_over_the_rationals(self):
        # x^2 = 2y: over Z, y is no product, but over Q it is x^2 / 2, and the
        # cup-length DP decides vanishing over Q
        A = make_algebra(Z, {2: ["x"], 4: ["y"]}, [("x", "x", {"y": 2})])
        assert generator_names(A) == ["x"]
        assert cat_lower(SpaceModel(A, conn=1), None) == 2

    def test_prime_field_ranks_are_taken_mod_p(self):
        # x^2 = 2y vanishes over F2, where y is a generator
        A = make_algebra(GF(2), {2: ["x"], 4: ["y"]}, [("x", "x", {"y": 2})])
        assert generator_names(A) == ["x", "y"]


# The generators of a Kunneth product come from its factors' through
# TensorProduct.slot, without its table; differential check against the
# ranking of a plain copy that holds the table.

def assert_product_generators_match_the_table(P):
    ranked = P.generators
    assert "table" not in vars(P)
    assert ranked == plain_copy(P).generators


@settings(max_examples=60, deadline=None)
@given(kunneth_factors())
def test_product_generators_match_the_table_ranking(factors):
    assert_product_generators_match_the_table(kunneth_product(*factors)[0])


def test_product_generators_match_the_table_ranking_on_rules_wide_products():
    makers = _perfbench_cases().rules_wide_catalogue()["product"]
    assert len(makers) > 40
    for make in makers.values():
        (_, _, space), = make()
        assert_product_generators_match_the_table(space.algebra)


@pytest.mark.parametrize("inv", ["cat", "tc"])
@pytest.mark.parametrize("factors", [
    lambda: [sphere(1, Q), sphere(2, Q)],
    lambda: [orientable_surface(2), complex_projective(2)],
    lambda: [real_projective(3), sphere(2, GF(2))],
], ids=["s1xs2", "sigma2xcp2", "rp3xs2"])
def test_dp_on_a_product_of_plain_factors_builds_no_product_table(inv, factors):
    space = product(factors())
    bundle = Bundle()
    bundle.add_space("p", space)
    table = compute_tables(bundle, targets=[(inv, "p")])[(inv, "p")]
    assert table.lower_bounds_applied
    assert any(ev.rule == "cup_length" for events in table.events.values() for ev in events)
    assert "table" not in vars(space.algebra)


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

    def test_default_max_m_reads_every_kind_of_table(self):
        # the largest dimension parameter: a fibration's base hdim, a pair's
        # domain hdim (hdm has none), and at least 1
        pt = point(Q)
        bundle = Bundle()
        bundle.add_space("pt", pt)
        assert default_max_m(bundle) == 1
        s5 = sphere(5, Q)
        bundle.add_fibration("f", FibrationModel(
            base=s5, total_algebra=pt.algebra, pstar=constant_map_pullback(s5, pt)))
        assert default_max_m(bundle) == 5
        s1, s7 = sphere(1, Q), sphere(7, Q)
        const = constant_map_pullback(s1, s7)
        bundle.add_map_pair("c", MapPairModel(domain=s7, codomain=s1, fstar=const,
                                              gstar=const))
        assert default_max_m(bundle) == 7

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

    def test_skeletal_cap_is_the_only_rule_that_closes_its_witness(self):
        # two equal maps from the genus-3 surface to S^1 x S^1 x S^2, at the
        # default range with literature: dimension recovery leaves dm[inf]
        # at most 3 and the skeletal cap makes it 2, so deleting the cap
        # would widen an interval
        make = _rule_witnesses().skeletal_cap
        tables = compute_tables(make())
        assert entry(tables, "dm", "fg", INF) == (0, 2)
        assert fired(tables, "dm", "fg", INF, "skeletal_cap") == [("hi", 2)]
        assert fired(tables, "dm", "fg", INF, "dim_recovery") == [("hi", 3)]

        class WithoutTheCap(SelfRecordEngine):
            def _rules(self):
                return [r for r in super()._rules() if r.rule != "skeletal_cap"]
        tables = WithoutTheCap(make(), None, True, None).run()
        assert entry(tables, "dm", "fg", INF) == (0, 3)

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

    # one test per dm rule: the rule's id shows in the provenance of an entry
    # with the value its inequality gives

    def test_homotopic_zero(self):
        # maps declared homotopic are at distance 0 at every m
        s2 = sphere(2, Q)
        ident = RingMorphism.identity(s2.algebra)
        bundle = Bundle()
        bundle.add_space("s2", s2)
        bundle.add_map_pair("h", MapPairModel(domain=s2, codomain=s2, fstar=ident,
                                              gstar=ident, homotopic=True))
        tables = compute_tables(bundle)
        for m in tables[("dm", "h")].stored:
            assert entry(tables, "dm", "h", m) == (0, 0)
            assert ("hi", 0) in fired(tables, "dm", "h", m, "homotopic_zero")

    def test_a_model_fact_crossing_the_literature_value_is_raised(self):
        # homotopic maps at a recorded distance 2: the declared homotopy
        # and the literature value cross on the classical entry
        s2 = sphere(2, Q)
        ident = RingMorphism.identity(s2.algebra)
        bundle = Bundle()
        bundle.add_space("s2", s2)
        bundle.add_map_pair("p", MapPairModel(domain=s2, codomain=s2, fstar=ident,
                                              gstar=ident, homotopic=True, known_d=2))
        with pytest.raises(InconsistentModel) as err:
            compute_tables(bundle)
        e = err.value
        assert (e.invariant, e.target, e.m) == ("dm", "p", INF)
        assert [ev.rule for ev in e.lo_events] == ["literature"]
        assert [ev.rule for ev in e.hi_events] == ["homotopic_zero"]

    def test_dm_le_tc_codomain(self):
        # the projections T^3 -> S^1 onto two factors: dm <= tc(S^1) = 1,
        # below cat(T^3) = 3 (Macias-Virgos and Mosquera-Lois 2022)
        s1 = sphere(1, Q)
        t3 = product([s1, s1, s1])
        pr1, pr2 = (RingMorphism.from_images(s1.algebra, t3.algebra, {"a": {name: 1}})
                    for name in ("a(x)1(x)1", "1(x)a(x)1"))
        bundle = Bundle()
        bundle.add_space("s1", s1)
        bundle.add_space("t3", t3)
        bundle.add_map_pair("pr", MapPairModel(domain=t3, codomain=s1, fstar=pr1,
                                               gstar=pr2))
        tables = compute_tables(bundle)
        assert entry(tables, "cat", "t3", INF) == (3, 3)
        for m in tables[("dm", "pr")].stored:
            assert entry(tables, "dm", "pr", m) == (1, 1)
            tc = tables[("tc", "s1")].interval(m).hi
            assert ("hi", tc) in fired(tables, "dm", "pr", m, "dm_le_tc_codomain")

    def test_const_vs_identity(self):
        # identity against a constant map on Sp(2), whose rational cohomology
        # is exterior on classes of degree 3 and 7: the cup-length gives 2,
        # and the distance equals cat(Sp(2)) = 3 (Schweitzer 1965)
        from secatm.algebra import make_algebra
        from secatm.spaces import SpaceModel

        alg = make_algebra(Q, {0: ["1"], 3: ["x3"], 7: ["x7"], 10: ["x3x7"]},
                           [("x3", "x7", {"x3x7": 1})])
        sp2 = SpaceModel(alg, conn=2, hdim=10, known_cat=3)
        bundle = Bundle()
        bundle.add_space("sp2", sp2)
        bundle.add_map_pair("cid", MapPairModel(
            domain=sp2, codomain=sp2, fstar=RingMorphism.identity(alg),
            gstar=constant_map_pullback(sp2, sp2)))
        tables = compute_tables(bundle)
        assert dm_lower(bundle.map_pairs["cid"], None) == 2
        assert entry(tables, "dm", "cid", INF) == (3, 3)
        assert ("lo", 3) in fired(tables, "dm", "cid", INF, "const_vs_identity")

    def test_const_pair_cap(self):
        # a constant map against the first projection S^2 x S^2 -> S^2:
        # dm <= cat(S^2) = 1, below tc(S^2) = 2 and cat(S^2 x S^2) = 2
        s2 = sphere(2, Q)
        square = product([s2, s2])
        pr1 = RingMorphism.from_images(s2.algebra, square.algebra, {"a": {"a(x)1": 1}})
        bundle = Bundle()
        bundle.add_space("s2", s2)
        bundle.add_space("s2xs2", square)
        bundle.add_map_pair("cp", MapPairModel(
            domain=square, codomain=s2, fstar=constant_map_pullback(s2, square),
            gstar=pr1))
        tables = compute_tables(bundle)
        for m in (2, INF):
            assert entry(tables, "dm", "cp", m) == (1, 1)
            assert entry(tables, "cat", "s2xs2", m)[1] == 2
            assert ("hi", 1) in fired(tables, "dm", "cp", m, "const_pair_cap")

    def test_tc_le_cat_square(self):
        # a 2-sphere whose only recorded value is cat(S^2 x S^2) = 2, on its
        # declared square: tc <= 2, met by the zero-divisor cup-length 2
        square = product([sphere(2, Q), sphere(2, Q)])
        square.known_cat = 2
        s2 = SpaceModel(sphere(2, Q).algebra, conn=1, square=square)
        bundle = Bundle()
        bundle.add_space("s2", s2)
        tables = compute_tables(bundle, max_m=3)
        assert entry(tables, "tc", "s2", INF) == (2, 2)
        assert ("hi", 2) in fired(tables, "tc", "s2", INF, "tc_le_cat_square")

    def test_secat_eq_cat_contractible(self):
        # the path fibration over Sp(2), whose total space is contractible:
        # secat = cat(Sp(2)) = 3 (Schweitzer 1965), above the cup-length 2
        alg = make_algebra(Q, {0: ["1"], 3: ["x3"], 7: ["x7"], 10: ["x3x7"]},
                           [("x3", "x7", {"x3x7": 1})])
        sp2 = SpaceModel(alg, conn=2, hdim=10, known_cat=3)
        total = point(Q).algebra
        bundle = Bundle()
        bundle.add_space("sp2", sp2)
        bundle.add_fibration("path", FibrationModel(
            base=sp2, total_algebra=total,
            pstar=RingMorphism.augmentation(alg, total), total_contractible=True))
        tables = compute_tables(bundle)
        assert secat_lower(bundle.fibrations["path"], None) == 2
        assert entry(tables, "secat", "path", INF) == (3, 3)
        assert ("lo", 3) in fired(tables, "secat", "path", INF,
                                  "secat_eq_cat_contractible")

    # the golden bundles as fixtures: one test per rule the goldens fire,
    # each checking the rule's id and value in an entry's provenance

    def test_monotone_m(self):
        # without literature, tc(U(2)) over Z has no cup-length bound of its
        # own: cat <= tc raises its m = 1 entry to 1, and the m = 2 entry is
        # at least the m = 1 entry
        tables = golden_tables("unitary_distance", use_literature=False)
        assert entry(tables, "tc", "u2", 2) == (1, None)
        assert fired(tables, "tc", "u2", 2, "monotone_m") == [("lo", 1)]
        # with literature, cat(RP^2) at m = 1 is capped by the classical value
        tables = golden_tables("projective_cat")
        assert entry(tables, "cat", "rp2", 1) == (2, 2)
        assert ("hi", 2) in fired(tables, "cat", "rp2", 1, "classical_cap")

    def test_dim_recovery(self):
        # without literature, classical cat(S^2) is capped by cat at
        # m = hdim = 2
        tables = golden_tables("sphere_product_cat", use_literature=False)
        assert entry(tables, "cat", "s2", 2) == entry(tables, "cat", "s2", INF) == (1, 1)
        assert ("hi", 1) in fired(tables, "cat", "s2", INF, "dim_recovery")

    def test_product_subadd(self):
        # cat(S^2 x S^4) at m = 4 <= cat(S^2) + cat(S^4) = 1 + 1
        tables = golden_tables("sphere_product_cat")
        assert entry(tables, "cat", "s2", 4) == entry(tables, "cat", "s4", 4) == (1, 1)
        assert entry(tables, "cat", "s24", 4) == (2, 2)
        assert ("hi", 2) in fired(tables, "cat", "s24", 4, "product_subadd")

    def test_dm_le_cat_domain(self):
        # the identity against inversion on U(2): dm <= cat(U(2))
        tables = golden_tables("unitary_distance")
        for m, value in ((1, 1), (3, 2), (INF, 2)):
            assert entry(tables, "cat", "u2", m) == entry(tables, "dm", "idinv", m) == (value, value)
            assert ("hi", value) in fired(tables, "dm", "idinv", m, "dm_le_cat_domain")

    def test_hdm_le_dm(self):
        tables = golden_tables("unitary_distance")
        for m, value in ((1, 1), (3, 2), (INF, 2)):
            assert entry(tables, "hdm", "idinv", m) == entry(tables, "dm", "idinv", m) == (value, value)
            assert ("hi", value) in fired(tables, "hdm", "idinv", m, "hdm_le_dm")

    def test_cat_le_tc(self):
        # without literature, tc(U(2)) has no upper bound, and its lower
        # bound at m = 3 is that of cat(U(2)), 2
        tables = golden_tables("unitary_distance", use_literature=False)
        assert entry(tables, "cat", "u2", 3)[0] == 2
        assert entry(tables, "tc", "u2", 3) == (2, None)
        assert ("lo", 2) in fired(tables, "tc", "u2", 3, "cat_le_tc")

    def test_h_space_eq(self):
        # U(2) is an H-space with division: tc = cat, here at m = 1
        tables = golden_tables("unitary_distance")
        assert entry(tables, "tc", "u2", 1) == entry(tables, "cat", "u2", 1) == (1, 1)
        assert ("hi", 1) in fired(tables, "tc", "u2", 1, "h_space_eq")

    def test_conn_vanishing(self):
        # S^4 is 3-connected: cat vanishes at m <= 3
        tables = golden_tables("sphere_product_cat")
        for m in (1, 2, 3):
            assert entry(tables, "cat", "s4", m) == (0, 0)
            assert ("hi", 0) in fired(tables, "cat", "s4", m, "conn_vanishing")

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
        for m in range(1, tables[("cat", "m")].max_m + 1):
            expected = (0, 0) if m < n else (1, 1)
            assert entry(tables, "cat", "m", m) == expected

    def test_monotone_tables_everywhere(self):
        bundle = Bundle()
        bundle.add_space("cp2", complex_projective(2))
        bundle.add_space("rp3", real_projective(3))
        tables = compute_tables(bundle)
        for t in tables.values():
            los = [t.lo(m) for m in range(1, t.max_m + 1)] + [t.lo(INF)]
            assert los == sorted(los)


# ---------------------------------------------------------------------------
# targeted runs
# ---------------------------------------------------------------------------

def _model_file_case(path):
    def build():
        loaded = load_model_file(path)
        return loaded.bundle, [(q.invariant, q.target) for q in loaded.queries]
    return pytest.param(build, id=path.name)


@pytest.mark.parametrize("build", [
    pytest.param(lambda case=case: case.build()[:2], id=case.name) for case in all_cases()
] + [_model_file_case(path) for path in
     sorted((Path(__file__).resolve().parent.parent / "models").glob("*.json"))])
def test_targeted_tables_equal_full_run(build):
    # the lower-bound closure of a targeted run is derived from the rule
    # table, so requested tables come out exactly as in a full run; asking
    # for one table at a time also exercises every edge of the closure.
    # Without literature, tc over Z (u2's S^1) gets its lower bound only
    # from cat, so a closure that runs the wrong way shows there
    for lit in (True, False):
        full_bundle, targets = build()
        full = compute_tables(full_bundle, use_literature=lit)
        for request in [targets] + [[key] for key in full]:
            bundle, _ = build()
            targeted = compute_tables(bundle, use_literature=lit, targets=request)
            for key in request:
                assert table_to_json(targeted[key]) == table_to_json(full[key]), (lit, key)


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
def test_bisected_cap_values_equal_direct_dp(case):
    # _capped_values reads every cap off one DP over the generators in
    # degree order (the name dates from a bisection of the caps); each cap
    # must read what a DP at that cap alone gives, and caps of equal length
    # share the certificate of the lowest
    bundle, _, _ = case.build()
    engine = _Engine(bundle, None, True, None)
    engine.run()
    for inv, name in engine.tables:
        source = _lower_source(inv, engine.model(inv, name))
        if source is None or source[1].is_zero():
            continue
        algebra, generators, _ = source
        degmax = max(generators.degrees())
        values = engine._capped_values(algebra, generators, degmax)
        assert set(values) == {min(m, degmax) for m in range(1, engine.max_m + 1)} | {degmax}
        previous = (0, None)
        for cap in sorted(values):
            length, cert = values[cap]
            assert length == capped_cuplength(CupLengthQuery(algebra, generators, cap))[0]
            assert length == 0 or cert.verify(cap=cap)
            assert (cert is previous[1]) == (length == previous[0]), cap
            previous = values[cap]


# ---------------------------------------------------------------------------
# tables stored only below the m where they stabilize
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", PERFBENCH / "cases.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rule_witnesses():
    path = PERFBENCH.parent / "scripts" / "rule_witnesses.py"
    spec = importlib.util.spec_from_file_location("rule_witnesses", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rule_id_narrows_on_the_rule_witnesses():
    witnesses = _rule_witnesses()
    # the benchmark counts the narrowings of each rule id; its list is the
    # same set
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    benchmark_ids, = [ast.literal_eval(node.value) for node in tree.body if
                      isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "RULE_IDS"]
    assert sorted(witnesses.RULE_IDS) == sorted(benchmark_ids)
    seen = set()
    for name, ids, tables in witnesses.runs():
        where = witnesses.fired(tables)
        assert all(where.get(rule) for rule in ids), (name, sorted(where))
        seen.update(where)
    assert seen == set(witnesses.RULE_IDS)


def _decode_runs(runs) -> list:
    """The reference's run-length rows [[m_from, m_to, lo, hi], ...] as
    [[m, lo, hi], ...]."""
    rows = []
    for a, b, lo, hi in runs:
        rows.extend([["inf", lo, hi]] if a == "inf" else
                    [[m, lo, hi] for m in range(a, b + 1)])
    return rows


def test_rules_wide_catalogue_matches_the_full_row_reference():
    # every catalogue item, with and without literature, at M=256, row for
    # row against the reference written by the engine that stored all rows
    with open(PERFBENCH / "reference" / "rules-wide.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    cases = _perfbench_cases()
    rows = 0
    for category in cases.rules_wide_catalogue().values():
        for item, build in sorted(category.items()):
            for lit, label in ((True, "literature"), (False, "no-literature")):
                bundle = Bundle()
                cases.add_items(bundle, {item: build}, [item])
                tables = compute_tables(bundle, max_m=ref["max_m"], use_literature=lit)
                assert sorted(f"{inv}|{name}" for inv, name in tables) == ref["items"][item]
                for (inv, name), t in tables.items():
                    got = [[m, t.lo(m), t.hi(m)] for m in t.index]
                    assert got == _decode_runs(ref["tables"][label][f"{inv}|{name}"]), \
                        (item, label, inv, name)
                    rows += len(got)
    assert rows > 200000


def test_tail_rows_read_the_classical_entry():
    bundle = Bundle()
    bundle.add_space("rp4", real_projective(4))
    bundle.add_space("s3", sphere(3, Q))
    tables = compute_tables(bundle, max_m=12)
    cat, tc = tables[("cat", "rp4")], tables[("tc", "rp4")]
    assert cat.stored == [1, 2, 3, INF] and tc.stored == [*range(1, 8), INF]
    for t in tables.values():
        for m in range(t.stable_from, 13):
            assert t.interval(m) is t.interval(INF)
            events = t.events[m]
            assert {e.rule for e in events} <= {"stabilize"}
            assert [e.value for e in events if e.side == "lo"] == (
                [t.lo(INF)] if t.lo(INF) else [])
            assert [e.value for e in events if e.side == "hi"] == (
                [t.hi(INF)] if t.hi(INF) is not None else [])


def test_rule_records_visit_stored_rows_only():
    bundle = Bundle()
    for name, space in [("rp6", real_projective(6)), ("cp2", complex_projective(2))]:
        bundle.add_space(name, space)
    _, fib = covering_fibration(3)
    bundle.add_fibration("cover3", fib)
    engine = _Engine(bundle, 200, True, None)
    engine.run()
    records = [r for r in engine.rules if not isinstance(r, BoundTable)]
    steps = [r for r in engine.rules if isinstance(r, BoundTable)]
    assert records and "stabilize" not in {r.rule for r in records}
    # the facts on one table are its step, never a record
    assert steps and all(step.inputs == (step,) for step in steps)
    for rule in records:
        target, sources = rule.target, rule.sources
        assert target not in sources
        assert len(set(rule.pairs)) == len(rule.pairs) <= 2 * max(
            len(t.stored) for t in (target, *sources))
        for m, ns in rule.pairs:
            assert m in target.rows
            assert all(n in s.rows for n, s in zip(ns, sources))


# ---------------------------------------------------------------------------
# dm zero divisors: the cup-length of im(f* - g*)
# ---------------------------------------------------------------------------

def _corpus_map_pairs(workdir):
    """(label, pair) for every map pair of the golden cases, of ``models/``
    and of the cli-models pool, derived pairs included."""
    bundles = [(case.name, case.build()[0]) for case in all_cases()]
    paths = {p.name: str(p) for p in sorted((PERFBENCH.parent / "models").glob("*.json"))}
    paths.update(sorted(_perfbench_cases().write_cli_models(4242, str(workdir)).items()))
    bundles += [(label, load_model_file(path).bundle) for label, path in paths.items()]
    for label, bundle in bundles:
        engine = _Engine(bundle, None, True, None)
        engine._register()
        for name, pair in engine.bundle.map_pairs.items():
            yield f"{label}:{name}", pair


def test_dm_zero_divisors_equal_the_pushed_cup_kernel(tmp_path):
    # the pushed zero divisors, rebuilt from the public API: the codomain's
    # cup kernel in its tensor square, pushed through f* (x) g* into the
    # domain's square and through the domain's cup product; dm reads
    # im(f* - g*) instead, which equals it in cup-length at every cap
    labels = []
    for label, pair in _corpus_map_pairs(tmp_path):
        f, g = pair.fstar, pair.gstar
        Y, X = pair.codomain.algebra, pair.domain.algebra
        TY, TX = tensor_square(Y)[0], tensor_square(X)[0]
        cup_kernel_y = (cup_kernel(Y, TY) if Y.coeff.is_field
                        else kernel(multiplication_morphism(Y, TY)[1]))
        pushed = pushforward_span(
            multiplication_morphism(X, TX)[1],
            pushforward_span(tensor_morphism(f, g, source_tensor=TY, target_tensor=TX),
                             cup_kernel_y))
        algebra, source, _ = _lower_source("dm", pair)
        assert algebra is X and _lower_source("hdm", pair)[1] == source, label
        for cap in [*range(1, X.top_degree + 1), None]:
            assert (capped_cuplength(CupLengthQuery(X, pushed, cap))[0]
                    == capped_cuplength(CupLengthQuery(X, source, cap))[0]), (label, cap)
        labels.append(label)
    assert len(labels) >= 6 and any(label.startswith("m24:") for label in labels)
    assert any(label.startswith("u2.json:") for label in labels)  # Z pairs


# ---------------------------------------------------------------------------
# generator sources: the capped cup-length of the whole ideal at every cap
# ---------------------------------------------------------------------------

def _whole_ideal_source(inv, model):
    """(algebra, span) that ``inv`` read before it read generators: all of
    H^+, the cup kernel, or all of im(f* - g*)."""
    if inv == "cat":
        return model.algebra, positive_part(model.algebra)
    if inv == "tc":
        T, _, _ = tensor_square(model.algebra)
        return T, cup_kernel(model.algebra, T)
    return model.domain.algebra, image_difference(model.fstar, model.gstar)


def assert_generator_source_matches(inv, model, label=""):
    """Equal capped cup-lengths of the generator source and the whole ideal
    at every cap up to the ideal's top degree."""
    old_algebra, old = _whole_ideal_source(inv, model)
    algebra, span, _ = _lower_source(inv, model)
    if old.is_zero():
        assert span.is_zero(), (label, inv)
        return
    caps = range(1, max(old.degrees()) + 1)
    new = capped_cuplength(CupLengthQuery(algebra, span), caps)
    old = capped_cuplength(CupLengthQuery(old_algebra, old), caps)
    for cap in caps:
        assert new[cap][0] == old[cap][0], (label, inv, cap)


def _integral(rows) -> bool:
    return all(c.denominator == 1 for row in rows for c in row)


def _over(A, coeff):
    """``A`` with its structure constants read in ``coeff``, or None when
    they are not all integers or the result is no algebra."""
    if not _integral(A.table.values()):
        return None
    table = {key: tuple(coeff.from_int(int(c)) for c in row) for key, row in A.table.items()}
    try:
        return GradedAlgebra(coeff, A.names, {k: row for k, row in table.items() if any(row)})
    except AlgebraError:
        return None


def _pair_over(pair, coeff, over):
    """``pair`` with its algebras (``over``, by the id of the original) and
    maps read in ``coeff``, or None."""
    X, Y = (over.get(id(s.algebra)) for s in (pair.domain, pair.codomain))
    mats = [phi.mats for phi in (pair.fstar, pair.gstar)]
    if X is None or Y is None or not all(_integral(rows) for m in mats for rows in m.values()):
        return None
    try:
        f, g = (RingMorphism(Y, X, {d: [[coeff.from_int(int(c)) for c in row] for row in rows]
                                    for d, rows in m.items()}) for m in mats)
    except AlgebraError:
        return None
    return MapPairModel(domain=SpaceModel(X), codomain=SpaceModel(Y), fstar=f, gstar=g)


def _generator_corpus():
    """(label, space models, map pairs) of the golden cases, of ``models/``
    and of the tc-ladder rungs, derived models included, each read over Q,
    F2, F3 and Z wherever its constants allow."""
    bundles = [(case.name, case.build()[0]) for case in all_cases()]
    bundles += [(path.name, load_model_file(str(path)).bundle)
                for path in sorted((PERFBENCH.parent / "models").glob("*.json"))]
    for cid, _, build in _perfbench_cases()._tc_ladder_specs():
        bundle = Bundle()
        bundle.add_space(cid, build())
        bundles.append((cid, bundle))
    for label, bundle in bundles:
        engine = _Engine(bundle, None, True, None)
        engine._register()
        spaces = list(engine.bundle.spaces.values())
        pairs = list(engine.bundle.map_pairs.values())
        for coeff in (Q, GF(2), GF(3), Z):
            over = {}
            for s in spaces:
                if id(s.algebra) not in over:
                    over[id(s.algebra)] = _over(s.algebra, coeff)
            yield (f"{label}/{coeff.label}",
                   [SpaceModel(A) for A in over.values() if A is not None],
                   [p for p in (_pair_over(p, coeff, over) for p in pairs) if p is not None])


def test_generator_sources_match_the_whole_ideals_on_the_corpus():
    seen = {"cat": set(), "tc": set(), "hdm": set()}
    for label, spaces, pairs in _generator_corpus():
        coeff = label.rsplit("/", 1)[1]
        for s in spaces:
            for inv in ("cat", "tc") if s.algebra.coeff.is_field else ("cat",):
                assert_generator_source_matches(inv, s, label)
                seen[inv].add(coeff)
        for p in pairs:
            assert_generator_source_matches("hdm", p, label)
            seen["hdm"].add(coeff)
    assert seen["tc"] == {"Q", "F2", "F3"}
    assert seen["cat"] == seen["hdm"] == {"Q", "F2", "F3", "Z"}


@settings(max_examples=60, deadline=None)
@given(cup_algebras())
def test_generator_sources_match_the_whole_ideals(A):
    # cat and tc of the algebra, and hdm of the two projections of its
    # square, whose im(f* - g*) spans a (x) 1 - 1 (x) a over every class;
    # the DP on the whole cup kernel takes seconds past 16 classes, so the
    # square is read up to there (the corpus test holds larger rungs)
    space = SpaceModel(A)
    assert_generator_source_matches("cat", space)
    if A.total_dim > 16:
        return
    if A.coeff.is_field:
        assert_generator_source_matches("tc", space)
    C, left, right = kunneth_product(A, A)
    assert_generator_source_matches("hdm", MapPairModel(
        domain=SpaceModel(C), codomain=space, fstar=left, gstar=right))


# ---------------------------------------------------------------------------
# cat and tc sources: written in canonical form, certificates from the DP
# ---------------------------------------------------------------------------

def _echeloned_source(inv, A):
    """(algebra, span) of the cat or tc source of A, echeloned by
    ``Subspace`` from the unit rows of the generators or from their zero
    divisors a (x) 1 - 1 (x) a."""
    X = A if inv == "cat" else tensor_square(A)[0]
    rows = {}
    for d, i in A.generators:
        rows.setdefault(d, []).append(
            vunit(A.coeff, A.dim(d), i) if inv == "cat" else zero_divisor(X, d, i))
    return X, Subspace(X, rows)


def _source_invariants(A):
    # tc of a large algebra is left to the corpus test, as in
    # test_generator_sources_match_the_whole_ideals
    return ("cat", "tc") if A.coeff.is_field and A.total_dim <= 16 else ("cat",)


def assert_sources_are_the_echeloned_spans(A, label=""):
    for inv in _source_invariants(A):
        X, want = _echeloned_source(inv, A)
        algebra, got, _ = _lower_source(inv, SpaceModel(A))
        assert algebra.dims() == X.dims(), (label, inv)
        assert got.rows == want.rows and list(got.rows) == list(want.rows), (label, inv)
        assert type(got.rows) is dict, (label, inv)
        for d, rows in got.rows.items():
            assert type(rows) is tuple and all(type(r) is tuple for r in rows), (label, inv)
            assert ([type(c) for r in rows for c in r]
                    == [type(c) for r in want.rows[d] for c in r]), (label, inv, d)


def assert_certificates_are_the_checked_elements(A, label=""):
    """At every cap, one-cap and read off the one multi-cap run: each
    certificate's elements are the checked elements of their vectors, its
    factors are spanning rows, and it verifies at its cap."""
    for inv in _source_invariants(A):
        algebra, span, _ = _lower_source(inv, SpaceModel(A))
        caps = range(1, max(span.degrees(), default=0) + 1)
        values = capped_cuplength(CupLengthQuery(algebra, span), caps)
        for cap in caps:
            for length, cert in (capped_cuplength(CupLengthQuery(algebra, span, cap)),
                                 values[cap]):
                if cert is None:
                    assert length == 0
                    continue
                for el in (*cert.factors, cert.product):
                    (d, v), = el.comps.items()
                    checked = algebra.component_element(d, v)
                    assert el == checked and el.algebra is algebra, (label, inv, cap)
                    assert type(el.comps) is dict and type(el.comps[d]) is tuple
                assert all(f.comps[f.degree] in span.rows[f.degree] for f in cert.factors)
                assert len(cert) == length and cert.verify(cap), (label, inv, cap)


def _catalogue_algebras():
    """(label, algebra) of every space of the rules-wide catalogue, derived
    spaces included, each algebra once."""
    from test_fixpoint import _catalogue_bundle  # test_fixpoint imports this module

    engine = _Engine(_catalogue_bundle(), None, True, None)
    engine._register()
    seen = {}
    for name, space in engine.bundle.spaces.items():
        seen.setdefault(id(space.algebra), (name, space.algebra))
    return list(seen.values())


@settings(max_examples=60, deadline=None)
@given(cup_algebras())
def test_cat_and_tc_sources_are_the_echeloned_spans(A):
    assert_sources_are_the_echeloned_spans(A)


def test_cat_and_tc_sources_are_the_echeloned_spans_on_the_catalogue():
    algebras = _catalogue_algebras()
    for label, A in algebras:
        assert_sources_are_the_echeloned_spans(A, label)
    assert {A.coeff.label for _, A in algebras} == {"Q", "F2", "F3", "Z"}


@settings(max_examples=60, deadline=None)
@given(cup_algebras())
def test_dp_certificates_are_the_checked_elements(A):
    assert_certificates_are_the_checked_elements(A)


def test_dp_certificates_are_the_checked_elements_on_the_catalogue():
    for label, A in _catalogue_algebras():
        assert_certificates_are_the_checked_elements(A, label)


# ---------------------------------------------------------------------------
# a run's objects are freed without the cycle collector
# ---------------------------------------------------------------------------

def test_runs_build_the_squares_layout_once(monkeypatch):
    # each run builds a square of its own on the layout kept on rp4
    built, squares = [], []
    monkeypatch.setattr("secatm.algebra._kunneth_layout",
                        lambda *dims: built.append(dims) or _kunneth_layout(*dims))
    monkeypatch.setattr("secatm.engine.tensor_square",
                        lambda A: squares.append(tensor_square(A)) or squares[-1])
    bundle = Bundle()
    bundle.add_space("rp4", real_projective(4))
    for _ in range(2):
        compute_tables(bundle)
    A = bundle.spaces["rp4"].algebra
    (first, _, _), (second, _, _) = squares
    assert built == [(A.dims(), A.dims())] and first is not second
    assert first.kunneth_pairs is second.kunneth_pairs is A.square_layout[1]


def test_tables_are_freed_by_reference_counting():
    bundle = Bundle()
    bundle.add_space("rp4", real_projective(4))
    bundle.add_space("p", product([sphere(1, Q), sphere(2, Q)]))
    gc.disable()
    try:
        tables = compute_tables(bundle)
        cat = weakref.ref(tables[("cat", "rp4")])
        # the cat certificates hold elements of rp4, which outlives the run
        events = [e for es in tables[("cat", "rp4")].events.values() for e in es]
        cert = next(e.certificate for e in events if e.certificate)
        cat_cert, factor = weakref.ref(cert), weakref.ref(cert.factors[0])
        # the tc certificates live in the tensor square of rp4
        events = [e for es in tables[("tc", "rp4")].events.values() for e in es]
        square = weakref.ref(next(e.certificate for e in events if e.certificate)
                             .product.algebra)
        del tables, events, cert
        assert cat() is None and square() is None
        assert cat_cert() is None and factor() is None
    finally:
        gc.enable()


def test_derived_names_are_given_depth_first():
    # a model met again keeps its first name; a clash takes the next ~k
    s2, s4, s1 = sphere(2, Q), sphere(4, Q), sphere(1, Q)
    domain = product([s4, s1])
    bundle = Bundle()
    bundle.add_space("p", product([s2, product([s2, s4])]))
    bundle.add_space("q.domain", sphere(3, Q))
    bundle.add_map_pair("q", MapPairModel(
        domain=domain, codomain=s2, fstar=constant_map_pullback(s2, domain),
        gstar=constant_map_pullback(s2, domain)))
    engine = _Engine(bundle, None, True, None)
    engine._register()
    assert list(engine.bundle.spaces) == [
        "p", "q.domain", "p.factor1", "p.factor2", "p.factor2.factor2",
        "q.domain~2", "q.domain~2.factor2"]
