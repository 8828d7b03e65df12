"""Acceptance suite: every criterion checks exact integer intervals
(tolerance zero) and prints one pass/fail line."""

import json
from pathlib import Path

from secatm.domains import GF, Q, Z
from secatm.algebra import Subspace, make_algebra
from secatm.cuplength import CupLengthQuery, capped_cuplength
from secatm.engine import Bundle, compute_tables
from secatm.goldens import all_cases, evaluate_case, run_suite
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
from secatm.tables import INF

from reference import brute_force_cuplength, cup_kernel, positive_part


def _report(number, label, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def _golden(name):
    case = next(c for c in all_cases() if c.name == name)
    mismatches, tables = evaluate_case(case)
    assert mismatches == [], mismatches
    return tables


def test_criterion_01_projective_cat_tables():
    _report(1, "cat of real projective spaces", lambda: _golden("projective_cat"))


def test_criterion_02_sphere_product_cat():
    _report(2, "cat of products of spheres", lambda: _golden("sphere_product_cat"))


def test_criterion_03_complex_projective_tc():
    def check():
        tables = _golden("complex_projective_tc")
        for n in (1, 2, 3):
            t = tables[("tc", f"cp{n}")]
            assert t.interval(1).as_pair() == (0, 0)
            for m in range(2, t.max_m + 1):
                assert t.interval(m).as_pair() == (2 * n, 2 * n)
            assert t.interval(INF).as_pair() == (2 * n, 2 * n)
    _report(3, "tc of complex projective spaces", check)


def test_criterion_04_sphere_product_tc():
    def check():
        tables = _golden("sphere_product_tc")
        # stabilization at k + l(k): every entry from the top sphere
        # dimension onwards agrees with the classical column
        t = tables[("tc", "s24")]
        for m in range(4, t.max_m + 1):
            assert t.interval(m).as_pair() == (4, 4)
        t = tables[("tc", "s13")]
        for m in range(3, t.max_m + 1):
            assert t.interval(m).as_pair() == (2, 2)
    _report(4, "tc of products of spheres", check)


def test_criterion_05_projective_tc():
    def check():
        tables = _golden("projective_tc")
        for n, v in ((2, 3), (3, 3), (4, 7), (7, 7)):
            t = tables[("tc", f"rp{n}")]
            for m in list(range(1, t.max_m + 1)) + [INF]:
                assert t.interval(m).as_pair() == (v, v)
    _report(5, "tc of real projective spaces", check)


def test_criterion_06_moore_tables():
    def check():
        tables = _golden("moore")
        t = tables[("cat", "m23q")]
        for m in range(1, t.max_m + 1):
            assert t.interval(m).as_pair() == ((0, 0) if m < 3 else (1, 1))
        assert t.interval(INF).as_pair() == (1, 1)
        # interval honesty in the odd rank-one case: [1, 2] is the answer
        t = tables[("tc", "m13q")]
        for m in range(1, t.max_m + 1):
            assert t.interval(m).as_pair() == ((0, 0) if m < 3 else (1, 2))
        assert t.interval(INF).as_pair() == (1, 2)
        t = tables[("tc", "m24q")]
        for m in range(1, t.max_m + 1):
            assert t.interval(m).as_pair() == ((0, 0) if m < 4 else (2, 2))
        assert t.interval(INF).as_pair() == (2, 2)
    _report(6, "cat and tc of Moore-type models", check)


def test_criterion_07_surfaces():
    def check():
        tables = _golden("surfaces")
        values = {
            "sigma1": ("cat", 2, "tc", 2),
            "sigma2": ("cat", 2, "tc", 4),
            "sigma3": ("cat", 2, "tc", 4),
            "n2": ("cat", 2, "tc", 4),
            "n3": ("cat", 2, "tc", 4),
        }
        for name, (_, catv, _, tcv) in values.items():
            for inv, v in (("cat", catv), ("tc", tcv)):
                t = tables[(inv, name)]
                for m in t.index:
                    assert t.interval(m).as_pair() == (v, v), (name, inv, m)
    _report(7, "cat and tc of closed surfaces", check)


def test_criterion_08_covering_secat():
    def check():
        tables = _golden("covering_secat")
        for n in range(2, 7):
            t = tables[("secat", f"cover{n}")]
            for m in t.index:
                assert t.interval(m).as_pair() == (n, n), (n, m)
    _report(8, "secat of double covers", check)


def test_criterion_09_hopf_secat_certified():
    def check():
        tables = _golden("hopf_secat")
        t = tables[("secat", "hopf")]
        assert t.interval(1).as_pair() == (0, 0)
        assert t.interval(2).as_pair() == (2, 2)
        # the exact value must be internally certified: a cup-length witness
        # u * u on the lower side plus an upper provenance chain
        lo_events = [e for e in t.events[2] if e.side == "lo" and e.certificate]
        assert lo_events, "no certified lower bound at m=2"
        cert = lo_events[0].certificate
        assert cert.verify(cap=2)
        assert [f.degree for f in cert.factors] == [2, 2]
        assert cert.product.degree == 4
        hi_rules = {e.rule for e in t.events[2] if e.side == "hi"}
        assert hi_rules & {"secat_le_cat_base", "pi_vanishing_eq", "classical_cap"}
    _report(9, "secat of the circle bundle over cp2, certified", check)


def test_criterion_10_unitary_group_distance():
    def check():
        tables = _golden("unitary_distance")
        for inv in ("dm", "hdm"):
            t = tables[(inv, "idinv")]
            for m in range(1, t.max_m + 1):
                assert t.interval(m).as_pair() == ((1, 1) if m < 3 else (2, 2))
            assert t.interval(INF).as_pair() == (2, 2)
    _report(10, "distances for the unitary group pair", check)


def _oracle_corpus():
    """(label, algebra, generator subspace) triples small enough to brute
    force: F2 models of total dimension <= 12, and sequence-mode models over
    Q and Z."""
    corpus = []
    for n in range(2, 9):
        alg = real_projective(n).algebra
        corpus.append((f"rp{n}+", alg, positive_part(alg)))
    for h in (2, 3):
        alg = nonorientable_surface(h).algebra
        corpus.append((f"n{h}+", alg, positive_part(alg)))
    alg = moore(3, 4, GF(2)).algebra
    corpus.append(("moore34f2+", alg, positive_part(alg)))
    ck = cup_kernel(real_projective(2).algebra)
    corpus.append(("rp2-zdiv", ck.algebra, ck))
    corpus.append(
        ("rp2x2+", ck.algebra, positive_part(ck.algebra))
    )

    # sequence-mode corpora over Q
    s24 = product([sphere(2, Q), sphere(4, Q)]).algebra
    corpus.append(("s2xs4+", s24, positive_part(s24)))
    ck = cup_kernel(s24)
    corpus.append(("s2xs4-zdiv", ck.algebra, ck))
    cp2 = complex_projective(2).algebra
    corpus.append(("cp2+", cp2, positive_part(cp2)))
    ck = cup_kernel(cp2)
    corpus.append(("cp2-zdiv", ck.algebra, ck))
    m23 = moore(2, 3, Q).algebra
    corpus.append(("moore23q+", m23, positive_part(m23)))
    ck = cup_kernel(m23)
    corpus.append(("moore23q-zdiv", ck.algebra, ck))
    torus = orientable_surface(1).algebra
    corpus.append(("torus+", torus, positive_part(torus)))
    ck = cup_kernel(torus)
    corpus.append(("torus-zdiv", ck.algebra, ck))

    # integer lattices
    ext = make_algebra(
        Z,
        {0: ["1"], 1: ["x1"], 3: ["x3"], 4: ["x1x3"]},
        [("x1", "x3", {"x1x3": 1})],
    )
    corpus.append(("exterior-z+", ext, positive_part(ext)))
    doubled = Subspace.from_elements(
        ext,
        [ext.basis_element("x1").scale(2), ext.basis_element("x3").scale(2)],
    )
    corpus.append(("exterior-z-doubled", ext, doubled))
    return corpus


def test_criterion_11_oracle_equivalence():
    def check():
        for label, alg, gens in _oracle_corpus():
            if gens.is_zero():
                continue
            for cap in range(1, alg.top_degree + 1):
                q = CupLengthQuery(alg, gens, cap)
                fast, cert = capped_cuplength(q)
                slow = brute_force_cuplength(q, max_len=alg.top_degree)
                assert fast == slow, (label, cap, fast, slow)
                if fast:
                    assert cert.verify(cap=cap), (label, cap)
    _report(11, "exhaustive oracle agrees with the span computation", check)


def test_criterion_12_property_suite():
    def check():
        all_tables = []
        for case in all_cases():
            mismatches, tables = evaluate_case(case)
            assert mismatches == []
            all_tables.extend(tables.values())
        # interval validity and monotonicity in m, classical column dominating
        for t in all_tables:
            los = [t.lo(m) for m in range(1, t.max_m + 1)]
            assert los == sorted(los), t.key()
            his = [t.hi(m) for m in range(1, t.max_m + 1)]
            finite_his = [h for h in his if h is not None]
            assert finite_his == sorted(finite_his), t.key()
            for m in range(1, t.max_m + 1):
                lo, hi = t.interval(m).as_pair()
                assert hi is None or lo <= hi
                assert t.lo(INF) >= lo
                if t.hi(INF) is not None:
                    assert hi is not None and hi <= t.hi(INF)
        # exact entries are justified on both sides: any positive lower
        # bound and any finite upper bound trace to recorded events
        for t in all_tables:
            for m in t.index:
                entry = t.interval(m)
                if entry.is_exact():
                    if entry.lo > 0:
                        assert any(e.side == "lo" for e in t.events[m]), (t.key(), m)
                    assert any(e.side == "hi" for e in t.events[m]), (t.key(), m)
        # every cup-length lower bound carries a verifiable witness
        checked = 0
        for t in all_tables:
            for m in t.index:
                for e in t.events[m]:
                    if e.rule == "cup_length" and e.side == "lo":
                        cap = None if m == INF else m
                        assert e.certificate is not None
                        assert e.certificate.verify(cap=cap)
                        assert len(e.certificate.factors) == e.value
                        checked += 1
        assert checked > 0
        # determinism: two full runs serialize identically
        first = json.dumps(run_suite(), sort_keys=True)
        second = json.dumps(run_suite(), sort_keys=True)
        assert first == second
        # point spaces have zero tables in every column
        bundle = Bundle()
        bundle.add_space("pt", point(Q))
        tables = compute_tables(bundle, max_m=4)
        for inv in ("cat", "tc"):
            for m in tables[(inv, "pt")].index:
                assert tables[(inv, "pt")].interval(m).as_pair() == (0, 0)
    _report(12, "interval validity, witnesses, determinism, point spaces", check)


def test_readme_library_example_runs():
    # the python block under README's "## Library" heading, run as it stands
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
