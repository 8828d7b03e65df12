"""Intervals do not depend on the basis a model is written in.

Each positive degree is rebased by P = D·L·π, with D a diagonal of signs,
L unit lower triangular with entries in [-2, 2] and π a permutation.  P is unimodular, so the
rebased algebra is isomorphic to the original over Q, F_p and Z alike, and
every invariant, hence every interval, must come out the same.  A morphism
between rebased algebras is conjugated by the two bases: the induced maps
f* and g* of a map pair and the p* of a fibration, so the dm, hdm and secat
sources, which echelon rows that are not unit rows, are covered too.
Nothing here is pinned: the original run is the only reference.
"""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from secatm import goldens
from secatm.algebra import GradedAlgebra, RingMorphism
from secatm.cli import main
from secatm.domains import GF, Q, Z
from secatm.engine import Bundle, compute_tables
from secatm.spaces import FibrationModel, MapPairModel, SpaceModel, product, sphere

from test_algebra import cup_algebras
from test_engine import _perfbench_cases

M = 40


def change_of_basis(n: int, rng) -> tuple:
    """``(P, P^-1)`` as integer matrices, P = D·L·π with D a diagonal of
    signs: row i of P is the new class i over the old basis."""
    perm = rng.sample(range(n), n)
    L = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    signs = [rng.choice((1, -1)) for _ in range(n)]
    inv = []  # L^-1, unit lower triangular, by forward substitution
    for i in range(n):
        inv.append([int(i == c) - sum(L[i][j] * inv[j][c] for j in range(i))
                    for c in range(n)])
    P = [[0] * n for _ in range(n)]
    Pinv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            P[i][perm[j]] = signs[i] * L[i][j]
            Pinv[perm[i]][j] = inv[i][j] * signs[j]
    return P, Pinv


def times(dom, v, rows) -> tuple:
    """The row vector ``v`` times the matrix ``rows``."""
    w = [dom.zero()] * (len(rows[0]) if rows else 0)
    for c, row in zip(v, rows):
        if c:
            for i, t in enumerate(row):
                w[i] = dom.add(w[i], dom.mul(c, t))
    return tuple(w)


def rebase(A: GradedAlgebra, rng) -> tuple:
    """``(B, P, P^-1)``: A over a new basis P_d of each positive degree d,
    its products read back through P_d^-1, with both matrices by degree over
    A's coefficients; the names stay, their classes change."""
    dom = A.coeff
    unit = ((dom.one(),),)
    P, Pinv = {0: unit}, {0: unit}
    for d in range(1, A.top_degree + 1):
        new, back = change_of_basis(A.dim(d), rng)
        P[d] = [tuple(map(dom.from_int, row)) for row in new]
        Pinv[d] = [tuple(map(dom.from_int, row)) for row in back]
    table = {}
    for d1 in range(1, A.top_degree):
        for d2 in range(1, A.top_degree - d1 + 1):
            for a, x in enumerate(P[d1]):
                for b, y in enumerate(P[d2]):
                    w = times(dom, A.mul_vectors(d1, x, d2, y), Pinv[d1 + d2])
                    if any(w):
                        table[(d1, a, d2, b)] = w
    return GradedAlgebra(dom, A.names, table), P, Pinv


def conjugate(phi: RingMorphism, source: tuple, target: tuple) -> RingMorphism:
    """``phi`` between the rebased algebras of ``rebase``: new class i of
    degree d goes to P_d[i]·phi_d, written over the target's new basis."""
    (B, P, _), (C, _, Pinv) = source, target
    dom = B.coeff
    return RingMorphism(B, C, {
        d: [times(dom, times(dom, row, rows), Pinv.get(d, ())) for row in P[d]]
        for d, rows in phi.mats.items()})


def intervals(bundle) -> dict:
    """Every interval of every table of a run at M, with and without
    literature."""
    out = {}
    for lit in (True, False):
        for (inv, name), table in compute_tables(bundle, max_m=M, use_literature=lit).items():
            out[(lit, inv, name)] = [table.interval(m).as_pair() for m in table.index]
    return out


def one_space(models: dict) -> Bundle:
    bundle = Bundle()
    for name, model in models.items():
        bundle.add_space(name, model)
    return bundle


@settings(max_examples=40, deadline=None)
@given(cup_algebras(), st.integers(0, 2**32 - 1))
def test_cup_algebra_intervals_do_not_depend_on_the_basis(A, seed):
    B = rebase(A, random.Random(seed))[0]
    assert intervals(one_space({"x": SpaceModel(B)})) == intervals(one_space({"x": SpaceModel(A)}))


def _catalogue_spaces() -> dict:
    """Name -> model of every catalogue item that is one space."""
    cases = _perfbench_cases()
    out = {}
    for category in cases.rules_wide_catalogue().values():
        for make in category.values():
            made = make()
            if len(made) == 1 and made[0][0] == "space":
                out[made[0][1]] = made[0][2]
    return out


@pytest.fixture(scope="module")
def catalogue():
    """The one-space catalogue items and their intervals."""
    models = _catalogue_spaces()
    return models, intervals(one_space(models))


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_catalogue_intervals_do_not_depend_on_the_basis(catalogue, seed):
    models, expected = catalogue
    rng = random.Random(seed)
    rebased = {name: replace(model, algebra=rebase(model.algebra, rng)[0])
               for name, model in models.items()}
    # the tables really change: a rebased surface has more nonzero products
    assert any(len(rebased[name].algebra.table) != len(model.algebra.table)
               for name, model in models.items())
    assert intervals(one_space(rebased)) == expected


def _rebased_space(model: SpaceModel, rng, done: dict) -> tuple:
    """``(model rebased, the rebase of its algebra)``, made once per model
    in ``done``, so that every pair and fibration on a space sees one
    basis."""
    if id(model) not in done:
        new = rebase(model.algebra, rng)
        done[id(model)] = replace(model, algebra=new[0]), new
    return done[id(model)]


def _rebased_pair(pair: MapPairModel, rng, done: dict) -> MapPairModel:
    """The pair with its domain and codomain rebased, f* and g* conjugated."""
    cod, Y = _rebased_space(pair.codomain, rng, done)
    dom, X = _rebased_space(pair.domain, rng, done)
    return replace(pair, domain=dom, codomain=cod,
                   fstar=conjugate(pair.fstar, Y, X), gstar=conjugate(pair.gstar, Y, X))


def _rebased_fibration(fib: FibrationModel, rng, done: dict) -> FibrationModel:
    """The fibration with its base and total space rebased, p* conjugated."""
    base, B = _rebased_space(fib.base, rng, done)
    total = rebase(fib.total_algebra, rng)
    return replace(fib, base=base, total_algebra=total[0], pstar=conjugate(fib.pstar, B, total))


def _bundle(pairs: dict, fibrations: dict) -> Bundle:
    """The pairs and fibrations under their names; their spaces get tables
    under derived names."""
    bundle = Bundle()
    for name, pair in pairs.items():
        bundle.add_map_pair(name, pair)
    for name, fib in fibrations.items():
        bundle.add_fibration(name, fib)
    return bundle


def _goldens() -> tuple:
    """The U(2) identity-inversion pair and the double covers of RP^2..RP^6.
    Each of their degrees holds one class, so a change of basis there flips
    signs only; the sphere products below mix classes."""
    return ({"idinv": goldens.unitary_group_pair()[3]},
            {f"cover{n}": goldens.covering_fibration(n)[1] for n in range(2, 7)})


@pytest.fixture(scope="module")
def golden_intervals():
    return intervals(_bundle(*_goldens()))


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_golden_pair_and_fibrations_do_not_depend_on_the_basis(golden_intervals, seed):
    rng, done = random.Random(seed), {}
    pairs, fibrations = _goldens()
    pairs = {name: _rebased_pair(pair, rng, done) for name, pair in pairs.items()}
    fibrations = {name: _rebased_fibration(fib, rng, done) for name, fib in fibrations.items()}
    assert intervals(_bundle(pairs, fibrations)) == golden_intervals


def sphere_product_models(coeff, ns, flipped, kept) -> tuple:
    """X = S^n1 x ... x S^nk with the identity against the map negating the
    spheres in ``flipped``, and the inclusion of the spheres in ``kept`` as
    the fibre over the base point of the others, as (pair, fibration).  In
    the product basis f*, g* and p* are diagonal or zero; rebased, they are
    not."""
    X = product([sphere(n, coeff) for n in ns])
    total = product([sphere(ns[i], coeff) for i in kept]).algebra
    A = X.algebra
    flip, restrict = {}, {}
    for d in range(1, A.top_degree + 1):
        for name in A.names[d]:
            subset = {i for i, part in enumerate(name.split("(x)")) if part == "a"}
            flip[name] = {name: (-1) ** len(subset & flipped)}
            if subset <= kept:  # to the class that is ``a`` on the same spheres
                restrict[name] = {"(x)".join("a" if i in subset else "1"
                                             for i in sorted(kept)): 1}
    pair = MapPairModel(X, X, RingMorphism.identity(A), RingMorphism.from_images(A, A, flip))
    fib = FibrationModel(X, total, RingMorphism.from_images(A, total, restrict))
    return pair, fib


@st.composite
def sphere_products(draw) -> tuple:
    coeff = draw(st.sampled_from([Q, GF(3), Z]))
    ns = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    factors = st.sets(st.sampled_from(range(len(ns))), min_size=1, max_size=len(ns) - 1)
    return coeff, ns, draw(factors), draw(factors)


@settings(max_examples=12, deadline=None)
@given(sphere_products(), st.integers(0, 2**32 - 1))
def test_sphere_product_pairs_and_fibrations_do_not_depend_on_the_basis(spec, seed):
    pair, fib = sphere_product_models(*spec)
    rng, done = random.Random(seed), {}
    rebased = _bundle({"flip": _rebased_pair(pair, rng, done)},
                      {"restrict": _rebased_fibration(fib, rng, done)})
    assert intervals(rebased) == intervals(_bundle({"flip": pair}, {"restrict": fib}))


def _algebra_json(A: GradedAlgebra) -> dict:
    """An explicit algebra: every basis name, and each product of two basis
    classes once, its mirror left to the loader."""
    names = A.names
    return {
        "basis": {str(d): list(names[d]) for d in range(A.top_degree + 1) if names[d]},
        "products": [
            [names[d1][i1], names[d2][i2],
             {names[d1 + d2][k]: A.coeff.scalar_to_json(c) for k, c in enumerate(row) if c}]
            for (d1, i1, d2, i2), row in A.table.items() if (d1, i1) <= (d2, i2)],
    }


def _images_json(phi: RingMorphism) -> dict:
    source, target = phi.source.names, phi.target.names
    return {"kind": "images", "images": {
        source[d][i]: {target[d][k]: phi.source.coeff.scalar_to_json(c)
                       for k, c in enumerate(row) if c}
        for d in range(1, len(source)) for i, row in enumerate(phi.mats[d])}}


def _model_doc(pair: MapPairModel, fib: FibrationModel) -> dict:
    X = pair.domain
    return {
        "schema": "secatm-model/1",
        "coeff": X.algebra.coeff.label,
        "spaces": {"x": {"algebra": _algebra_json(X.algebra), "hdim": X.hdim}},
        "fibrations": {"restrict": {
            "base": "x", "total": {"algebra": _algebra_json(fib.total_algebra)},
            "pstar": _images_json(fib.pstar)}},
        "map_pairs": {"flip": {"domain": "x", "codomain": "x", "fstar": {"kind": "identity"},
                               "gstar": _images_json(pair.gstar)}},
        "queries": [{"target": "x", "invariant": "tc"},
                    {"target": "flip", "invariant": "dm"},
                    {"target": "flip", "invariant": "hdm"},
                    {"target": "restrict", "invariant": "secat"}],
    }


def test_a_rebased_model_file_gives_the_same_intervals(tmp_path, capsys):
    pair, fib = sphere_product_models(Q, [1, 2, 2], {0, 1}, {1, 2})
    rng, done = random.Random(1), {}
    docs = {"as_is": _model_doc(pair, fib),
            "rebased": _model_doc(_rebased_pair(pair, rng, done),
                                  _rebased_fibration(fib, rng, done))}
    # the files really differ: X over the new basis has more nonzero products
    assert len(docs["as_is"]["spaces"]["x"]["algebra"]["products"]) < \
        len(docs["rebased"]["spaces"]["x"]["algebra"]["products"])
    runs = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["bounds", str(path), "--json"]) == 0
        runs.append([(t["invariant"], t["target"], [(e["m"], e["lo"], e["hi"]) for e in t["entries"]])
                     for t in json.loads(capsys.readouterr().out)])
    assert runs[0] == runs[1] and len(runs[0]) == 4
