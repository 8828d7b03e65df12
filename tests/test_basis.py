"""Intervals do not depend on the basis a model is written in.

Each positive degree is rebased by P = L·π, with L unit lower triangular
with entries in [-2, 2] and π a permutation.  P is unimodular, so the
rebased algebra is isomorphic to the original over Q, F_p and Z alike, and
every invariant, hence every cat and tc interval, must come out the same.
Nothing here is pinned: the original run is the only reference.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from secatm.algebra import GradedAlgebra
from secatm.engine import Bundle, compute_tables
from secatm.spaces import SpaceModel

from test_algebra import cup_algebras
from test_engine import _perfbench_cases

M = 40


def change_of_basis(n: int, rng) -> tuple:
    """``(P, P^-1)`` as integer matrices, P = L·π: row i of P is the new
    class i over the old basis."""
    perm = rng.sample(range(n), n)
    L = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    inv = []  # L^-1, unit lower triangular, by forward substitution
    for i in range(n):
        inv.append([int(i == c) - sum(L[i][j] * inv[j][c] for j in range(i))
                    for c in range(n)])
    P = [[0] * n for _ in range(n)]
    Pinv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            P[i][perm[j]] = L[i][j]
            Pinv[perm[i]][j] = inv[i][j]
    return P, Pinv


def rebase(A: GradedAlgebra, rng) -> GradedAlgebra:
    """A over a new basis P_d of each positive degree d, its products read
    back through P_d^-1; the names stay, their classes change."""
    dom = A.coeff
    new, back = {}, {}
    for d in range(1, A.top_degree + 1):
        P, Pinv = change_of_basis(A.dim(d), rng)
        new[d] = [tuple(map(dom.from_int, row)) for row in P]
        back[d] = Pinv
    table = {}
    for d1 in range(1, A.top_degree):
        for d2 in range(1, A.top_degree - d1 + 1):
            for a, x in enumerate(new[d1]):
                for b, y in enumerate(new[d2]):
                    v = A.mul_vectors(d1, x, d2, y)
                    w = [dom.zero()] * len(v)
                    for k, c in enumerate(v):
                        if c:
                            for i, t in enumerate(back[d1 + d2][k]):
                                w[i] = dom.add(w[i], dom.mul(c, dom.from_int(t)))
                    if any(w):
                        table[(d1, a, d2, b)] = tuple(w)
    return GradedAlgebra(dom, A.names, table)


def intervals(bundle) -> dict:
    """Every cat and tc interval of a run at M, with and without
    literature."""
    out = {}
    for lit in (True, False):
        for (inv, name), table in compute_tables(bundle, max_m=M, use_literature=lit).items():
            if inv in ("cat", "tc"):
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
    B = rebase(A, random.Random(seed))
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
    rebased = {name: replace(model, algebra=rebase(model.algebra, rng))
               for name, model in models.items()}
    # the tables really change: a rebased surface has more nonzero products
    assert any(len(rebased[name].algebra.table) != len(model.algebra.table)
               for name, model in models.items())
    assert intervals(one_space(rebased)) == expected
