"""Exact degree-capped cup-length with certificates.

The main computation is a span dynamic program: with S the spanning set of
the generator subspace filtered to degree <= cap (the subspace's own rows of
those degrees, read in one pass; no restricted subspace is built), iterate

    V_1 = span(S),   V_{t+1} = span{ v * s : v in V_t, s in S }

and report the largest t with V_t != 0.  Any product of linear combinations
expands into products of spanning elements, so all spanning products vanish
exactly when all subspace products vanish; this holds over every domain,
Z included, whose subspaces are Q-spans of integral rows.  The search is
restricted to homogeneous factors: a nonzero product of non-homogeneous
classes expands into a nonzero product of homogeneous components of no
larger degree, so the restriction never weakens a bound.

Each layer carries its own witnesses.  Its basis is a list of monomials
s_i1 * ... * s_it, each stored with its factor indices, and a product joins
the next layer only when it grows the rank of its degree's echelon.  The
kept monomials span V_t over the fraction field, so the length is the same
as for the full span, and any monomial of the last layer is a certificate;
no second search is needed.  Over Z rank tracking suffices as well:
components are free, so a product of integral vectors is nonzero over Z
exactly when it is nonzero over Q, and ranks over Q decide it.

Products are taken by the algebra's own
:meth:`~secatm.algebra.GradedAlgebra.products`, from its integer structure
constants (``constants``): a plain algebra's are its table's, and a Kunneth
product (a tensor square or a product of spaces) multiplies through its two
factors'.  They are true products: each integral rational is taken as its
int and only a non-integral one stays a ``Fraction``.  The rank of each
degree is kept by a sparse ``FieldEchelon`` of the products' dicts over
every field (over Q for Z), which clears their denominators.  The constants
are built on an algebra's first query and kept on it, so they serve every
later query on it, on its square and on every product that has it as a
factor.

The certificate's product is the DP's own vector for its last monomial,
and its factors are the spanning rows; its elements are built from these
vectors as they stand, with no width check or zero scan, and nothing is
multiplied out again.  :meth:`CupLengthCertificate.verify`
multiplies the factors through the algebra's own ``mul_vectors`` and
compares, so it cross-checks the DP.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, GradedAlgebra, Subspace, _terms
# make_echelon is not used here any more, but perfbench/tracer.py wraps the
# echelon factory by this module's name
from .linalg import FieldEchelon, make_echelon  # noqa: F401

__all__ = [
    "CupLengthQuery",
    "CupLengthCertificate",
    "capped_cuplength",
]


@dataclass
class CupLengthQuery:
    """Generators inside an algebra plus a degree cap (None = unbounded)."""

    algebra: GradedAlgebra
    generators: Subspace
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.generators.algebra is not self.algebra:
            raise ValueError("generators must live in the queried algebra")
        if 0 in self.generators.rows:
            raise ValueError("generator spanning set must have positive degree")
        if self.cap is not None and self.cap < 1:
            raise ValueError("cap must be >= 1 or None")


@dataclass
class CupLengthCertificate:
    """An explicit ordered factor list with nonzero product."""

    factors: list[Element]
    product: Element

    def __len__(self) -> int:
        return len(self.factors)

    def verify(self, cap: int | None = None) -> bool:
        """Multiply the factors out through the algebra's ``mul_vectors``
        and check the stored nonzero product, which ``capped_cuplength``
        reads off its own vector, so the two are independent."""
        if not self.factors:
            return False
        prod = self.factors[0]
        for f in self.factors[1:]:
            prod = prod * f
        if prod != self.product or prod.is_zero():
            return False
        for f in self.factors:
            if not f.is_homogeneous() or f.is_zero() or f.degree < 1:
                return False
            if cap is not None and f.degree > cap:
                return False
        return True

    def factor_strings(self) -> list[str]:
        return [f.format() for f in self.factors]


def capped_cuplength(query: CupLengthQuery):
    """Maximum number of generator factors (degree <= cap) with nonzero product.

    Returns ``(length, certificate)``; the certificate is None exactly when
    the length is 0.  Layer t holds monomials ``(degree, pairs, factors)``
    whose vectors are linearly independent in each degree; layer t + 1 keeps
    a product ``v * s`` only when it grows the rank of its degree, and a
    degree is skipped once its rank equals its width.  The layers are
    absorbing: once one is empty every later one is, and lengths never exceed
    the top degree since each factor has positive degree.  Each spanning
    vector becomes its nonzero pairs once, for layer 1, and its
    ``product_keys`` once, for the groups.

    Products are true products, taken by the algebra's ``products`` with
    the nonzero ``(index, c)`` pairs of v and the keys of s, integral
    scalars as ints.  The rank of each degree is tracked by a
    ``FieldEchelon`` of the product's dict, over F_p and over Q (for Z
    too): whether an insert grows the rank depends on the span alone.  The
    certificate's factors are the original spanning vectors of the first
    monomial of the last layer, and its product is that monomial's vector
    as it stands.
    """
    algebra, cap = query.algebra, query.cap
    spanning = [(d, v) for d, rows in sorted(query.generators.rows.items())
                if cap is None or d <= cap for v in rows]
    if not spanning:
        return 0, None
    p = algebra.coeff.p
    top = algebra.top_degree
    layer = [(d, _terms(v), (i,)) for i, (d, v) in enumerate(spanning)]
    groups: dict[int, list] = {}  # spanning keys by degree, ascending
    for ds, s, (i,) in layer:
        groups.setdefault(ds, []).append((i, algebra.product_keys(ds, s)))
    while True:
        ech, grown = {}, {}
        for dv, v, factors in layer:
            for ds, group in groups.items():
                d = dv + ds
                if d > top:
                    break
                e = ech.get(d)
                if e is None:
                    e = ech[d] = FieldEchelon(algebra.dim(d), p)
                    grown[d] = []
                if e.rank == e.width:
                    continue
                for i, w in algebra.products(dv, v, ds, group):
                    if w and e.insert(w):
                        grown[d].append((d, tuple(w.items()), factors + (i,)))
                        if e.rank == e.width:
                            break
        nxt = [entry for d in sorted(grown) for entry in grown[d]]
        if not nxt:
            break
        layer = nxt
    d, pairs, indices = layer[0]
    dom = algebra.coeff
    vector = [dom.zero()] * algebra.dim(d)
    for j, c in pairs:
        vector[j] = dom.parse_scalar(c)
    factors = [_element(algebra, *spanning[i]) for i in indices]
    product = _element(algebra, d, tuple(vector))
    return len(factors), CupLengthCertificate(factors=factors, product=product)


def _element(algebra: GradedAlgebra, d: int, v: tuple) -> Element:
    """``algebra.component_element(d, v)`` for a nonzero tuple v of the
    degree's width, as every spanning row and kept product of the DP is:
    no width check and no zero scan."""
    el = object.__new__(Element)
    el.algebra, el.comps = algebra, {d: v}
    return el
