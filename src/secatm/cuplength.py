"""Exact degree-capped cup-length with certificates.

The main computation is a span dynamic program over the spanning rows
s_1, ..., s_n of the generator subspace in (degree, row) order.  With
V_t(<= i) the span of the ordered monomials s_i1 * ... * s_it, i1 <= ... <=
it <= i, it adds one row at a time:

    V_1(<= i) = V_1(<= i-1) + span(s_i),
    V_t(<= i) = V_t(<= i-1) + V_{t-1}(<= i) * s_i,

so each product is formed once, never in both orders.  A cap is a prefix
of the rows, so the cup-length at each cap, the largest t with V_t != 0,
is read off once the DP passes it, and one run serves every cap.  Ordered
monomials span all products of t rows by graded commutativity (and
associativity), the laws ``validate`` checks; without the sign law the
lengths are still sound, as every kept monomial is a true product, and
only their tightness is lost.  Any product of linear combinations expands
into products of spanning elements, so all spanning products vanish
exactly when all subspace products vanish; this holds over every domain,
Z included, whose subspaces are Q-spans of integral rows.  The search is
restricted to homogeneous factors: a nonzero product of non-homogeneous
classes expands into a nonzero product of homogeneous components of no
larger degree, so the restriction never weakens a bound.

Each layer carries its own witnesses.  Its basis is a list of monomials,
each stored with its factor indices, and a product joins its layer only
when it grows the rank of its (length, degree) echelon.  The kept
monomials span V_t over the fraction field, so the length is the same as
for the full span, and any monomial of the last layer is a certificate;
no second search is needed.  Over Z rank tracking suffices as well:
components are free, so a product of integral vectors is nonzero over Z
exactly when it is nonzero over Q, and ranks over Q decide it.

Products are taken by the algebra's own
:meth:`~secatm.algebra.GradedAlgebra.product`, from its integer structure
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


def capped_cuplength(query: CupLengthQuery, caps=None):
    """Maximum number of generator factors (degree <= cap) with nonzero product.

    Returns ``(length, certificate)`` for ``query.cap``, or with ``caps``
    ``{cap: (length, certificate)}`` for each of them (None = unbounded),
    read off one DP as soon as it passes the cap's prefix of the rows; the
    certificate is None exactly when the length is 0.  Layer t holds
    monomials ``(degree, pairs, factors)`` whose vectors are linearly
    independent in each degree, ranked by one ``FieldEchelon`` per (t,
    degree) over F_p or Q (for Z too), as whether an insert grows the rank
    depends on the span alone.  Adding row s multiplies each monomial of
    layer t - 1 by s alone, t = 2, 3, ... while layer t - 1 is nonempty, by
    the algebra's ``product``, and a (t, degree) is skipped once its rank
    equals its width.  The length is the number of nonempty layers.  The
    certificate's factors are the spanning rows of the first monomial of
    the longest layer, and its product is that monomial's vector as it
    stands; caps of equal length share the certificate of the lowest.
    """
    algebra, top = query.algebra, query.algebra.top_degree
    bounds = {c: top if c is None else c for c in ((query.cap,) if caps is None else caps)}
    ends = sorted(bounds, key=bounds.get)
    last = max(bounds.values(), default=0)
    spanning = [(d, v) for d, rows in sorted(query.generators.rows.items())
                if d <= last for v in rows]
    p, kept, ech = algebra.coeff.p, [], {}  # kept[t - 1]: layer t
    out, value, k = {}, (0, None), 0
    for i, (ds, s) in enumerate([*spanning, (last + 1, None)]):
        while k < len(ends) and ds > bounds[ends[k]]:
            if len(kept) != value[0]:
                value = len(kept), _certificate(algebra, spanning, kept[-1][0])
            out[ends[k]] = value
            k += 1
        if s is None:
            break
        s = _terms(s)
        keys = algebra.product_keys(ds, s)
        if not kept:
            kept.append([])
        kept[0].append((ds, s, (i,)))
        for t, layer in enumerate(kept, 1):
            grown = []
            for dv, v, factors in layer:
                d = dv + ds
                e = ech.get((t, d))
                if e is None:
                    if d > top:
                        continue
                    e = ech[(t, d)] = FieldEchelon(algebra.dim(d), p)
                elif e.rank == e.width:
                    continue
                w = algebra.product(dv, v, ds, keys)
                if w and e.insert(w):
                    grown.append((d, tuple(w.items()), factors + (i,)))
            if t < len(kept):
                kept[t] += grown
            elif grown:
                kept.append(grown)
    return out[query.cap] if caps is None else out


def _certificate(algebra: GradedAlgebra, spanning: list, monomial) -> CupLengthCertificate:
    """The certificate of a kept monomial ``(degree, pairs, factors)``."""
    d, pairs, indices = monomial
    dom = algebra.coeff
    vector = [dom.zero()] * algebra.dim(d)
    for j, c in pairs:
        vector[j] = dom.parse_scalar(c)
    factors = [_element(algebra, *spanning[i]) for i in indices]
    return CupLengthCertificate(factors=factors, product=_element(algebra, d, tuple(vector)))


def _element(algebra: GradedAlgebra, d: int, v: tuple) -> Element:
    """``algebra.component_element(d, v)`` for a nonzero tuple v of the
    degree's width, as every spanning row and kept product of the DP is:
    no width check and no zero scan."""
    el = object.__new__(Element)
    el.algebra, el.comps = algebra, {d: v}
    return el
