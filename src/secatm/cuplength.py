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

Products are taken by one routine, :meth:`IntegerStructure.products`,
from the structure constants of a plain algebra's table or, for a Kunneth
product (a tensor square or a product of spaces), of its two factors.  They
are true products: each integral rational is taken as its int and only a
non-integral one stays a ``Fraction``.  The rank of each degree is kept by
a sparse ``FieldEchelon`` of the products' dicts over every field (over Q
for Z), which clears their denominators.  A caller that passes one
structure map to every query (as ``compute_tables`` does, once per run)
converts each algebra's constants once, for the algebra, for its square
and for every product that has it as a factor.

The certificate's product is the DP's own vector for its last monomial;
nothing is multiplied out again.  :meth:`CupLengthCertificate.verify`
multiplies the factors through the algebra's own ``mul_vectors`` and
compares, so it cross-checks the DP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import Element, GradedAlgebra, Subspace, TensorProduct
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


def _scalar(c):
    """c as an int when it is integral, else the ``Fraction`` it is."""
    return c.numerator if c.denominator == 1 else c


def _pairs(v) -> tuple:
    """Nonzero ``(index, coefficient)`` pairs of a dense vector."""
    return tuple((j, _scalar(c)) for j, c in enumerate(v) if c)


class IntegerStructure:
    """One algebra's structure constants, ints where they are integral,
    multiplied out by :meth:`products`.

    A plain algebra's constants are its own table's.  A
    :class:`TensorProduct` (a tensor square or a product of spaces)
    multiplies through its two factors' constants, ``(a (x) b)(a' (x) b') =
    (-1)^(|b| |a'|) (a a') (x) (b b')``; it never reads its own table.  Its
    factors' structures come from :meth:`of` with the same map, so an
    algebra, its square and every product with it as a factor convert the
    algebra's constants once (a bare call builds them in a map of its own).
    Beyond the constants, only the lookup keys of each s are kept.
    """

    def __init__(self, algebra: GradedAlgebra, structures: dict | None = None):
        self.algebra = algebra
        self.p = algebra.coeff.p
        if isinstance(algebra, TensorProduct):
            structures = {} if structures is None else structures
            self._factors = (self.of(algebra.left, structures),
                             self.of(algebra.right, structures))
        self._keyed: dict = {}  # (ds, s) -> the lookup keys of s's classes

    @staticmethod
    def of(algebra: GradedAlgebra, structures: dict) -> "IntegerStructure":
        """The structure of ``algebra`` in ``structures``, built and stored
        there first when the map holds none."""
        structure = structures.get(algebra)
        if structure is None:
            structure = structures[algebra] = IntegerStructure(algebra, structures)
        return structure

    @functools.cached_property
    def constants(self) -> dict:
        """``nonzero_products``, integral scalars as ints; a product's (read
        where it is a factor) by ``row`` from its factors'."""
        A = self.algebra
        if isinstance(A, TensorProduct):
            left, right = (f.constants for f in self._factors)
            return {(d, k): {(d2, k2): nz for d2, k2, nz in A.row(d, k, left, right)}
                    for d in range(A.top_degree + 1) for k in range(A.dim(d))}
        return {key: {key2: tuple((j, _scalar(c)) for j, c in nz) for key2, nz in row.items()}
                for key, row in A.nonzero_products().items()}

    def products(self, dv: int, v, ds: int, group):
        """Yield ``(i, v * s)`` for each ``(i, s)`` of ``group``, v of degree
        dv and each s of degree ds as nonzero ``(index, c)`` pairs, each
        product the dict of its nonzero entries (mod p over F_p): one
        constant lookup per pair of support classes."""
        A, p, memo = self.algebra, self.p, self._keyed
        tensor = isinstance(A, TensorProduct)
        if tensor:
            left, right = self._factors[0].constants, self._factors[1].constants
            pv, starts, widths = A.kunneth_pairs[dv], A.block_start, A._right_dims
            rows = []  # per class of v: its coefficient, constants and degrees
            for k1, a in v:
                p1, i1, q1, j1 = pv[k1]
                rows.append((a, left[(p1, i1)], right[(q1, j1)], p1, q1))
        else:
            constants = self.constants
            rows = [(a, constants[(dv, k1)]) for k1, a in v]
        for i, s in group:
            keys = memo.get((ds, s))
            if keys is None:
                keys = memo[(ds, s)] = self._keys(ds, s)
            acc: dict[int, int] = {}
            if tensor:
                for a, lrow, rrow, p1, q1 in rows:
                    for lkey, rkey, p2, q2, b in keys:
                        anz = lrow.get(lkey)
                        bnz = rrow.get(rkey) if anz else None
                        if bnz is None:
                            continue
                        ab = -a * b if q1 & p2 & 1 else a * b  # the Koszul sign
                        q = q1 + q2
                        base, width = starts[p1 + p2][q], widths[q]
                        for ia, ca in anz:
                            at, c = base + ia * width, ab * ca
                            for jb, cb in bnz:
                                acc[at + jb] = acc.get(at + jb, 0) + c * cb
            else:
                for a, row in rows:
                    for key, b in keys:
                        nz = row.get(key)
                        if nz is not None:
                            ab = a * b
                            for j, c in nz:
                                acc[j] = acc.get(j, 0) + ab * c
            if p is None:
                yield i, {j: c for j, c in acc.items() if c}
            else:
                yield i, {j: c % p for j, c in acc.items() if c % p}

    def _keys(self, ds: int, s) -> list:
        """Per ``(index, b)`` of s, its class's key in ``constants`` and b;
        in a product, its factor classes' keys and degrees and b."""
        A = self.algebra
        if isinstance(A, TensorProduct):
            pairs = A.kunneth_pairs[ds]
            return [((p2, i2), (q2, j2), p2, q2, b)
                    for (p2, i2, q2, j2), b in ((pairs[k2], b) for k2, b in s)]
        return [((ds, k2), b) for k2, b in s]


def capped_cuplength(query: CupLengthQuery, structures: dict | None = None):
    """Maximum number of generator factors (degree <= cap) with nonzero product.

    Returns ``(length, certificate)``; the certificate is None exactly when
    the length is 0.  Layer t holds monomials ``(degree, pairs, factors)``
    whose vectors are linearly independent in each degree; layer t + 1 keeps
    a product ``v * s`` only when it grows the rank of its degree, and a
    degree is skipped once its rank equals its width.  The layers are
    absorbing: once one is empty every later one is, and lengths never exceed
    the top degree since each factor has positive degree.  Each spanning
    vector becomes its nonzero pairs once, for layer 1 and for the groups.

    Products are true products, taken by the algebra's
    :class:`IntegerStructure` with the nonzero ``(index, c)`` pairs of v and
    of s, integral scalars as ints.  ``structures`` maps algebras to their
    structures: :meth:`IntegerStructure.of` builds one on the algebra's
    first query and stores it there with its factors', for every later
    query on that algebra and for the structure of a product that has it as
    a factor (``compute_tables`` keeps one such map per run).  Without it
    the structures are built for this call and dropped with it; nothing is
    ever stored on the algebra.  The rank of each degree is tracked by a
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
    structure = IntegerStructure.of(algebra, {} if structures is None else structures)
    p = algebra.coeff.p
    top = algebra.top_degree
    layer = [(d, _pairs(v), (i,)) for i, (d, v) in enumerate(spanning)]
    groups: dict[int, list] = {}  # spanning pairs by degree, ascending
    for ds, s, (i,) in layer:
        groups.setdefault(ds, []).append((i, s))
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
                for i, w in structure.products(dv, v, ds, group):
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
    factors = [algebra.component_element(*spanning[i]) for i in indices]
    product = algebra.component_element(d, vector)
    return len(factors), CupLengthCertificate(factors=factors, product=product)
