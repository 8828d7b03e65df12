"""Exact degree-capped cup-length with certificates.

The main computation is a span dynamic program: with S the spanning set of
the generator subspace filtered to degree <= cap, iterate

    V_1 = span(S),   V_{t+1} = span{ v * s : v in V_t, s in S }

and report the largest t with V_t != 0.  Any product of linear combinations
expands into products of spanning elements, so all spanning products vanish
exactly when all subspace products vanish; this holds over fields and over
Z lattices alike.  The search is restricted to homogeneous factors: a
nonzero product of non-homogeneous classes expands into a nonzero product of
homogeneous components of no larger degree, so the restriction never weakens
a bound.

Each layer carries its own witnesses.  Its basis is a list of monomials
s_i1 * ... * s_it, each stored with its factor indices, and a product joins
the next layer only when it grows the rank of its degree's echelon.  The
kept monomials span V_t over the fraction field, so the length is the same
as for the full span, and any monomial of the last layer is a certificate;
no second search is needed.  Over Z rank tracking suffices as well:
components are free, so a lattice is nonzero exactly when its rank is, and
a product is nonzero over Z exactly when it is nonzero over Q.

Products are taken in Python ints by one routine,
:meth:`IntegerStructure.products`, from the integer structure constants
of a plain algebra's table or, for a Kunneth product (a tensor square or a
product of spaces), of its two factors.  The rank of each degree is kept
by the sparse ``FieldEchelon`` of the products' dicts, and over F2 by an
``F2RankEchelon`` of their bitmasks.  A caller that
passes one structure map to every query (as ``compute_tables`` does, once
per run) converts each algebra's constants once, for the algebra and for
its square alike.

The certificate's product is the DP's own vector for its last monomial,
read as it is over F_p and Z and with the integer scalings undone over Q;
nothing is multiplied out again.  :meth:`CupLengthCertificate.verify`
multiplies the factors through the algebra's own ``mul_vectors`` and
compares, so it cross-checks the DP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import Element, GradedAlgebra, Subspace, TensorProduct
from .domains import RATIONALS
# make_echelon is not used here any more, but perfbench/tracer.py wraps the
# echelon factory by this module's name
from .linalg import (  # noqa: F401
    F2RankEchelon, FieldEchelon, clear_denominators, make_echelon,
)

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
        reads off its own integer vector, so the two are independent."""
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


def _filtered_spanning(query: CupLengthQuery) -> list[tuple[int, tuple]]:
    sub = query.generators.restricted(query.cap)
    out = []
    for d in sorted(sub.rows):
        for v in sub.rows[d]:
            out.append((d, v))
    return out


def _integral(spanning) -> tuple[list, list]:
    """Each spanning vector v over Q as its primitive integer multiple
    k * v, and each k."""
    ints, ks = [], []
    for d, v in spanning:
        u = clear_denominators(v)
        g = gcd(*u)
        j = next(j for j, x in enumerate(u) if x)
        ints.append((d, tuple(x // g for x in u)))
        ks.append(Fraction(u[j] // g) / v[j])
    return ints, ks


def _scaled(pairs, den: int) -> tuple:
    """Nonzero ``(j, c)`` pairs with each c an int or ``Fraction`` made the
    int ``den * c``."""
    return tuple((j, c.numerator * (den // c.denominator)) for j, c in pairs)


def _denominator(algebra: GradedAlgebra) -> int:
    """The common denominator of the structure constants (1 off Q)."""
    rows = {id(row): row for row in algebra.table.values()}.values()
    return lcm(*{c.denominator for row in rows for c in row})


class IntegerStructure:
    """One algebra's structure constants in Python ints, multiplied out by
    :meth:`products`.

    Over Q every constant, unit products included, is scaled by one
    nonzero integer, ``scale``, so a product of t integral factors is
    ``scale ** (t - 1)`` times the product of the factors, and it vanishes,
    and grows an echelon's rank, exactly when the true product does.  Off
    Q, ``scale`` is 1.  A plain algebra's constants are its own table's,
    and ``scale`` is their common denominator D.  A :class:`TensorProduct`
    (a tensor square or a product of spaces) multiplies through its two
    factors' constants, ``(a (x) b)(a' (x) b') = (-1)^(|b| |a'|) (a a') (x)
    (b b')``, and ``scale`` is D_left * D_right; it never reads its own
    table.  A factor's structure is taken from ``structures`` when that map
    holds one, so an algebra and its square convert the algebra's products
    once.  Beyond the constants, only the lookup keys of each s are kept.
    """

    def __init__(self, algebra: GradedAlgebra, structures: dict | None = None):
        self.algebra = algebra
        self.p = algebra.coeff.p
        if isinstance(algebra, TensorProduct):
            held = structures or {}
            left = held.get(algebra.left) or IntegerStructure(algebra.left, structures)
            right = left if algebra.right is algebra.left else \
                held.get(algebra.right) or IntegerStructure(algebra.right, structures)
            self._factors = left, right
            self.scale = left.scale * right.scale
        else:
            self.scale = _denominator(algebra)
        self._keyed: dict = {}  # (ds, s) -> the lookup keys of s's classes

    @functools.cached_property
    def constants(self) -> dict:
        """``nonzero_products`` in ints scaled by ``scale``; a product's
        (read where it is a factor) by ``row`` from its factors'."""
        A = self.algebra
        if isinstance(A, TensorProduct):
            left, right = (f.constants for f in self._factors)
            return {(d, k): {(d2, k2): nz for d2, k2, nz in A.row(d, k, left, right)}
                    for d in range(A.top_degree + 1) for k in range(A.dim(d))}
        den = self.scale
        return {key: {key2: _scaled(nz, den) for key2, nz in row.items()}
                for key, row in A.nonzero_products().items()}

    def products(self, dv: int, v, ds: int, group):
        """Yield ``(i, v * s)`` for each ``(i, s)`` of ``group``, v of degree
        dv and each s of degree ds as nonzero ``(index, c)`` int pairs, each
        product the dict of its nonzero entries (mod p over F_p), scaled by
        ``scale``: one constant lookup per pair of support classes."""
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


def _pairs(v) -> tuple:
    """Nonzero ``(index, coefficient)`` pairs of a dense vector."""
    return tuple((j, c) for j, c in enumerate(v) if c)


def capped_cuplength(query: CupLengthQuery, structures: dict | None = None):
    """Maximum number of generator factors (degree <= cap) with nonzero product.

    Returns ``(length, certificate)``; the certificate is None exactly when
    the length is 0.  Layer t holds monomials ``(degree, pairs, factors)``
    whose vectors are linearly independent in each degree; layer t + 1 keeps
    a product ``v * s`` only when it grows the rank of its degree, and a
    degree is skipped once its rank equals its width.  The layers are
    absorbing: once one is empty every later one is, and lengths never exceed
    the top degree since each factor has positive degree.

    Products are taken in Python ints by the algebra's
    :class:`IntegerStructure`, with the nonzero ``(index, c)`` pairs of v and
    of s, and over Q each spanning vector made its primitive integer
    multiple.  ``structures`` maps algebras to their structures: one is
    built on the algebra's first query and reused by every later query on
    that algebra and by the structure of a product that has it as a factor
    (``compute_tables`` keeps one such map per run).  Without it the
    structure is built for this call and dropped with it; nothing is ever
    stored on the algebra.  The rank of each degree is tracked by a
    ``FieldEchelon`` of the product's dict (``F2RankEchelon`` of its
    bitmask over F2): whether an insert grows the rank depends on the span
    alone.  The certificate's factors are the original spanning vectors of
    the first monomial of the last layer, and its product is that
    monomial's vector: as it is over F_p and Z, and over Q divided by
    ``D ** (t - 1)`` times the k_i of its t factors, with D the structure's
    ``scale`` and k_i the multiple that made spanning vector i primitive
    and integral.
    """
    algebra = query.algebra
    spanning = _filtered_spanning(query)
    if not spanning:
        return 0, None
    structure = (structures or {}).get(algebra) or IntegerStructure(algebra, structures)
    if structures is not None:
        structures[algebra] = structure
    p = algebra.coeff.p
    if algebra.coeff.kind == RATIONALS:
        ints, ks = _integral(spanning)
    else:
        ints = spanning
    top = algebra.top_degree
    groups: dict[int, list] = {}  # spanning pairs by degree, ascending
    for i, (ds, s) in enumerate(ints):
        groups.setdefault(ds, []).append((i, _pairs(s)))
    layer = [(d, _pairs(v), (i,)) for i, (d, v) in enumerate(ints)]
    while True:
        ech, grown = {}, {}
        for dv, v, factors in layer:
            for ds, group in groups.items():
                d = dv + ds
                if d > top:
                    break
                e = ech.get(d)
                if e is None:
                    width = algebra.dim(d)
                    # bitmask rows stay over F2: on the whole cup kernel of
                    # RP^16's square, caps 1..32 take 12.7 s, against 18.7 s
                    # on dict rows (2 vCPUs, Python 3.11)
                    e = ech[d] = F2RankEchelon(width) if p == 2 else FieldEchelon(width, p)
                    grown[d] = []
                if e.rank == e.width:
                    continue
                for i, w in structure.products(dv, v, ds, group):
                    if w and e.insert(sum(1 << j for j in w) if p == 2 else w):
                        grown[d].append((d, tuple(w.items()), factors + (i,)))
                        if e.rank == e.width:
                            break
        nxt = [entry for d in sorted(grown) for entry in grown[d]]
        if not nxt:
            break
        layer = nxt
    d, pairs, indices = layer[0]
    vector = [algebra.coeff.zero()] * algebra.dim(d)
    if algebra.coeff.kind == RATIONALS:  # undo the scalings of the integer DP
        scale = structure.scale ** (len(indices) - 1)
        for i in indices:
            scale *= ks[i]
        for j, c in pairs:
            vector[j] = c / scale
    else:
        for j, c in pairs:
            vector[j] = c
    factors = [algebra.component_element(*spanning[i]) for i in indices]
    product = algebra.component_element(d, vector)
    return len(factors), CupLengthCertificate(factors=factors, product=product)
