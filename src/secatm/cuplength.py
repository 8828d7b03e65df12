"""Exact degree-capped cup-length with certificates and a brute-force oracle.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .algebra import Element, GradedAlgebra, Subspace
from .domains import RATIONALS
# make_echelon is not used here any more, but perfbench/tracer.py wraps the
# echelon factory by this module's name
from .linalg import (  # noqa: F401
    F2RankEchelon, FieldEchelon, clear_denominators, make_echelon, vis_zero,
)

__all__ = [
    "CupLengthQuery",
    "CupLengthCertificate",
    "SizeGuardExceeded",
    "capped_cuplength",
    "brute_force_cuplength",
]


class SizeGuardExceeded(ValueError):
    """Brute-force search space is too large to enumerate."""


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
        """Re-multiply the factors and check the stored nonzero product."""
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


def _integral(spanning, table):
    """Spanning vectors and the structure-constant scale D as Python ints.

    Over Q each spanning vector becomes its primitive integer multiple, and
    D is the common denominator of all structure constants (1 for every
    built-in model).  With the constants multiplied by D, a product of t
    integral factors is the true product of the originals times a nonzero
    rational, so it vanishes, and grows an echelon's rank, exactly when the
    true product does.
    """
    rows = {id(row): row for row in table.values()}.values()
    den = lcm(*{c.denominator for row in rows for c in row})
    ints = []
    for d, v in spanning:
        v = clear_denominators(v)
        g = gcd(*v)
        ints.append((d, tuple(x // g for x in v)))
    return ints, den


def _structure(algebra: GradedAlgebra, degrees: set, convert) -> dict:
    """Nonzero basis products with a right factor of degree in ``degrees``,
    from one pass over the table: ``(d1, d2)`` maps to a list over i1 of
    ``(i2, convert(row))``.  A row the algebra shares between products
    (tensor squares share equal rows) is converted once and stored once."""
    converted, out = {}, {}
    for (d1, i1, d2, i2), row in algebra.table.items():
        if d2 not in degrees:
            continue
        tab = out.get((d1, d2))
        if tab is None:
            tab = out[(d1, d2)] = [[] for _ in range(algebra.dim(d1))]
        nz = converted.get(id(row))
        if nz is None:
            nz = converted[id(row)] = convert(row)
        tab[i1].append((i2, nz))
    return out


def _right_multiplication(tab: list, s: tuple, p: int | None) -> list:
    """Right multiplication by the spanning vector ``s``: entry i1 is the
    product of basis class i1 by s.  Over F2 (``tab`` holding bitmasks) each
    entry is a bitmask, otherwise a tuple of nonzero ``(j, c)``."""
    out = []
    for row in tab:
        if p == 2:
            w = 0
            for i2, mask in row:
                if s[i2]:
                    w ^= mask
            out.append(w)
            continue
        acc: dict[int, int] = {}
        for i2, nz in row:
            b = s[i2]
            if b:
                for j, c in nz:
                    acc[j] = acc.get(j, 0) + b * c
        if p is not None:
            out.append(tuple((j, c % p) for j, c in acc.items() if c % p))
        else:
            out.append(tuple((j, c) for j, c in acc.items() if c))
    return out


def _support(w, p: int | None) -> tuple:
    """Nonzero ``(index, coefficient)`` pairs of a product."""
    if p == 2:
        return tuple((j, 1) for j in range(w.bit_length()) if w >> j & 1)
    return tuple((j, c) for j, c in enumerate(w) if c)


def capped_cuplength(query: CupLengthQuery):
    """Maximum number of generator factors (degree <= cap) with nonzero product.

    Returns ``(length, certificate)``; the certificate is None exactly when
    the length is 0.  Layer t holds monomials ``(degree, support, factors)``
    whose vectors are linearly independent in each degree; layer t + 1 keeps
    a product ``v * s`` only when it grows the rank of its degree, and a
    degree is skipped once its rank equals its width.  The layers are
    absorbing: once one is empty every later one is, and lengths never exceed
    the top degree since each factor has positive degree.

    Products are taken in Python ints (see ``_integral``).  Right
    multiplication by each spanning vector is built lazily, once per source
    degree, from structure tables made in one pass over the algebra's
    table, and all of it is dropped with the call; a product ``v * s`` is
    then the sum over the support of v of ``v[i1]`` times entry i1 of that
    operator.  Over F2 the operators and products are bitmasks and a
    product is an XOR.  Spanning vectors are visited a degree at a time, so
    a target degree that is out of range, full or without products is
    skipped at once.  The rank of each degree is tracked by a
    ``FieldEchelon`` (``F2RankEchelon`` over F2), whose inserts only
    eliminate forward and never read its rows out in canonical form:
    whether an insert grows the rank depends on the span alone.  The
    certificate is rebuilt from the original spanning vectors and
    multiplied out again.
    """
    algebra = query.algebra
    spanning = _filtered_spanning(query)
    if not spanning:
        return 0, None
    p = algebra.coeff.p
    if algebra.coeff.kind == RATIONALS:
        ints, den = _integral(spanning, algebra.table)
    else:
        ints, den = spanning, 1
    if p == 2:
        def convert(row):
            return sum(1 << j for j, c in enumerate(row) if c)
    else:
        def convert(row):
            return tuple((j, c.numerator * (den // c.denominator))
                         for j, c in enumerate(row) if c)
    top = algebra.top_degree
    groups: dict[int, list] = {}  # spanning vectors by degree, ascending
    for i, (ds, s) in enumerate(ints):
        groups.setdefault(ds, []).append((i, s))
    structure = _structure(algebra, set(groups), convert)
    right = {}  # (dv, ds) -> the operators of that degree group, built lazily
    layer = [(d, _support(v, None), (i,)) for i, (d, v) in enumerate(ints)]
    while True:
        ech, grown = {}, {}
        for dv, supp, factors in layer:
            for ds, group in groups.items():
                d = dv + ds
                if d > top:
                    break
                e = ech.get(d)
                if e is None:
                    width = algebra.dim(d)
                    e = ech[d] = F2RankEchelon(width) if p == 2 else FieldEchelon(width, p)
                    grown[d] = []
                tab = structure.get((dv, ds))
                if e.rank == e.width or tab is None:
                    continue  # full, or every product of these degrees is zero
                ops = right.get((dv, ds))
                if ops is None:
                    ops = right[(dv, ds)] = [None] * len(group)
                for k, (i, s) in enumerate(group):
                    op = ops[k]
                    if op is None:
                        op = ops[k] = _right_multiplication(tab, s, p)
                    if p == 2:
                        w = 0
                        for i1, _ in supp:
                            w ^= op[i1]
                    else:
                        w = [0] * e.width
                        for i1, a in supp:
                            for j, c in op[i1]:
                                w[j] += a * c
                        if p is not None:
                            w = [x % p for x in w]
                    if e.insert(w):
                        grown[d].append((d, _support(w, p), factors + (i,)))
                        if e.rank == e.width:
                            break
        nxt = [entry for d in sorted(grown) for entry in grown[d]]
        if not nxt:
            break
        layer = nxt
    factors = [algebra.component_element(*spanning[i]) for i in layer[0][2]]
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    return len(factors), CupLengthCertificate(factors=factors, product=product)


def _f2_candidates(sub: Subspace) -> list[tuple[int, tuple]]:
    """All nonzero homogeneous elements of an F2 subspace, degree by degree."""
    dom = sub.algebra.coeff
    out = []
    for d in sorted(sub.rows):
        rows = sub.rows[d]
        k = len(rows)
        width = sub.algebra.dim(d)
        for mask in range(1, 1 << k):
            v = [0] * width
            for b in range(k):
                if mask >> b & 1:
                    for j, c in enumerate(rows[b]):
                        v[j] = dom.add(v[j], c)
            if not vis_zero(tuple(v)):
                out.append((d, tuple(v)))
    return out


def brute_force_cuplength(query: CupLengthQuery, max_len: int) -> int:
    """Independent exhaustive oracle for ``capped_cuplength``.

    Over F2 it enumerates every nonzero homogeneous element of the generator
    subspace; over Q, Z and odd prime fields it enumerates sequences drawn
    from the spanning set, which by the expansion argument decides the same
    question.  Guarded: the F2 mode requires algebra total dimension <= 14,
    the sequence mode a filtered spanning set of <= 14 vectors.
    """
    algebra = query.algebra
    dom = algebra.coeff
    sub = query.generators.restricted(query.cap)
    is_f2 = dom.kind == "prime_field" and dom.p == 2
    if is_f2:
        if algebra.total_dim > 14:
            raise SizeGuardExceeded(
                f"algebra dimension {algebra.total_dim} exceeds the F2 guard of 14"
            )
        candidates = _f2_candidates(sub)
    else:
        spanning = _filtered_spanning(query)
        if len(spanning) > 14:
            raise SizeGuardExceeded(
                f"spanning set size {len(spanning)} exceeds the guard of 14"
            )
        candidates = spanning

    best = 0

    def search(d, v, length):
        nonlocal best
        best = max(best, length)
        if length >= max_len:
            return
        for ds, s in candidates:
            dd = d + ds
            if dd > algebra.top_degree:
                continue
            w = algebra.mul_vectors(d, v, ds, s)
            if w is not None and not vis_zero(w):
                search(dd, w, length + 1)

    for d, v in candidates:
        search(d, v, 1)
    return best
