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

Products are taken in Python ints through one :class:`IntegerStructure`
per algebra, built from a plain algebra's table or, for a Kunneth product
(a tensor square or a product of spaces), from its factors' integer
products, a column per class that a spanning vector holds.  A caller
that passes one structure map to every query (as ``compute_tables`` does,
once per run) builds each structure, column and right-multiplication
operator once.

The certificate's product is the DP's own vector for its last monomial,
read as it is over F_p and Z and with the integer scalings undone over Q;
nothing is multiplied out again.  :meth:`CupLengthCertificate.verify`
multiplies the factors through the algebra's own ``mul_vectors`` and
compares, so it cross-checks the DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import Element, GradedAlgebra, Subspace, TensorProduct
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


def _integral_products(algebra: GradedAlgebra) -> tuple[int, dict]:
    """The common denominator of the structure constants, and
    ``nonzero_products`` with every coefficient made an int, scaled by it."""
    den = _denominator(algebra)
    return den, {key: [(d2, i2, _scaled(nz, den)) for d2, i2, nz in entries]
                 for key, entries in algebra.nonzero_products().items()}


class IntegerStructure:
    """One algebra's nonzero products of basis classes of positive degree,
    in Python ints, read by the DP through ``right_multiplication``.

    Column ``(ds, i)`` maps a degree dv to the list of ``(i1, row)`` with
    ``row`` the product of class i1 of degree dv by class i of degree ds:
    the nonzero ``(j, c)`` pairs, or over F2 a bitmask (bit j is entry j).
    Over Q every row, unit products included, is scaled by one nonzero
    integer, ``scale``, so a product of t integral factors is ``scale **
    (t - 1)`` times the product of the factors, and it vanishes, and grows an
    echelon's rank, exactly when the true product does.  The input's type
    picks one of two paths.  A plain algebra fills its columns from its
    table at once, and ``scale`` is the common denominator D of its
    constants.  A :class:`TensorProduct`, a tensor square or a product of
    spaces, builds column i on first use, from ``row(ds, i)`` over its
    factors' integer products, and ``scale`` is D_left * D_right; it never
    builds its own table nor a column the DP does not multiply by (the
    factors' tables are read).  Off Q, ``scale`` is 1.
    """

    def __init__(self, algebra: GradedAlgebra):
        self.p = algebra.coeff.p
        self.dims = algebra.dims()
        self._columns: dict = {}
        self._operators: dict = {}
        self._square = None
        if isinstance(algebra, TensorProduct):
            dl, left = _integral_products(algebra.left)
            dr, right = (dl, left) if algebra.right is algebra.left else \
                _integral_products(algebra.right)
            self.scale = dl * dr
            self._square = algebra, left, right
            return
        den = self.scale = _denominator(algebra)
        converted = {}
        for (d1, i1, d2, i2), row in algebra.table.items():
            nz = converted.get(id(row))  # a shared row is converted once
            if nz is None:
                nz = _scaled(((j, c) for j, c in enumerate(row) if c), den)
                if self.p == 2:
                    nz = sum(1 << j for j, _ in nz)
                converted[id(row)] = nz
            self._columns.setdefault((d2, i2), {}).setdefault(d1, []).append((i1, nz))

    def _column(self, ds: int, i: int) -> dict:
        column = self._columns.get((ds, i))
        if column is None:
            column = self._columns[(ds, i)] = {}
            if self._square is not None:
                T, left, right = self._square
                for dx, kx, nz in T.row(ds, i, left, right):
                    if self.p == 2:
                        nz = sum(1 << j for j, _ in nz)
                    elif dx & ds & 1:  # x * s = (-1)^(|x| |s|) s * x
                        nz = tuple((j, -c) for j, c in nz)
                    column.setdefault(dx, []).append((kx, nz))
        return column

    def right_multiplication(self, dv: int, ds: int, s: tuple):
        """Right multiplication by the degree-``ds`` vector with nonzero
        ``(i2, b)`` pairs ``s``, on degree ``dv``: entry i1 is the product of
        basis class i1 by it, a bitmask over F2, otherwise a tuple of nonzero
        ``(j, c)``; None when every such product is zero.  It costs the
        columns of the support of s only."""
        key = (dv, ds, s)
        if key in self._operators:
            return self._operators[key]
        p = self.p
        if p == 2:
            op = [0] * self.dims[dv]
            for i2, _ in s:
                for i1, mask in self._column(ds, i2).get(dv, ()):
                    op[i1] ^= mask
        else:
            acc: dict[int, dict] = {}
            for i2, b in s:
                for i1, row in self._column(ds, i2).get(dv, ()):
                    a = acc.get(i1)
                    if a is None:
                        a = acc[i1] = {}
                    for j, c in row:
                        a[j] = a.get(j, 0) + b * c
            op = [()] * self.dims[dv]
            for i1, a in acc.items():
                if p is not None:
                    op[i1] = tuple((j, c % p) for j, c in a.items() if c % p)
                else:
                    op[i1] = tuple((j, c) for j, c in a.items() if c)
        return self._operators.setdefault(key, op if any(op) else None)


def _support(w, p: int | None) -> tuple:
    """Nonzero ``(index, coefficient)`` pairs of a product."""
    if p == 2:
        return tuple((j, 1) for j in range(w.bit_length()) if w >> j & 1)
    return tuple((j, c) for j, c in enumerate(w) if c)


def capped_cuplength(query: CupLengthQuery, structures: dict | None = None):
    """Maximum number of generator factors (degree <= cap) with nonzero product.

    Returns ``(length, certificate)``; the certificate is None exactly when
    the length is 0.  Layer t holds monomials ``(degree, support, factors)``
    whose vectors are linearly independent in each degree; layer t + 1 keeps
    a product ``v * s`` only when it grows the rank of its degree, and a
    degree is skipped once its rank equals its width.  The layers are
    absorbing: once one is empty every later one is, and lengths never exceed
    the top degree since each factor has positive degree.

    Products are taken in Python ints: the algebra's
    :class:`IntegerStructure`, and over Q each spanning vector made its
    primitive integer multiple.  ``structures`` maps algebras to their
    structures: one is built on the algebra's first query and reused, with
    its memoised columns and operators, by every later query on that
    algebra (``compute_tables`` keeps one such map per run).  Without it
    the structure is built for this call and dropped with it; nothing is
    ever stored on the algebra.  A product ``v * s`` is the sum over the
    support of v of ``v[i1]`` times entry i1 of the operator of s, and is
    skipped when that operator is None.  Over F2 the operators and products
    are bitmasks and a product is an XOR.  A target degree out of range or
    full is skipped at once.  The rank of each degree is tracked by a
    ``FieldEchelon`` (``F2RankEchelon`` over F2), whose inserts only
    eliminate forward and never read its rows out in canonical form:
    whether an insert grows the rank depends on the span alone.  The
    certificate's factors are the original spanning vectors of the first
    monomial of the last layer, and its product is that monomial's vector:
    as it is over F_p and Z (a bitmask over F2), and over Q divided by
    ``D ** (t - 1)`` times the k_i of its t factors, with D the structure's
    ``scale`` and k_i the multiple that made spanning vector i primitive
    and integral.
    """
    algebra = query.algebra
    spanning = _filtered_spanning(query)
    if not spanning:
        return 0, None
    structure = None if structures is None else structures.get(algebra)
    if structure is None:
        structure = IntegerStructure(algebra)
        if structures is not None:
            structures[algebra] = structure
    p = algebra.coeff.p
    if algebra.coeff.kind == RATIONALS:
        ints, ks = _integral(spanning)
    else:
        ints = spanning
    top = algebra.top_degree
    groups: dict[int, list] = {}  # spanning supports by degree, ascending
    for i, (ds, s) in enumerate(ints):
        groups.setdefault(ds, []).append((i, _support(s, None)))
    right = {}  # (dv, ds) -> the operators of that degree group, fetched lazily
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
                if e.rank == e.width:
                    continue
                ops = right.get((dv, ds))
                if ops is None:
                    ops = right[(dv, ds)] = [False] * len(group)
                for k, (i, s) in enumerate(group):
                    op = ops[k]
                    if op is False:
                        op = ops[k] = structure.right_multiplication(dv, ds, s)
                    if op is None:
                        continue  # every product of degree dv by s is zero
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
    d, supp, indices = layer[0]
    vector = [algebra.coeff.zero()] * algebra.dim(d)
    if algebra.coeff.kind == RATIONALS:  # undo the scalings of the integer DP
        scale = structure.scale ** (len(indices) - 1)
        for i in indices:
            scale *= ks[i]
        for j, c in supp:
            vector[j] = c / scale
    else:
        for j, c in supp:
            vector[j] = c
    factors = [algebra.component_element(*spanning[i]) for i in indices]
    product = algebra.component_element(d, vector)
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
