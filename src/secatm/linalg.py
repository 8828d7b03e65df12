"""Exact echelon forms, spans, membership and kernels.

One echelon serves every domain: ``FieldEchelon`` keeps sparse rows over Q
and F_p, eliminates forward only, which is all that membership tests and
ranks need, and back-substitutes once, when its rows are read, into the
reduced row echelon form.  Over Q it works in Python ints (primitive
integer rows) and forms the ``Fraction`` RREF only then.  Z is ranked over
Q: its models are free modules, so integral vectors are independent over Z
exactly when they are over Q.  ``span_rows`` and ``kernel_rows`` read each
RREF row out over Z as its primitive integer vector with a positive pivot.
Every read-out form is canonical for the span it carries (the Q-span over
Z), so every stored spanning set, kernel and certificate is reproducible
bit for bit across runs.

Vectors are tuples of domain scalars; over Q ints are accepted as well, and
``FieldEchelon`` takes dicts of nonzero entries too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .domains import CoefficientDomain

__all__ = [
    "FieldEchelon",
    "make_echelon",
    "span_rows",
    "kernel_rows",
    "vadd",
    "vsub",
    "vscale",
    "vneg",
    "vzero",
    "vunit",
    "vis_zero",
    "clear_denominators",
]


def vzero(dom: CoefficientDomain, width: int) -> tuple:
    z = dom.zero()
    return (z,) * width


def vunit(dom: CoefficientDomain, width: int, k: int) -> tuple:
    """The vector with 1 at index k and 0 elsewhere."""
    v = [dom.zero()] * width
    v[k] = dom.one()
    return tuple(v)


def vadd(dom: CoefficientDomain, u: tuple, v: tuple) -> tuple:
    return tuple(dom.add(a, b) for a, b in zip(u, v))


def vsub(dom: CoefficientDomain, u: tuple, v: tuple) -> tuple:
    return tuple(dom.sub(a, b) for a, b in zip(u, v))


def vscale(dom: CoefficientDomain, c, u: tuple) -> tuple:
    return tuple(dom.mul(c, a) for a in u)


def vneg(dom: CoefficientDomain, u: tuple) -> tuple:
    return tuple(dom.neg(a) for a in u)


def vis_zero(u: tuple) -> bool:
    return all(a == 0 for a in u)


def clear_denominators(v) -> list[int]:
    """The int vector k*v, for k the least common denominator of the
    entries of v (ints or ``Fraction``s)."""
    k = lcm(*[a.denominator for a in v])
    return [a.numerator * (k // a.denominator) for a in v]


class FieldEchelon:
    """Span of vectors over Q (``p=None``) or F_p, by forward elimination.

    Rows are sparse ``{column: int}`` dicts, each keyed by its smallest
    column, its pivot, and reduced only against the rows of smaller pivot,
    so ``insert`` and ``contains`` never back-substitute.  Over F_p rows
    are scaled to pivot 1 and reduced ``% p``.  Over Q rows are
    fraction-free (Bareiss 1968): primitive integer vectors with a positive
    pivot.  Inputs are dense vectors or dicts of nonzero entries: residues
    over F_p, ints or ``Fraction``s over Q.  An input holding a ``Fraction``
    has its denominators cleared once; an int dict is taken unchanged.
    Whether an insert grows the rank depends on the span alone, and the
    rank over Q of int vectors is their rank over Z as well.  ``rows()``
    back-substitutes once into the reduced row echelon form, which is
    canonical for the span.
    """

    def __init__(self, width: int, p: int | None = None):
        self.width = width
        self._p = p
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _sparse(self, v) -> dict[int, int]:
        """The nonzero entries of v, integral over Q."""
        if isinstance(v, dict):
            # the sum is a Fraction exactly when an entry is, one C-level
            # pass over int values
            if self._p is None and type(sum(v.values())) is Fraction:
                return dict(zip(v, clear_denominators(v.values())))
            return v
        # domain scalars over Q are Fractions, so their first entry tells;
        # else the same sum tells
        if self._p is None and v and (type(v[0]) is Fraction or type(sum(v)) is Fraction):
            v = clear_denominators(v)
        return {j: x for j, x in enumerate(v) if x}

    def _eliminate(self, v: dict[int, int], j: int) -> dict[int, int]:
        """``r*v - c*row`` over gcd(r, c), for ``row`` the row of pivot j,
        ``r = row[j] > 0`` and ``c = v[j]``, reduced mod p or made
        primitive: zero at j, and a positive multiple of v on every column
        where row is zero.  v is left unchanged."""
        row, p = self._rows[j], self._p
        g = gcd(row[j], v[j])
        r, c = row[j] // g, v[j] // g
        v = {k: r * x for k, x in v.items()} if r != 1 else dict(v)
        for k, y in row.items():
            x = v.get(k, 0) - c * y
            if p is not None:
                x %= p
            if x:
                v[k] = x
            else:
                del v[k]
        if p is None:
            g = gcd(*v.values())
            if g > 1:
                v = {k: x // g for k, x in v.items()}
        return v

    def _reduce(self, v: dict[int, int]):
        """Eliminate v at its smallest column while some row has its pivot
        there: that column and the reduced vector, or None when v lies in
        the span."""
        rows = self._rows
        while v:
            j = min(v)
            if j not in rows:
                return j, v
            v = self._eliminate(v, j)
        return None

    def insert(self, v) -> bool:
        """Add v to the span; True if the rank grew."""
        found = self._reduce(self._sparse(v))
        if found is None:
            return False
        j, v = found
        c, p = v[j], self._p
        if p is not None:
            inv = pow(c, p - 2, p)
            self._rows[j] = {k: x * inv % p for k, x in v.items()}
        else:
            g = gcd(*v.values()) if c > 0 else -gcd(*v.values())
            self._rows[j] = {k: x // g for k, x in v.items()}
        return True

    def contains(self, v) -> bool:
        """True if v lies in the span."""
        return self._reduce(self._sparse(v)) is None

    def rows(self) -> tuple[tuple, ...]:
        """The reduced row echelon basis, ``Fraction``s over Q and residues
        over F_p.  Each row, last pivot first, is cleared in the pivot
        columns right of its own, in increasing order; their rows are
        already reduced, so clearing one column leaves the others."""
        rows, p = self._rows, self._p
        pivots = sorted(rows)
        for i in reversed(pivots):
            for j in sorted(j for j in rows[i] if j > i and j in rows):
                rows[i] = self._eliminate(rows[i], j)
        zero = 0 if p is not None else Fraction(0)
        out = []
        for i in pivots:
            v = [zero] * self.width
            for k, x in rows[i].items():
                v[k] = x if p is not None else Fraction(x, rows[i][i])
            out.append(tuple(v))
        return tuple(out)


def make_echelon(dom: CoefficientDomain, width: int) -> FieldEchelon:
    return FieldEchelon(width, dom.p)


def _integral(dom: CoefficientDomain, rows) -> tuple[tuple, ...]:
    """Over Z, each RREF row over Q as its primitive integer vector with a
    positive pivot: the pivot is 1, so the least common denominator leaves
    the entries coprime.  Over a field the rows as they are."""
    if dom.is_field:
        return tuple(rows)
    return tuple(tuple(clear_denominators(r)) for r in rows)


def span_rows(dom: CoefficientDomain, rows, width: int) -> tuple[tuple, ...]:
    """Canonical echelon basis of the span (over Q for Z) of the given rows."""
    ech = make_echelon(dom, width)
    for r in rows:
        ech.insert(tuple(r))
    return _integral(dom, ech.rows())


def kernel_rows(dom: CoefficientDomain, rows, width: int) -> tuple[tuple, ...]:
    """Canonical basis of {c : sum_i c_i * rows[i] = 0}.

    ``rows`` are n vectors of length ``width``; the kernel lives in the
    n-dimensional coefficient space.  Computed by echelonizing ``[M | I]``
    and projecting the rows whose M part vanished.
    """
    n = len(rows)
    if n == 0:
        return ()
    one, zero = dom.one(), dom.zero()
    aug = []
    for i, r in enumerate(rows):
        tail = [zero] * n
        tail[i] = one
        aug.append(tuple(r) + tuple(tail))
    ech = make_echelon(dom, width + n)
    for r in aug:
        ech.insert(r)
    return _integral(dom, (r[width:] for r in ech.rows() if not any(r[:width])))
