"""Exact echelon forms, spans, membership and kernels.

One echelon serves every field: ``FieldEchelon`` keeps sparse rows over Q
and F_p, eliminates forward only, which is all that membership tests and
ranks need, and back-substitutes once, when its rows are read, into the
reduced row echelon form.  Over Q it works in Python ints (primitive
integer rows) and forms the ``Fraction`` RREF only then.  Integer
components are kept in row Hermite normal form by ``IntEchelon``.  Both
read-out forms are canonical for the span they carry, so every stored
spanning set, kernel and certificate is reproducible bit for bit across
runs.

Vectors are tuples of domain scalars; over Q ints are accepted as well, and
``FieldEchelon`` takes dicts of nonzero entries too.
Kernels over Z are computed by unimodular row reduction of the augmented
matrix ``[M | I]``: the rows whose ``M`` part vanishes project onto a basis
of the full kernel lattice, which is the same lattice a Smith-normal-form
computation yields.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .domains import CoefficientDomain

__all__ = [
    "FieldEchelon",
    "IntEchelon",
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


def _leading(u: tuple) -> int | None:
    for i, a in enumerate(u):
        if a != 0:
            return i
    return None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


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


class IntEchelon:
    """Hermite-normal-form lattice span over Z.

    Pivots are positive and entries above each pivot are reduced into
    ``[0, pivot)``, which makes ``rows()`` canonical for the lattice.
    """

    def __init__(self, dom: CoefficientDomain, width: int):
        assert not dom.is_field
        self.dom = dom
        self.width = width
        self._rows: list[list[int]] = []  # sorted by pivot column
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _row_at_pivot(self, col: int) -> int | None:
        for i, piv in enumerate(self._pivots):
            if piv == col:
                return i
            if piv > col:
                return None
        return None

    def insert(self, v: tuple) -> bool:
        v = [int(a) for a in v]
        rank_grew = False
        touched = False
        while True:
            lead = _leading(tuple(v))
            if lead is None:
                break
            i = self._row_at_pivot(lead)
            if i is None:
                if v[lead] < 0:
                    v = [-a for a in v]
                pos = 0
                while pos < len(self._pivots) and self._pivots[pos] < lead:
                    pos += 1
                self._rows.insert(pos, v)
                self._pivots.insert(pos, lead)
                rank_grew = True
                touched = True
                break
            row = self._rows[i]
            p, a = row[lead], v[lead]
            if a % p == 0:
                q = a // p
                v = [x - q * y for x, y in zip(v, row)]
            else:
                g, s, t = _xgcd(p, a)
                new_row = [s * x + t * y for x, y in zip(row, v)]
                v = [(p // g) * y - (a // g) * x for x, y in zip(row, v)]
                self._rows[i] = new_row
                touched = True
        if touched:
            self._reduce_above()
        return rank_grew

    def _reduce_above(self) -> None:
        # canonical HNF: positive pivots, entries above each pivot in [0, pivot).
        # Left-to-right order matters: reducing at an early pivot can reintroduce
        # entries in later pivot columns, which later passes then clean up.
        for i in range(len(self._rows)):
            piv = self._pivots[i]
            p = self._rows[i][piv]
            if p < 0:  # pragma: no cover - pivots kept positive on insert
                self._rows[i] = [-a for a in self._rows[i]]
                p = -p
            for k in range(i):
                c = self._rows[k][piv]
                q = c // p
                if q != 0:
                    self._rows[k] = [
                        x - q * y for x, y in zip(self._rows[k], self._rows[i])
                    ]

    def reduce(self, v: tuple) -> tuple:
        """Subtract integral multiples of the basis; zero iff v is in the lattice."""
        v = [int(a) for a in v]
        for piv, row in zip(self._pivots, self._rows):
            c = v[piv]
            if c != 0 and c % row[piv] == 0:
                q = c // row[piv]
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, v: tuple) -> bool:
        return vis_zero(self.reduce(v))

    def rows(self) -> tuple[tuple, ...]:
        return tuple(tuple(r) for r in self._rows)


def make_echelon(dom: CoefficientDomain, width: int):
    return FieldEchelon(width, dom.p) if dom.is_field else IntEchelon(dom, width)


def span_rows(dom: CoefficientDomain, rows, width: int) -> tuple[tuple, ...]:
    """Canonical echelon basis of the span (lattice over Z) of the given rows."""
    ech = make_echelon(dom, width)
    for r in rows:
        ech.insert(tuple(r))
    return ech.rows()


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
    return tuple(r[width:] for r in ech.rows() if not any(r[:width]))
