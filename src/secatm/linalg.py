"""Exact echelon forms, spans, membership and kernels.

Field components come out in reduced row echelon form; integer components
are kept in row Hermite normal form.  Both forms are canonical for the span
they carry, so every stored spanning set, kernel and certificate is
reproducible bit for bit across runs.  Over Q the echelon works in Python
ints (primitive integer rows) and forms the ``Fraction`` RREF only when its
rows are read.

Vectors are tuples of domain scalars; over Q ints are accepted as well.
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
    "vis_zero",
]


def vzero(dom: CoefficientDomain, width: int) -> tuple:
    z = dom.zero()
    return (z,) * width


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
    """Reduced row echelon span over a field domain (Q or F_p).

    Over F_p rows are int lists in RREF, reduced with one ``% p`` per entry.
    Over Q rows are fraction-free (Bareiss 1968): each is a primitive integer
    vector with a positive pivot and zeros in every other pivot column, so
    dividing it by its pivot gives the RREF row.  That division happens only
    in ``rows()``; inputs may hold ints or ``Fraction``s and have their
    denominators cleared once.
    """

    def __init__(self, dom: CoefficientDomain, width: int):
        assert dom.is_field
        self.dom = dom
        self.width = width
        self._p = dom.p  # None over Q
        self._rows: list[list[int]] = []   # sorted by pivot column
        self._pivots: list[int] = []       # pivot column of each row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def is_full(self) -> bool:
        return len(self._rows) == self.width

    def reduce(self, v: tuple) -> list[int]:
        """v minus its projection onto the span; over Q only up to a nonzero
        integer factor.  Zero exactly when v lies in the span."""
        p = self._p
        if p is not None:
            for piv, row in zip(self._pivots, self._rows):
                c = v[piv]
                if c:
                    v = [(x - c * y) % p for x, y in zip(v, row)]
            return list(v)
        den = lcm(*[a.denominator for a in v])
        v = [a.numerator * (den // a.denominator) for a in v]
        for piv, row in zip(self._pivots, self._rows):
            c = v[piv]
            if c:
                v = _eliminate(v, row, piv, c)
        return v

    def contains(self, v: tuple) -> bool:
        return not any(self.reduce(v))

    def insert(self, v: tuple) -> bool:
        """Add v to the span; True if the rank grew."""
        r = self.reduce(v)
        lead = _leading(r)
        if lead is None:
            return False
        p = self._p
        if p is not None:
            inv = pow(r[lead], p - 2, p)
            r = [x * inv % p for x in r]
        else:
            g = gcd(*r)
            if r[lead] < 0:
                g = -g
            r = [x // g for x in r]
        # clear the new pivot column from the existing rows
        for i, row in enumerate(self._rows):
            c = row[lead]
            if c:
                if p is not None:
                    self._rows[i] = [(x - c * y) % p for x, y in zip(row, r)]
                else:
                    self._rows[i] = _eliminate(row, r, lead, c)
        pos = 0
        while pos < len(self._pivots) and self._pivots[pos] < lead:
            pos += 1
        self._rows.insert(pos, r)
        self._pivots.insert(pos, lead)
        return True

    def rows(self) -> tuple[tuple, ...]:
        if self._p is not None:
            return tuple(tuple(r) for r in self._rows)
        zero = Fraction(0)
        return tuple(
            tuple(Fraction(x, r[piv]) if x else zero for x in r)
            for piv, r in zip(self._pivots, self._rows)
        )


def _eliminate(v: list[int], row: list[int], piv: int, c: int) -> list[int]:
    """``p*v - c*row`` over gcd(p, c), divided by its content, where
    ``c = v[piv]`` and ``p = row[piv] > 0``: zero at ``piv``, and a positive
    multiple of v on every column where row is zero."""
    p = row[piv]
    g = gcd(p, c)
    p, c = p // g, c // g
    if p == 1:
        v = [x - c * y for x, y in zip(v, row)]
    else:
        v = [p * x - c * y for x, y in zip(v, row)]
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


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

    def is_full(self) -> bool:
        # full means the whole component Z^width, not merely full rank
        return len(self._rows) == self.width and all(
            row[piv] == 1 for piv, row in zip(self._pivots, self._rows)
        )

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
    return FieldEchelon(dom, width) if dom.is_field else IntEchelon(dom, width)


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
