"""Finite graded-commutative algebras, their morphisms and subspaces.

An algebra is presented by an ordered basis per degree and structure
constants for basis products.  Constructors check the unit law, the graded
sign law on every pair and associativity through the generators; derived
constructions (tensor squares, Kunneth products) inherit those laws from
their factors and can be re-checked with :meth:`GradedAlgebra.validate`.
"""

from __future__ import annotations

import functools

from .domains import CoefficientDomain
from . import linalg
from .linalg import FieldEchelon, make_echelon, span_rows, kernel_rows, vis_zero, vunit, vzero

__all__ = [
    "AlgebraError",
    "UnitViolation",
    "CommutativityViolation",
    "AssociativityViolation",
    "InvalidAlgebraSpec",
    "AlgebraMismatch",
    "CoefficientMismatch",
    "MorphismMismatch",
    "MultiplicativityViolation",
    "GradedAlgebra",
    "TensorProduct",
    "Element",
    "RingMorphism",
    "Subspace",
    "make_algebra",
    "tensor_square",
    "kunneth_product",
    "tensor_morphism",
    "kernel",
]


class AlgebraError(ValueError):
    """Base class for algebra construction and usage errors."""


class UnitViolation(AlgebraError):
    pass


class CommutativityViolation(AlgebraError):
    pass


class AssociativityViolation(AlgebraError):
    pass


class InvalidAlgebraSpec(AlgebraError):
    pass


class AlgebraMismatch(AlgebraError):
    pass


class CoefficientMismatch(AlgebraError):
    pass


class MorphismMismatch(AlgebraError):
    pass


class MultiplicativityViolation(AlgebraError):
    pass


def _koszul_sign_is_neg(d1: int, d2: int) -> bool:
    return (d1 % 2 == 1) and (d2 % 2 == 1)


def _as_int(c):
    """c as an int when it is integral, else the ``Fraction`` it is: ints
    multiply much faster."""
    return c.numerator if c.denominator == 1 else c


def _terms(row) -> list:
    """The nonzero ``(index, c)`` pairs of a row, integral rationals made
    ints (``_as_int``)."""
    return [(j, _as_int(c)) for j, c in enumerate(row) if c]


def _reduced(sums: dict, p: int | None) -> dict:
    """The nonzero entries of sums taken in Python arithmetic, mod p over
    F_p."""
    if p is None:
        return {j: c for j, c in sums.items() if c}
    return {j: c % p for j, c in sums.items() if c % p}


def _index_of(names) -> dict:
    """Basis name -> ``(degree, index)``; a name used twice is an error."""
    index = {}
    for d, ns in enumerate(names):
        for i, n in enumerate(ns):
            if n in index:
                raise InvalidAlgebraSpec(f"duplicate basis name {n!r}")
            index[n] = (d, i)
    return index


class GradedAlgebra:
    """Finite graded-commutative algebra over Q, F_p or Z.

    ``names[d]`` is the ordered basis of the degree-d component (degree 0 has
    rank one, spanned by the unit).  ``table[(d1, i1, d2, i2)]`` holds the
    coefficient tuple of ``names[d1][i1] * names[d2][i2]`` over the basis of
    degree ``d1 + d2``; absent keys mean the product is zero.  Products with
    the unit follow the unit law and have no table entries.  Instances are
    immutable after construction and safe to share; what the cup-length
    bounds read of one (``generators``, ``constants``, ``square_layout``)
    is built on first read and lives as long as it does.
    """

    def __init__(self, coeff, names, table, validate=True):
        self.coeff: CoefficientDomain = coeff
        self.names: tuple[tuple[str, ...], ...] = tuple(tuple(ns) for ns in names)
        self.top_degree: int = len(self.names) - 1
        self._dims: tuple[int, ...] = tuple(len(ns) for ns in self.names)
        self._index = _index_of(self.names)
        if self._dims[0] != 1:
            raise InvalidAlgebraSpec("degree-0 component must have rank 1 (the unit)")
        self.table: dict = dict(table)
        for key in self.table:
            if key[0] == 0 or key[2] == 0:
                raise UnitViolation(
                    f"table entry {key} has a degree-0 factor: products with the "
                    f"unit follow the unit law and are not listed")
        if validate:
            self.validate()

    # -- basic queries ---------------------------------------------------
    def dim(self, d: int) -> int:
        if 0 <= d <= self.top_degree:
            return self._dims[d]
        return 0

    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def total_dim(self) -> int:
        return sum(self.dims())

    @property
    def unit_name(self) -> str:
        return self.names[0][0]

    # -- products on basis indices ----------------------------------------
    def mul_basis(self, d1: int, i1: int, d2: int, i2: int) -> tuple | None:
        """Coefficient tuple of the product in degree d1+d2, None if zero."""
        if d1 + d2 > self.top_degree:
            return None
        if d1 == 0 or d2 == 0:  # the unit law
            d, i = (d2, i2) if d1 == 0 else (d1, i1)
            return vunit(self.coeff, self.dim(d), i)
        return self.table.get((d1, i1, d2, i2))

    def mul_vectors(self, d1: int, v1: tuple, d2: int, v2: tuple) -> tuple | None:
        """Bilinear product of degree-homogeneous coefficient vectors."""
        d = d1 + d2
        if d > self.top_degree:
            return None
        dom = self.coeff
        out = list(vzero(dom, self.dim(d)))
        for i1, a in enumerate(v1):
            if a == 0:
                continue
            for i2, b in enumerate(v2):
                if b == 0:
                    continue
                row = self.mul_basis(d1, i1, d2, i2)
                if row is None:
                    continue
                ab = dom.mul(a, b)
                for j, c in enumerate(row):
                    if c != 0:
                        out[j] = dom.add(out[j], dom.mul(ab, c))
        return tuple(out)

    # -- what the cup-length bounds read, built on first read and kept -------
    @functools.cached_property
    def generators(self) -> tuple[tuple[int, int], ...]:
        """``(degree, index)`` of the basis classes of positive degree that
        generate the algebra: degree by degree, in basis order, each class
        that grows the rank of the decomposables and the classes kept before
        it.  Ranks are taken over F_p for a prime field and over Q
        otherwise; the cup-length DP decides vanishing by rank over Q, so
        over Z these generate for it as well.  The decomposables are the
        products between positive degrees in ``constants``."""
        echelons = [FieldEchelon(n, self.coeff.p) for n in self.dims()]
        for (d1, _), row in self.constants.items():
            if d1:
                for (d2, _), nz in row.items():
                    e = echelons[d1 + d2]
                    if d2 and e.rank < e.width:
                        e.insert(dict(nz))
        generators = []
        for d in range(1, self.top_degree + 1):
            e = echelons[d]
            for i in range(e.width):
                if e.rank == e.width:
                    break
                if e.insert({i: 1}):
                    generators.append((d, i))
        return tuple(generators)

    @functools.cached_property
    def constants(self) -> dict:
        """Every nonzero basis product, products by the unit included:
        ``(d1, i1)`` maps ``(d2, i2)`` to the nonzero ``(index, c)`` pairs
        of the product of class i1 of degree d1 by class i2 of degree d2,
        integral scalars as ints (``_terms``), keys in basis order and
        entries in ``table`` order.  :meth:`product` multiplies by them
        and :meth:`validate` checks them; a row object the table shares
        between products is converted once."""
        out = {(d, i): {(0, 0): ((i, 1),)}
               for d in range(self.top_degree + 1) for i in range(self.dim(d))}
        out[(0, 0)] = {key: row[(0, 0)] for key, row in out.items()}
        seen = {}  # id(row) -> its nonzero entries
        for (d1, i1, d2, i2), row in self.table.items():
            nz = seen.get(id(row))
            if nz is None:
                nz = seen[id(row)] = tuple(_terms(row))
            if nz:
                out[(d1, i1)][(d2, i2)] = nz
        return out

    @functools.cached_property
    def square_layout(self) -> tuple:
        """The ``_kunneth_layout`` that every tensor square of this algebra
        shares: it holds no algebra, so a square dies on its own."""
        return _kunneth_layout(self._dims, self._dims)

    def product_keys(self, ds: int, s) -> list:
        """Per ``(index, b)`` of s, a degree-ds vector as nonzero pairs, the
        key of its class in ``constants`` and b: the form :meth:`product`
        reads s in."""
        return [((ds, k), b) for k, b in s]

    def product(self, dv: int, v, ds: int, keys) -> dict:
        """v * s as the dict of its nonzero entries (mod p over F_p): v of
        degree dv as nonzero ``(index, c)`` pairs, s of degree ds as its
        ``product_keys``.  One constant lookup per pair of support classes,
        in Python arithmetic on ints, and on a ``Fraction`` only where a
        scalar is not integral."""
        constants = self.constants
        acc: dict[int, int] = {}
        for k, a in v:
            row = constants[(dv, k)]
            for key, b in keys:
                nz = row.get(key)
                if nz is not None:
                    ab = a * b
                    for j, c in nz:
                        acc[j] = acc.get(j, 0) + ab * c
        return _reduced(acc, self.coeff.p)

    # -- elements ----------------------------------------------------------
    def zero_element(self) -> "Element":
        return Element(self, {})

    def unit_element(self) -> "Element":
        return self.basis_element(self.unit_name)

    def basis_element(self, name: str) -> "Element":
        d, i = self._index[name]
        return Element(self, {d: vunit(self.coeff, self.dim(d), i)})

    def element(self, combo: dict) -> "Element":
        """Element from a {basis name: scalar} mapping."""
        comps: dict[int, list] = {}
        for name, c in combo.items():
            d, i = self._index[name]
            comps.setdefault(d, list(vzero(self.coeff, self.dim(d))))
            comps[d][i] = self.coeff.add(comps[d][i], c)
        return Element(self, {d: tuple(v) for d, v in comps.items()})

    def component_element(self, d: int, v: tuple) -> "Element":
        return Element(self, {d: tuple(v)})

    # -- validation ----------------------------------------------------------
    def _check_shape(self) -> None:
        """Every product of the table lands in a degree of the algebra, in
        a row of that degree's width."""
        for (d1, i1, d2, i2), row in self.table.items():
            if d1 + d2 > self.top_degree:
                raise InvalidAlgebraSpec(
                    f"product of {self.names[d1][i1]!r} and {self.names[d2][i2]!r} "
                    f"lands beyond top degree {self.top_degree}"
                )
            if len(row) != self.dim(d1 + d2):
                raise InvalidAlgebraSpec("structure constant row has wrong width")

    def validate(self) -> None:
        """Re-check the table's shape (``_check_shape``), the graded sign
        law on every pair and associativity on the triples (x, b, c) with x
        in ``generators`` (the unit law holds by construction), on the kept
        ``constants``.  Every class of positive degree is a sum of products
        xw with x a generator, so by induction on the degree of a = xw every
        triple follows:
        ((xw)b)c = (x(wb))c = x((wb)c) = x(w(bc)) = (xw)(bc); over Z ranks
        over Q suffice, as components are free.  When a generator shows a
        violation, every first class is scanned, so the first violation in
        basis order is reported."""
        self._check_shape()
        # A law can fail only where one side is nonzero, and products with
        # the unit follow the unit law, so both are checked on the nonzero
        # products between positive degrees.
        p = self.coeff.p
        products = {x: {y: nz for y, nz in row.items() if y[0]}
                    for x, row in self.constants.items() if x[0]}
        bad = []
        for x, row in products.items():
            for y, xy in row.items():
                yx = products[y].get(x, ())
                if _koszul_sign_is_neg(x[0], y[0]):
                    yx = tuple((j, -c) for j, c in yx)
                if xy != yx and _reduced(dict(xy), p) != _reduced(dict(yx), p):
                    bad.append(min(x + y, y + x))
        if bad:
            d1, i1, d2, i2 = min(bad)
            raise CommutativityViolation(
                f"{self.names[d1][i1]!r} * {self.names[d2][i2]!r} violates "
                f"the graded sign law"
            )
        involving = {}  # u -> ((b, c), e) for u in bc at coefficient e
        for b, row in products.items():
            for c, bc in row.items():
                for j, e in bc:
                    involving.setdefault((b[0] + c[0], j), []).append(((b, c), e))

        def violations(x) -> list:
            """The (b, c) with (xb)c != x(bc)."""
            diff = {}  # (b, c) -> the entries of (xb)c - x(bc)
            for b, xb in products[x].items():
                for j, a in xb:
                    for c, wc in products[(x[0] + b[0], j)].items():
                        acc = diff.setdefault((b, c), {})
                        for k, e in wc:
                            acc[k] = acc.get(k, 0) + a * e
            for u, xu in products[x].items():
                for bc, e in involving.get(u, ()):
                    acc = diff.setdefault(bc, {})
                    for k, a in xu:
                        acc[k] = acc.get(k, 0) - e * a
            return [bc for bc, acc in diff.items() if _reduced(acc, p)]

        if any(map(violations, self.generators)):
            for x in products:
                found = violations(x)
                if found:
                    x, y, z = (self.names[d][i] for d, i in (x, *min(found)))
                    raise AssociativityViolation(
                        f"({x!r} * {y!r}) * {z!r} differs from "
                        f"{x!r} * ({y!r} * {z!r})"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GradedAlgebra({self.coeff.label}, dims={list(self.dims())})"
        )


class Element:
    """Sparse element of a graded algebra: degree -> coefficient tuple."""

    def __init__(self, algebra: GradedAlgebra, comps: dict):
        self.algebra = algebra
        clean = {}
        for d, v in comps.items():
            v = tuple(v)
            if len(v) != algebra.dim(d):
                raise InvalidAlgebraSpec(f"component width mismatch in degree {d}")
            if not vis_zero(v):
                clean[d] = v
        self.comps: dict[int, tuple] = dict(sorted(clean.items()))

    def is_zero(self) -> bool:
        return not self.comps

    def is_homogeneous(self) -> bool:
        return len(self.comps) <= 1

    @property
    def degree(self) -> int:
        """Degree of a homogeneous nonzero element."""
        if len(self.comps) != 1:
            raise ValueError("degree is defined for nonzero homogeneous elements")
        return next(iter(self.comps))

    # -- arithmetic ---------------------------------------------------------
    def _check_same(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        dom = self.algebra.coeff
        comps = dict(self.comps)
        for d, v in other.comps.items():
            comps[d] = linalg.vadd(dom, comps.get(d, vzero(dom, len(v))), v)
        return Element(self.algebra, comps)

    def __neg__(self) -> "Element":
        dom = self.algebra.coeff
        return Element(self.algebra, {d: linalg.vneg(dom, v) for d, v in self.comps.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        dom = self.algebra.coeff
        return Element(self.algebra, {d: linalg.vscale(dom, c, v) for d, v in self.comps.items()})

    def __mul__(self, other: "Element") -> "Element":
        self._check_same(other)
        alg = self.algebra
        dom = alg.coeff
        comps: dict[int, list] = {}
        for d1, v1 in self.comps.items():
            for d2, v2 in other.comps.items():
                prod = alg.mul_vectors(d1, v1, d2, v2)
                if prod is None:
                    continue
                d = d1 + d2
                if d in comps:
                    comps[d] = list(linalg.vadd(dom, tuple(comps[d]), prod))
                else:
                    comps[d] = list(prod)
        return Element(alg, {d: tuple(v) for d, v in comps.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.comps == other.comps
        )

    def __hash__(self):  # elements are value-immutable
        return hash((id(self.algebra), tuple(self.comps.items())))

    def __repr__(self) -> str:
        return f"Element({self.format()})"

    def format(self) -> str:
        """Deterministic human-readable linear combination."""
        if self.is_zero():
            return "0"
        dom = self.algebra.coeff
        parts = []
        for d, v in self.comps.items():
            for i, c in enumerate(v):
                if c == 0:
                    continue
                name = self.algebra.names[d][i]
                if c == dom.one():
                    term = name
                elif c == dom.neg(dom.one()) and dom.kind != "prime_field":
                    term = f"-{name}"
                else:
                    term = f"{dom.format_scalar(c)}*{name}"
                parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += f" - {term[1:]}"
            else:
                out += f" + {term}"
        return out


# ---------------------------------------------------------------------------
# construction from a basis/products description
# ---------------------------------------------------------------------------

def make_algebra(coeff, basis, products, validate=True) -> GradedAlgebra:
    """Build and validate a graded algebra.

    ``basis`` maps degree -> ordered sequence of names (degree 0 defaults to
    a unit called "1" if omitted).  ``products`` is an iterable of
    ``(left_name, right_name, {name: scalar})`` triples; omitted products are
    zero, products with the unit follow the unit law, and an omitted mirror
    of a listed pair is filled in with the graded sign.  ``validate=False``
    skips :meth:`GradedAlgebra.validate` (the sign law on every pair,
    associativity on the triples led by a generator) for products known to
    obey its laws (names, degrees and the unit law are always checked).
    """
    basis = {int(d): list(ns) for d, ns in dict(basis).items()}
    if 0 not in basis:
        basis[0] = ["1"]
    top = max(basis)
    names = [tuple(basis.get(d, ())) for d in range(top + 1)]
    while names and not names[-1]:
        names.pop()
    top = len(names) - 1

    index = _index_of(names)
    if len(names[0]) != 1:
        raise InvalidAlgebraSpec("degree-0 component must have rank 1 (the unit)")
    unit = names[0][0]

    dims = [len(ns) for ns in names]
    table: dict = {}
    given: set = set()
    for left, right, value in products:
        if left not in index or right not in index:
            missing = left if left not in index else right
            raise InvalidAlgebraSpec(f"unknown basis name {missing!r} in product list")
        d1, i1 = index[left]
        d2, i2 = index[right]
        d = d1 + d2
        row = [coeff.zero()] * (dims[d] if d <= top else 0)
        for name, c in dict(value).items():
            if name not in index:
                raise InvalidAlgebraSpec(f"unknown basis name {name!r} in product value")
            dn, j = index[name]
            c = coeff.parse_scalar(c)
            if coeff.is_zero(c):
                continue
            if d > top or dn != d:
                raise InvalidAlgebraSpec(
                    f"product {left!r} * {right!r} must be homogeneous of degree {d}"
                )
            row[j] = coeff.add(row[j], c)
        if unit in (left, right):
            other = right if left == unit else left
            do, io = index[other]
            if d > top or tuple(row) != vunit(coeff, dims[do], io):
                raise UnitViolation(f"declared product {left!r} * {right!r} breaks the unit law")
            continue
        key = (d1, i1, d2, i2)
        if key in given:
            raise InvalidAlgebraSpec(f"product {left!r} * {right!r} listed twice")
        given.add(key)
        if d <= top and not vis_zero(tuple(row)):
            table[key] = tuple(row)

    # fill omitted mirrors with the graded sign
    for (d1, i1, d2, i2) in list(given):
        mirror = (d2, i2, d1, i1)
        if mirror in given:
            continue
        row = table.get((d1, i1, d2, i2))
        if row is None:
            continue
        if _koszul_sign_is_neg(d1, d2):
            row = tuple(coeff.neg(a) for a in row)
        table[mirror] = row

    return GradedAlgebra(coeff, names, table, validate=validate)


# ---------------------------------------------------------------------------
# tensor constructions
# ---------------------------------------------------------------------------

def _kunneth_layout(ldims, rdims) -> tuple:
    """``(dims, kunneth_pairs, block_start)`` of a :class:`TensorProduct` of
    factors of dimensions ldims and rdims, from the nonzero degrees only."""
    pairs = [[] for _ in range(len(ldims) + len(rdims) - 1)]
    starts = []
    rnonzero = [(q, n) for q, n in enumerate(rdims) if n]
    for p, m in enumerate(ldims):
        at = [None] * len(rdims)
        for q, n in rnonzero if m else ():
            block = pairs[p + q]
            # blocks of one degree come in order of p
            at[q] = len(block)
            block.extend((p, i, q, j) for i in range(m) for j in range(n))
        starts.append(tuple(at))
    return tuple(map(len, pairs)), dict(enumerate(map(tuple, pairs))), tuple(starts)


class TensorProduct(GradedAlgebra):
    """Graded tensor product ``left (x) right`` with Koszul signs, whose
    products are computed from the factors' on demand:
    ``(a (x) b)(a' (x) b') = (-1)^(|b| |a'|) (a a') (x) (b b')``.

    The classes ``a (x) b`` with ``a`` of degree p and ``b`` of degree q form
    one block of degree p + q, listed a-major: ``kunneth_pairs[p + q]`` holds
    their factor classes ``(p, i, q, j)`` from slot ``block_start[p][q]`` on
    (None for an empty block), and :meth:`slot` gives the slot of each.  The
    constructor reads only these and the dimensions from ``_kunneth_layout``
    (a square from its factor's ``square_layout``, built once), which visits
    only the pairs of nonzero factor degrees: a sphere costs its few blocks,
    not (top + 1)^2 pairs.  The names ``a(x)b`` and the name index are built
    on first read (formatting, parsing).
    ``mul_basis`` multiplies in the factors' ``mul_basis``, so elements,
    certificates and the cup-length bounds never need the 4-index
    ``table``.  ``generators``, ``constants`` and ``product`` come from the
    factors' ``generators`` and ``constants``; ``validate`` checks the
    product's ``constants``, and ``table``, built on first read and kept,
    densifies them.  Valid over a field, and over Z because all components
    are free.
    """

    def __init__(self, left: GradedAlgebra, right: GradedAlgebra):
        if left.coeff != right.coeff:
            raise CoefficientMismatch(
                f"cannot tensor algebras over {left.coeff.label} and {right.coeff.label}"
            )
        self.left, self.right, self.coeff = left, right, left.coeff
        self.top_degree = left.top_degree + right.top_degree
        self._right_dims = right.dims()
        self._dims, self.kunneth_pairs, self.block_start = (
            left.square_layout if left is right else _kunneth_layout(left.dims(), right.dims()))

    @functools.cached_property
    def names(self) -> tuple[tuple[str, ...], ...]:
        lnames, rnames = self.left.names, self.right.names
        return tuple(tuple(f"{lnames[p][i]}(x){rnames[q][j]}" for p, i, q, j in block)
                     for block in self.kunneth_pairs.values())

    @functools.cached_property
    def _index(self) -> dict:
        return _index_of(self.names)

    def slot(self, p: int, i: int, q: int, j: int) -> int:
        """The index of ``a (x) b`` in the degree-(p + q) basis, for ``a``
        class i of degree p of the left factor and ``b`` class j of degree q
        of the right."""
        return self.block_start[p][q] + i * self._right_dims[q] + j

    def mul_basis(self, d1: int, k1: int, d2: int, k2: int) -> tuple | None:
        if d1 + d2 > self.top_degree or not (d1 and d2):
            return super().mul_basis(d1, k1, d2, k2)  # zero or the unit law
        p1, i1, q1, j1 = self.kunneth_pairs[d1][k1]
        p2, i2, q2, j2 = self.kunneth_pairs[d2][k2]
        a = self.left.mul_basis(p1, i1, p2, i2)
        b = self.right.mul_basis(q1, j1, q2, j2)
        if a is None or b is None:
            return None
        dom, p, q = self.coeff, p1 + p2, q1 + q2
        neg = _koszul_sign_is_neg(q1, p2)
        row = [dom.zero()] * self.dim(d1 + d2)
        for ia, ca in enumerate(a):
            for jb, cb in enumerate(b):
                if ca and cb:
                    c = dom.mul(ca, cb)
                    row[self.slot(p, ia, q, jb)] = dom.neg(c) if neg else c
        return None if vis_zero(row) else tuple(row)

    @functools.cached_property
    def generators(self) -> tuple[tuple[int, int], ...]:
        """Ranked without the table: the degree-d decomposables are the
        blocks A_p (x) B_(d-p) for 0 < p < d, 1 (x) dec(B_d) and dec(A_d)
        (x) 1, so the generators are the slots of g (x) 1 and 1 (x) h for
        the factors' generators g and h."""
        return tuple(sorted([(d, self.slot(0, 0, d, j)) for d, j in self.right.generators] +
                            [(d, self.slot(d, i, 0, 0)) for d, i in self.left.generators]))

    @functools.cached_property
    def constants(self) -> dict:
        """The constants of :class:`GradedAlgebra`, keys in basis order,
        built from the factors' ``constants``: the product of ``a (x) b``
        by ``a' (x) b'`` for each pair of nonzero products aa' and bb',
        each entry ``ca * cb`` negated by the Koszul sign, in slot order.
        Python arithmetic, exact over Q and Z, not reduced over F_p; each
        pair of nonzero factor coefficients lands in its own slot with a
        nonzero product (Q, F_p and Z have no zero divisors).  Read by the
        validators, by :attr:`table` and where the product is itself a
        factor, as :meth:`product` multiplies through the factors'."""
        left, right = self.left.constants, self.right.constants
        bdims, starts = self._right_dims, self.block_start
        out = {}
        for d, pairs in self.kunneth_pairs.items():
            for k, (p1, i1, q1, j1) in enumerate(pairs):
                rights = right[(q1, j1)].items()
                row = out[(d, k)] = {}
                for (p2, i2), anz in left[(p1, i1)].items():
                    neg = q1 & p2 & 1  # the Koszul sign: |b| and |a'| both odd
                    at, at2 = starts[p1 + p2], starts[p2]
                    for (q2, j2), bnz in rights:
                        q = q1 + q2
                        base, wb = at[q], bdims[q]
                        row[(p2 + q2, at2[q2] + i2 * bdims[q2] + j2)] = tuple(
                            (base + ia * wb + jb, -(ca * cb) if neg else ca * cb)
                            for ia, ca in anz for jb, cb in bnz)
        return out

    def product_keys(self, ds: int, s) -> list:
        """Per ``(index, b)`` of s, its factor classes' keys and degrees and
        b."""
        pairs = self.kunneth_pairs[ds]
        return [((p, i), (q, j), p, q, b) for k, b in s for p, i, q, j in (pairs[k],)]

    def product(self, dv: int, v, ds: int, keys) -> dict:
        """Multiplies through the factors' ``constants``: ``(a (x) b)(a'
        (x) b') = (-1)^(|b| |a'|) (a a') (x) (b b')``, never reading the
        product's own table or constants."""
        left, right = self.left.constants, self.right.constants
        pv, starts, widths = self.kunneth_pairs[dv], self.block_start, self._right_dims
        acc: dict[int, int] = {}
        for k, a in v:
            p1, i1, q1, j1 = pv[k]
            lrow, rrow = left[(p1, i1)], right[(q1, j1)]
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
        return _reduced(acc, self.coeff.p)

    def _check_shape(self) -> None:
        """Nothing to check, and no ``table`` to build for it:
        :attr:`constants` puts each product of factor classes in the slots
        of its own degree's blocks, so every product lands in a degree of
        the algebra, in a row of that degree's width."""

    @functools.cached_property
    def table(self) -> dict:
        """The 4-index table of :class:`GradedAlgebra`, keys in
        ``(d1, k1, d2, k2)`` order, densified from :attr:`constants`: each
        entry reduced mod p and made a domain scalar; equal product rows
        share one tuple, keyed on their nonzero entries."""
        dom = self.coeff
        table, shared, zero, p, dims = {}, {}, dom.zero(), dom.p, self.dims()
        for (d1, k1), products in self.constants.items():
            if not d1:
                continue
            for (d2, k2), nz in products.items():
                if not d2:
                    continue  # the unit law, which the table leaves out
                d = d1 + d2
                if p is not None:
                    nz = tuple((slot, c % p) for slot, c in nz)
                row = shared.get((d, nz))
                if row is None:
                    row = [zero] * dims[d]
                    for slot, c in nz:
                        row[slot] = dom.parse_scalar(c)
                    row = shared[(d, nz)] = tuple(row)
                table[(d1, k1, d2, k2)] = row
        return dict(sorted(table.items()))


def kunneth_product(A: GradedAlgebra, B: GradedAlgebra):
    """The Kunneth product ``A (x) B`` as a :class:`TensorProduct`, with the
    inclusions ``a -> a (x) 1`` and ``b -> 1 (x) b``: ``(C, incl_A,
    incl_B)``.  C's table and the inclusions' matrices are built only when
    read, so a product of spaces costs its dimensions and slots until
    something multiplies in it."""
    T = TensorProduct(A, B)
    return T, _Inclusion(T, True), _Inclusion(T, False)


def tensor_square(A: GradedAlgebra):
    """``kunneth_product(A, A)``: a new tensor square behind the
    zero-divisor bound, with the two inclusions.  ``engine._lower_source``
    writes the zero divisors ``1 (x) g - g (x) 1`` of the generators g into
    it itself, in canonical echelon form."""
    return kunneth_product(A, A)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class RingMorphism:
    """Degree-preserving unital algebra map given by per-degree matrices.

    ``mats[d]`` has one row per source basis element of degree d; each row is
    its image over the target degree-d basis.  Missing degrees map to zero.
    """

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra, mats, validate=True):
        if source.coeff != target.coeff:
            raise CoefficientMismatch("morphism endpoints use different coefficients")
        self.source = source
        self.target = target
        full: dict[int, tuple] = {}
        for d in range(source.top_degree + 1):
            rows = mats.get(d)
            if rows is None:
                rows = tuple(
                    vzero(source.coeff, target.dim(d)) for _ in range(source.dim(d))
                )
            rows = tuple(tuple(r) for r in rows)
            if len(rows) != source.dim(d) or any(
                len(r) != target.dim(d) for r in rows
            ):
                raise MorphismMismatch(f"matrix shape mismatch in degree {d}")
            full[d] = rows
        self.mats = full
        if validate:
            self.validate()

    def validate(self) -> None:
        """Check that the unit goes to the unit and that ``f(xy) = f(x)f(y)``
        for the pairs of basis classes whose degrees sum to at most the
        target's top degree and whose x is a generator of the source, on the
        kept ``constants``.  Between associative algebras, as validated ones
        are, that gives every pair by induction on the degree of a = xw:
        f((xw)y) = f(x(wy)) = f(x)f(wy) = f(x)(f(w)f(y)) = f(xw)f(y).  When a
        generator shows a violation, every first class is scanned, so the
        first violation in basis order is reported."""
        dom = self.source.coeff
        if self.mats[0][0] != vunit(dom, self.target.dim(0), 0):
            raise UnitViolation("morphism does not send unit to unit")
        src, tgt, p = self.source, self.target, dom.p
        top = tgt.top_degree
        # With the unit sent to the unit, pairs with a degree-0 class hold by
        # the unit law.  Between positive degrees f(xy) can be nonzero only
        # where xy is, and f(x)f(y) only where classes u of f(x) and v of
        # f(y) have uv nonzero, so only those pairs are checked.
        image = {}  # positive-degree source class -> nonzero terms of f(x)
        hits = {}  # target class -> (source class, coefficient) of its preimages
        for d in range(1, min(src.top_degree, top) + 1):
            for i, row in enumerate(self.mats[d]):
                terms = _terms(row)
                if terms:
                    image[(d, i)] = terms
                    for k, c in terms:
                        hits.setdefault((d, k), []).append(((d, i), c))
        sconst, tconst = src.constants, tgt.constants

        def violations(x) -> list:
            """The y with f(xy) != f(x)f(y), for x of positive degree."""
            diff = {}  # y -> the entries of f(xy) - f(x)f(y)
            for y, xy in sconst[x].items():
                if y[0] and x[0] + y[0] <= top:
                    acc = diff[y] = {}
                    for j, a in xy:
                        for k, e in image.get((x[0] + y[0], j), ()):
                            acc[k] = acc.get(k, 0) + a * e
            for k1, c1 in image.get(x, ()):
                for v, uv in tconst[(x[0], k1)].items():
                    for y, c2 in hits.get(v, ()):
                        acc = diff.setdefault(y, {})
                        for m, e in uv:
                            acc[m] = acc.get(m, 0) - c1 * c2 * e
            return [y for y, acc in diff.items() if _reduced(acc, p)]

        if any(violations(x) for x in src.generators if x[0] < top):
            for x in sconst:
                found = 0 < x[0] < top and violations(x)
                if found:
                    (d1, i1), (d2, i2) = x, min(found)
                    raise MultiplicativityViolation(
                        f"morphism is not multiplicative on "
                        f"({src.names[d1][i1]!r}, {src.names[d2][i2]!r})"
                    )

    def apply_component(self, d: int, v: tuple) -> tuple:
        dom = self.source.coeff
        out = list(vzero(dom, self.target.dim(d)))
        rows = self.mats.get(d)
        if rows is None:
            return tuple(out)
        for i, c in enumerate(v):
            if c == 0:
                continue
            for j, m in enumerate(rows[i]):
                if m != 0:
                    out[j] = dom.add(out[j], dom.mul(c, m))
        return tuple(out)

    def apply(self, el: Element) -> Element:
        if el.algebra is not self.source:
            raise AlgebraMismatch("element does not live in the morphism source")
        comps = {
            d: self.apply_component(d, v)
            for d, v in el.comps.items()
            if d <= self.target.top_degree
        }
        return Element(self.target, comps)

    def same_matrices(self, other: "RingMorphism") -> bool:
        return (
            self.source is other.source
            and self.target is other.target
            and self.mats == other.mats
        )

    def is_identity(self) -> bool:
        if self.source is not self.target:
            return False
        dom = self.source.coeff
        one, zero = dom.one(), dom.zero()
        for d, rows in self.mats.items():
            for i, row in enumerate(rows):
                for j, c in enumerate(row):
                    if c != (one if i == j else zero):
                        return False
        return True

    def is_augmentation(self) -> bool:
        """True if every positive degree maps to zero (unit to unit)."""
        return all(
            vis_zero(row)
            for d, rows in self.mats.items()
            if d > 0
            for row in rows
        )

    # -- named constructions ------------------------------------------------
    @staticmethod
    def identity(A: GradedAlgebra) -> "RingMorphism":
        mats = {d: tuple(vunit(A.coeff, A.dim(d), i) for i in range(A.dim(d)))
                for d in range(A.top_degree + 1)}
        return RingMorphism(A, A, mats, validate=False)

    @staticmethod
    def augmentation(source: GradedAlgebra, target: GradedAlgebra) -> "RingMorphism":
        """Unit to unit, all positive degrees to zero."""
        unit = vunit(source.coeff, target.dim(0), 0)
        return RingMorphism(source, target, {0: (unit,)}, validate=False)

    @staticmethod
    def from_images(source: GradedAlgebra, target: GradedAlgebra, images, validate=True):
        """Morphism from {source basis name: {target name: scalar}}; omitted
        positive-degree names map to zero, and a name of no basis class is
        an error."""
        for name in images:
            if name not in source._index:
                raise MorphismMismatch(f"unknown source basis name {name!r}")
        dom = source.coeff
        mats = {}
        for d in range(source.top_degree + 1):
            rows = []
            for i in range(source.dim(d)):
                name = source.names[d][i]
                combo = images.get(name)
                row = list(vzero(dom, target.dim(d)))
                if d == 0 and combo is None:
                    row[0] = dom.one()
                elif combo is not None:
                    for tname, c in dict(combo).items():
                        if tname not in target._index:
                            raise MorphismMismatch(
                                f"unknown target basis name {tname!r}"
                            )
                        dt, j = target._index[tname]
                        if dt != d:
                            raise MorphismMismatch(
                                f"image of {name!r} must stay in degree {d}"
                            )
                        c = dom.parse_scalar(c)
                        row[j] = dom.add(row[j], c)
                rows.append(tuple(row))
            mats[d] = tuple(rows)
        return RingMorphism(source, target, mats, validate=validate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RingMorphism({self.source!r} -> {self.target!r})"


class _Inclusion(RingMorphism):
    """``a -> a (x) 1`` (``left``) or ``b -> 1 (x) b`` of a factor of a
    :class:`TensorProduct` into it; its matrices are built on first read."""

    def __init__(self, product: TensorProduct, left: bool):
        self.source = product.left if left else product.right
        self.target = product
        self._left = left

    @functools.cached_property
    def mats(self) -> dict:
        A, T, left = self.source, self.target, self._left
        return {d: tuple(vunit(A.coeff, T.dim(d),
                               T.slot(d, i, 0, 0) if left else T.slot(0, 0, d, i))
                         for i in range(A.dim(d)))
                for d in range(A.top_degree + 1)}


def tensor_morphism(phi: RingMorphism, psi: RingMorphism,
                    source_tensor: TensorProduct, target_tensor: TensorProduct):
    """Tensor product of two degree-preserving morphisms, between
    ``source_tensor``, the :class:`TensorProduct` of their sources, and
    ``target_tensor``, that of their targets."""
    if phi.source.coeff != psi.source.coeff:
        raise CoefficientMismatch("tensor factors use different coefficients")
    S, T = source_tensor, target_tensor
    dom = phi.source.coeff
    mats = {}
    for d in range(S.top_degree + 1):
        rows = []
        for (dl, il, dr, ir) in S.kunneth_pairs[d]:
            out = [dom.zero()] * T.dim(d)
            for a, ca in enumerate(phi.mats[dl][il]):
                for b, cb in enumerate(psi.mats[dr][ir]):
                    if ca and cb:  # each (a, b) has a slot of its own
                        out[T.slot(dl, a, dr, b)] = dom.mul(ca, cb)
            rows.append(tuple(out))
        mats[d] = tuple(rows)
    return RingMorphism(S, T, mats, validate=False)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Degreewise span inside an algebra, stored in canonical echelon form.

    Over a field each degree is an RREF basis.  Over Z it is the rational
    span of integral rows, each RREF row read out as its primitive integer
    vector; a product vanishes over Z exactly when it does over Q.
    Membership is exact, over Q for Z.
    """

    def __init__(self, algebra: GradedAlgebra, rows: dict):
        self.algebra = algebra
        clean = {}
        for d in sorted(rows):
            rs = span_rows(algebra.coeff, rows[d], algebra.dim(d))
            if rs:
                clean[d] = rs
        self.rows: dict[int, tuple] = clean

    @staticmethod
    def _of_canonical(algebra: GradedAlgebra, rows: dict) -> "Subspace":
        """The subspace whose nonempty degrees hold ``rows``, kept as tuples
        and not echeloned: each must already be the canonical basis."""
        out = Subspace(algebra, {})
        out.rows = {d: tuple(rs) for d, rs in sorted(rows.items()) if rs}
        return out

    @staticmethod
    def from_elements(algebra: GradedAlgebra, elements) -> "Subspace":
        rows: dict[int, list] = {}
        for el in elements:
            if el.algebra is not algebra:
                raise AlgebraMismatch("element from a different algebra")
            for d, v in el.comps.items():
                rows.setdefault(d, []).append(v)
        return Subspace(algebra, rows)

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.rows)

    def dim(self, d: int) -> int:
        return len(self.rows.get(d, ()))

    @property
    def total_dim(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def spanning_elements(self) -> list[Element]:
        out = []
        for d in sorted(self.rows):
            for v in self.rows[d]:
                out.append(self.algebra.component_element(d, v))
        return out

    def contains(self, el: Element) -> bool:
        if el.algebra is not self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        for d, v in el.comps.items():
            ech = make_echelon(self.algebra.coeff, self.algebra.dim(d))
            for r in self.rows.get(d, ()):
                ech.insert(r)
            if not ech.contains(v):
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.algebra is other.algebra
            and self.rows == other.rows
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = {d: len(r) for d, r in self.rows.items()}
        return f"Subspace(dims={dims})"


def kernel(phi: RingMorphism) -> Subspace:
    """Degreewise exact kernel of a morphism."""
    rows = {}
    alg = phi.source
    for d in range(alg.top_degree + 1):
        n = alg.dim(d)
        if n == 0:
            continue
        rows[d] = kernel_rows(alg.coeff, list(phi.mats[d]), phi.target.dim(d))
    return Subspace._of_canonical(alg, rows)
