"""Slow, independent constructions the tests compare the engine against.

The engine reads only ideal generators: the algebra generators for cat,
``g (x) 1 - 1 (x) g`` for tc and ``(f* - g*)(g)`` for dm and hdm.  The
references here build the whole ideals instead (all of H^+, the kernel of
the cup product, the image of f* - g*), enumerate products exhaustively
(``brute_force_cuplength``), and run one cup-length query per table entry
(the ``*_lower`` wrappers), so the tests can check that the fast paths give
the same spans and lengths.  ``dense_kunneth_blocks`` lays out the
Kunneth blocks over every pair of degrees, ``dense_law_violation`` checks
the algebra laws on every pair and triple of basis classes, and
``sweep_until_quiet`` is the plain rule fixpoint, which re-applies every
record on every sweep.  ``compute_tables_by_records`` runs the engine with
monotonicity in m written as rule records over tables that narrow one row
per call (``PlainTable``), the design ``BoundTable`` replaced.  Nothing in
``secatm`` uses them.

Import them as ``from reference import ...``.
"""

from unittest import mock

from secatm import engine, linalg
from secatm.algebra import (
    AlgebraError,
    GradedAlgebra,
    MorphismMismatch,
    RingMorphism,
    Subspace,
    TensorProduct,
    _terms,
    tensor_square,
)
from secatm.cuplength import CupLengthCertificate, CupLengthQuery, _element, capped_cuplength
from secatm.engine import _Bound, _lower_source
from secatm.linalg import FieldEchelon, vis_zero, vunit, vzero
from secatm.spaces import FibrationModel, MapPairModel, SpaceModel
from secatm.tables import INF, BoundTable


class SubspaceMismatch(AlgebraError):
    pass


class UnsupportedCoefficients(AlgebraError):
    pass


class SizeGuardExceeded(ValueError):
    """Brute-force search space is too large to enumerate."""


# ---------------------------------------------------------------------------
# whole ideals and spans
# ---------------------------------------------------------------------------

def positive_part(algebra: GradedAlgebra) -> Subspace:
    """Span of all positive-degree basis classes."""
    return Subspace(algebra, {d: [vunit(algebra.coeff, n, i) for i in range(n)]
                              for d, n in enumerate(algebra.dims()) if d and n})


def multiplication_morphism(A: GradedAlgebra, T: TensorProduct | None = None):
    """The cup-product map ``A (x) A -> A`` as a ring morphism.

    If the tensor square was already built, pass it in to keep basis
    orderings shared; otherwise it is constructed here.
    """
    if T is None:
        T, _, _ = tensor_square(A)
    dom = A.coeff
    mats = {}
    for d in range(T.top_degree + 1):
        rows = []
        for (dl, il, dr, ir) in T.kunneth_pairs[d]:
            prod = A.mul_basis(dl, il, dr, ir)
            rows.append(prod if prod is not None else vzero(dom, A.dim(d)))
        mats[d] = tuple(rows)
    return T, RingMorphism(T, A, mats, validate=False)


def _cup_kernel_rows(A: GradedAlgebra, T: TensorProduct) -> dict:
    """The basis ``a (x) b - 1 (x) ab`` of the kernel of the cup product
    ``A (x) A -> A``, one element per basis class ``a`` of positive degree
    and basis class ``b``, as coefficient rows over the basis of the tensor
    square ``T``, by degree.

    The cup product is split by ``c -> 1 (x) c``, so these elements span its
    kernel, and their ``a (x) b`` terms with ``|a| > 0`` make them
    independent; over Z they are a basis of the kernel lattice.  Rows are
    int vectors, over Q scaled by their common denominator, which changes
    no span; the echelon takes them without a ``Fraction`` pass."""
    dom, top = A.coeff, T.top_degree
    rows: dict[int, list] = {}
    for p in range(1, min(top, A.top_degree) + 1):
        for q in range(min(top - p, A.top_degree) + 1):
            d = p + q
            for i in range(A.dim(p)):
                for j in range(A.dim(q)):
                    row = [0] * T.dim(d)
                    row[T.slot(p, i, q, j)] = 1
                    for k, c in enumerate(A.mul_basis(p, i, q, j) or ()):
                        if c != 0:
                            row[T.slot(0, 0, d, k)] = dom.neg(c)
                    rows.setdefault(d, []).append(linalg.clear_denominators(row))
    return rows


def cup_kernel(A: GradedAlgebra, tensor=None) -> Subspace:
    """Kernel of the cup-product map inside the tensor square of ``A``
    (built here unless passed in), the span of the explicit basis
    ``a (x) b - 1 (x) ab`` with ``|a| > 0``; no elimination of the
    multiplication map is needed.

    Only available over a field; over Z raise ``UnsupportedCoefficients``.
    """
    if not A.coeff.is_field:
        raise UnsupportedCoefficients(
            "zero-divisor kernels need field coefficients"
        )
    if tensor is None:
        tensor, _, _ = tensor_square(A)
    return Subspace(tensor, _cup_kernel_rows(A, tensor))


def image_difference(f: RingMorphism, g: RingMorphism) -> Subspace:
    """Degreewise span of ``(f - g)(basis)`` in the common target."""
    if f.source is not g.source or f.target is not g.target:
        raise MorphismMismatch("morphisms do not share source and target")
    dom = f.source.coeff
    rows = {}
    for d in range(f.source.top_degree + 1):
        rs = []
        for i in range(f.source.dim(d)):
            diff = linalg.vsub(dom, f.mats[d][i], g.mats[d][i])
            if not vis_zero(diff):
                rs.append(diff)
        if rs:
            rows[d] = rs
    return Subspace(f.target, rows)


def pushforward_span(phi: RingMorphism, S: Subspace) -> Subspace:
    """Degreewise span of the images of a subspace's spanning set."""
    if S.algebra is not phi.source:
        raise SubspaceMismatch("subspace does not live in the morphism source")
    rows = {}
    for d, rs in S.rows.items():
        if d > phi.target.top_degree:
            continue
        imgs = [phi.apply_component(d, v) for v in rs]
        imgs = [v for v in imgs if not vis_zero(v)]
        if imgs:
            rows[d] = imgs
    return Subspace(phi.target, rows)


def dense_kunneth_blocks(left: GradedAlgebra, right: GradedAlgebra):
    """``(kunneth_pairs, block_start)`` of ``left (x) right``, built by
    visiting every pair of degrees, empty blocks included."""
    pairs = [[] for _ in range(left.top_degree + right.top_degree + 1)]
    starts = []
    for p, m in enumerate(left.dims()):
        at = []
        for q, n in enumerate(right.dims()):
            block = pairs[p + q]
            at.append(len(block) if m and n else None)
            block.extend((p, i, q, j) for i in range(m) for j in range(n))
        starts.append(tuple(at))
    return dict(enumerate(map(tuple, pairs))), tuple(starts)


# ---------------------------------------------------------------------------
# the algebra laws on every pair and triple
# ---------------------------------------------------------------------------

def dense_law_violation(A: GradedAlgebra) -> str | None:
    """The message of the first violation in basis order of the graded sign
    law, else of associativity, as ``GradedAlgebra.validate`` words it,
    found through ``mul_basis`` and ``mul_vectors`` on every pair and every
    triple of basis classes; None when both laws hold."""
    dom = A.coeff
    basis = [(d, i) for d in range(A.top_degree + 1) for i in range(A.dim(d))]
    names = {(d, i): repr(A.names[d][i]) for d, i in basis}

    def product(d1, v1, d2, v2) -> tuple:
        out = A.mul_vectors(d1, v1, d2, v2)
        return vzero(dom, A.dim(d1 + d2)) if out is None else out

    unit = {(d, i): vunit(dom, A.dim(d), i) for d, i in basis}
    pairs = {(x, y): product(x[0], unit[x], y[0], unit[y]) for x in basis for y in basis}
    for x in basis:
        for y in basis:
            yx = pairs[(y, x)]
            if x[0] % 2 and y[0] % 2:
                yx = linalg.vneg(dom, yx)
            if pairs[(x, y)] != yx:
                return f"{names[x]} * {names[y]} violates the graded sign law"
    for x in basis:
        for y in basis:
            for z in basis:
                if x[0] + y[0] + z[0] > A.top_degree:
                    continue
                left = product(x[0] + y[0], pairs[(x, y)], z[0], unit[z])
                right = product(x[0], unit[x], y[0] + z[0], pairs[(y, z)])
                if left != right:
                    x, y, z = names[x], names[y], names[z]
                    return f"({x} * {y}) * {z} differs from {x} * ({y} * {z})"
    return None


# ---------------------------------------------------------------------------
# exhaustive cup-length oracle
# ---------------------------------------------------------------------------

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
    cap = query.cap
    rows = {d: rs for d, rs in query.generators.rows.items() if cap is None or d <= cap}
    sub = Subspace(algebra, rows)
    is_f2 = dom.kind == "prime_field" and dom.p == 2
    if is_f2:
        if algebra.total_dim > 14:
            raise SizeGuardExceeded(
                f"algebra dimension {algebra.total_dim} exceeds the F2 guard of 14"
            )
        candidates = _f2_candidates(sub)
    else:
        spanning = [(d, v) for d in sorted(sub.rows) for v in sub.rows[d]]
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


def layered_cuplength(query: CupLengthQuery):
    """The layered DP that ``capped_cuplength`` replaced, kept as an
    oracle: one run per cap, every kept monomial times every spanning
    vector, so it forms both s_i * s_j and s_j * s_i.

    Maximum number of generator factors (degree <= cap) with nonzero product.

    Returns ``(length, certificate)``; the certificate is None exactly when
    the length is 0.  Layer t holds monomials ``(degree, pairs, factors)``
    whose vectors are linearly independent in each degree; layer t + 1 keeps
    a product ``v * s`` only when it grows the rank of its degree, and a
    degree is skipped once its rank equals its width.  The layers are
    absorbing: once one is empty every later one is, and lengths never exceed
    the top degree since each factor has positive degree.  Each spanning
    vector becomes its nonzero pairs once, for layer 1, and its
    ``product_keys`` once, for the groups.

    Products are true products, taken by the algebra's ``product`` with
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
                for i, keys in group:
                    w = algebra.product(dv, v, ds, keys)
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


# ---------------------------------------------------------------------------
# one cup-length query per lower bound
# ---------------------------------------------------------------------------

def _lower(inv, model, cap) -> int | None:
    source = _lower_source(inv, model)
    if source is None:
        return None
    algebra, generators, _ = source
    return capped_cuplength(CupLengthQuery(algebra, generators, cap))[0]


def cat_lower(space: SpaceModel, cap: int | None) -> int:
    """Capped cup-length of H^+, read from its algebra generators of
    degree <= cap."""
    return _lower("cat", space, cap)


def tc_lower(space: SpaceModel, cap: int | None) -> int:
    """Capped zero-divisor cup-length, read from ``g (x) 1 - 1 (x) g`` for
    the algebra generators g of degree <= cap; field coefficients only."""
    length = _lower("tc", space, cap)
    if length is None:
        raise UnsupportedCoefficients("zero-divisor kernels need field coefficients")
    return length


def secat_lower(fib: FibrationModel, cap: int | None) -> int:
    """Cup-length of the pullback kernel, capped."""
    return _lower("secat", fib, cap)


def hdm_lower(pair: MapPairModel, cap: int | None) -> int:
    """Capped cup-length of the ideal of im(f* - g*), read from
    ``(f* - g*)(g)`` for the codomain's algebra generators g of degree
    <= cap."""
    return _lower("hdm", pair, cap)


def dm_lower(pair: MapPairModel, cap: int | None) -> int:
    """The capped cup-length of hdm's source, over any coefficients: the
    codomain's zero divisors pushed along (f, g) lie in the same ideal and
    hold its generators (see ``_lower_source``)."""
    return _lower("dm", pair, cap)


# ---------------------------------------------------------------------------
# the plain rule fixpoint
# ---------------------------------------------------------------------------

def sweep_until_quiet(rules) -> None:
    """Apply every record, in order, until a whole sweep narrows nothing;
    a stand-in for ``secatm.engine._fixpoint``, which skips records whose
    inputs did not narrow."""
    while any([rule.apply() for rule in rules]):
        pass


# ---------------------------------------------------------------------------
# monotonicity in m as rule records
# ---------------------------------------------------------------------------

class PlainTable(BoundTable):
    """A ``BoundTable`` that narrows only the row it is asked to narrow."""

    def raise_lo(self, m, value, rule, detail, certificate=None) -> bool:
        m = self.row(m)
        if value <= self.rows[m].lo:
            return False
        self._narrow(m, "lo", value, rule, detail, certificate)
        return True

    def lower_hi(self, m, value, rule, detail) -> bool:
        m = self.row(m)
        hi = self.rows[m].hi
        if value is None or (hi is not None and value >= hi):
            return False
        self._narrow(m, "hi", value, rule, detail)
        return True


def monotone_records(tables) -> list:
    """The two rule families that wrote monotonicity in m, in their sweep
    order: ``monotone_m`` (row m at most row m + 1, so row m + 1 at least
    row m) on every table, then ``classical_cap`` (row m at most inf, so inf
    at least row m) on every table, over the stored rows; a record with no
    pair is left out."""
    records = []
    for tab in tables:
        finite = tab.stored[:-1]
        down = [(m, (tab.row(m + 1),), 0) for m in finite if m < tab.max_m]
        records.append(_Bound("monotone_m", tab, (tab,), down,
                              lambda m, n: f"at most the m={n} entry",
                              lambda m, n: f"at least the m={m} entry"))
    for tab in tables:
        up = [(m, (INF,), 0) for m in tab.stored[:-1]]
        records.append(_Bound("classical_cap", tab, (tab,), up, "at most the classical value",
                              lambda m, n: f"dominates the m={m} entry"))
    return [record for record in records if record.pairs]


class _RecordEngine(engine._Engine):
    def _rules(self):
        return monotone_records(list(self.tables.values())) + super()._rules()


def compute_tables_by_records(bundle, max_m=None, use_literature=True, targets=None):
    """``secatm.engine.compute_tables`` with ``PlainTable`` tables and the
    ``monotone_records`` of them swept before every other record."""
    with mock.patch.object(engine, "BoundTable", PlainTable):
        return _RecordEngine(bundle, max_m, use_literature, targets).run()
