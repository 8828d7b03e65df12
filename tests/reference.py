"""Slow, independent constructions the tests compare the engine against.

The engine reads only ideal generators: the algebra generators for cat,
``g (x) 1 - 1 (x) g`` for tc and ``(f* - g*)(g)`` for dm and hdm.  The
references here build the whole ideals instead (all of H^+, the kernel of
the cup product, the image of f* - g*), enumerate products exhaustively
(``brute_force_cuplength``), and run one cup-length query per table entry
(the ``*_lower`` wrappers), so the tests can check that the fast paths give
the same spans and lengths.  Nothing in ``secatm`` uses them.

Import them as ``from reference import ...``.
"""

from secatm import linalg
from secatm.algebra import (
    AlgebraError,
    GradedAlgebra,
    MorphismMismatch,
    RingMorphism,
    Subspace,
    TensorProduct,
    tensor_square,
)
from secatm.cuplength import CupLengthQuery, _filtered_spanning, capped_cuplength
from secatm.engine import _lower_source
from secatm.linalg import vis_zero, vunit, vzero
from secatm.spaces import FibrationModel, MapPairModel, SpaceModel


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
