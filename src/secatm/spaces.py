"""Cohomology models with homotopy metadata, and built-in constructors.

A :class:`SpaceModel` bundles a graded algebra with the homotopy facts the
bound rules consume (connectivity, homotopy dimension, vanishing of homotopy
groups, H-space structure, literature values).  Fibrations and map pairs add
the relevant induced morphisms.  Literature values enter as explicit axioms
and are always tracked as such in provenance; they can be switched off for
honest cohomology-only intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import CoefficientDomain, Q as DOMAIN_Q, GF
from .algebra import (
    CoefficientMismatch,
    GradedAlgebra,
    RingMorphism,
    kunneth_product,
    make_algebra,
    tensor_morphism,
)

__all__ = [
    "ModelFieldError",
    "SpaceModel",
    "FibrationModel",
    "MapPairModel",
    "point",
    "sphere",
    "real_projective",
    "complex_projective",
    "moore",
    "orientable_surface",
    "nonorientable_surface",
    "product",
    "constant_map_pullback",
    "product_fibration",
]


class ModelFieldError(ValueError):
    """A metadata field contradicts the rest of its model; ``field`` names
    it."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


def _check_nonnegative(field: str, value: int | None) -> None:
    """A homotopy-vanishing degree names a degree and a literature value
    counts open sets, so neither is negative."""
    if value is not None and value < 0:
        raise ModelFieldError(field, f"{field} must be >= 0, got {value}")


@dataclass
class SpaceModel:
    """A space as its cohomology algebra plus homotopy metadata.

    ``conn``: the space is conn-connected (0 = path-connected only).
    ``hdim``: homotopy dimension, None when unknown.
    ``pi_vanish_from``: d0 with pi_j = 0 for all j >= d0 (2 = aspherical).
    ``known_cat`` / ``known_tc``: literature values, reduced convention.
    ``factors``: declared product structure, used by subadditivity rules.
    ``square``: optional model of the self-product, for the cat-of-square cap.
    """

    algebra: GradedAlgebra
    conn: int = 0
    hdim: int | None = None
    pi_vanish_from: int | None = None
    h_space_with_division: bool = False
    known_cat: int | None = None
    known_tc: int | None = None
    factors: list["SpaceModel"] | None = None
    square: "SpaceModel | None" = None

    def __post_init__(self) -> None:
        if self.conn < 0:
            raise ModelFieldError("conn", "conn must be >= 0")
        for i in range(1, min(self.conn, self.algebra.top_degree) + 1):
            if self.algebra.dim(i):
                raise ModelFieldError(
                    "conn", f"a {self.conn}-connected space has no cohomology in "
                    f"degree {i}, but the algebra has rank {self.algebra.dim(i)} there")
        _check_nonnegative("pi_vanish_from", self.pi_vanish_from)
        if self.hdim is not None and self.hdim < self.algebra.top_degree:
            raise ModelFieldError(
                "hdim", f"hdim {self.hdim} is below the algebra top degree "
                f"{self.algebra.top_degree}"
            )
        _check_nonnegative("known_cat", self.known_cat)
        _check_nonnegative("known_tc", self.known_tc)
        if self.factors:
            conn = min(f.conn for f in self.factors)
            if self.conn != conn:
                raise ValueError("product connectivity must be the factor minimum")
            hdims = [f.hdim for f in self.factors]
            if all(h is not None for h in hdims):
                if self.hdim != sum(hdims):
                    raise ValueError("product hdim must be the factor sum")
            if self.algebra.dims() != _iterated_kunneth_dims(self.factors):
                raise ValueError("product algebra does not match factor algebras")


def _iterated_kunneth_dims(factors) -> tuple[int, ...]:
    dims = factors[0].algebra.dims()
    for f in factors[1:]:
        fd = f.algebra.dims()
        out = [0] * (len(dims) + len(fd) - 1)
        for i, a in enumerate(dims):
            for j, b in enumerate(fd):
                out[i + j] += a * b
        dims = tuple(out)
    return dims


@dataclass
class FibrationModel:
    """A fibration as the induced map on base cohomology plus fiber metadata."""

    base: SpaceModel
    total_algebra: GradedAlgebra
    pstar: RingMorphism
    total_contractible: bool = False
    fiber_pi_vanish_from: int | None = None
    known_secat: int | None = None
    factors: list["FibrationModel"] | None = None

    def __post_init__(self) -> None:
        if self.pstar.source is not self.base.algebra:
            raise ValueError("pstar must start at the base algebra")
        if self.pstar.target is not self.total_algebra:
            raise ValueError("pstar must land in the total-space algebra")
        _check_nonnegative("fiber_pi_vanish_from", self.fiber_pi_vanish_from)
        _check_nonnegative("known_secat", self.known_secat)


@dataclass
class MapPairModel:
    """Two maps X -> Y as their induced morphisms H*(Y) -> H*(X)."""

    domain: SpaceModel
    codomain: SpaceModel
    fstar: RingMorphism
    gstar: RingMorphism
    homotopic: bool = False
    known_d: int | None = None
    triangle: "tuple[MapPairModel, MapPairModel] | None" = None

    def __post_init__(self) -> None:
        for m in (self.fstar, self.gstar):
            if m.source is not self.codomain.algebra:
                raise ValueError("induced maps must start at the codomain algebra")
            if m.target is not self.domain.algebra:
                raise ValueError("induced maps must land in the domain algebra")
        _check_nonnegative("known_d", self.known_d)
        if self.triangle is not None:
            left, right = self.triangle
            if left.domain.algebra is not self.domain.algebra or \
               right.domain.algebra is not self.domain.algebra:
                raise ValueError("triangle legs must share the pair's domain")
            if not left.fstar.same_matrices(self.fstar):
                raise ValueError("left triangle leg must start from this pair's f")
            if not left.gstar.same_matrices(right.fstar):
                raise ValueError("triangle legs must share the mediator map")
            if not right.gstar.same_matrices(self.gstar):
                raise ValueError("right triangle leg must end at this pair's g")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------
# They skip ``GradedAlgebra.validate``: their products obey the
# sign law and associativity by construction (tested at small sizes).

def _truncated(coeff: CoefficientDomain, var: str, degree: int, height: int) -> GradedAlgebra:
    """k[var]/(var^(height + 1)) with ``var`` in ``degree``: the class
    var^k is named ``var`` for k = 1 and ``var^k`` above, and a product
    var^k1 * var^k2 is listed for k1 <= k2 with k1 + k2 <= height."""
    def name(k):
        return var if k == 1 else f"{var}^{k}"

    names = {0: ["1"], **{degree * k: [name(k)] for k in range(1, height + 1)}}
    prods = [(name(k1), name(k2), {name(k1 + k2): 1})
             for k1 in range(1, height + 1) for k2 in range(k1, height + 1 - k1)]
    return make_algebra(coeff, names, prods, validate=False)


def point(coeff: CoefficientDomain = DOMAIN_Q) -> SpaceModel:
    alg = _truncated(coeff, "x", 1, 0)
    return SpaceModel(
        alg, conn=0, hdim=0, pi_vanish_from=1, known_cat=0, known_tc=0
    )


def sphere(n: int, coeff: CoefficientDomain = DOMAIN_Q) -> SpaceModel:
    """S^n: one class ``a`` in degree n with square zero."""
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    alg = _truncated(coeff, "a", n, 1)
    return SpaceModel(
        alg,
        conn=n - 1,
        hdim=n,
        pi_vanish_from=2 if n == 1 else None,
        known_cat=1,
        known_tc=1 if n % 2 == 1 else 2,
    )


def real_projective(n: int) -> SpaceModel:
    """RP^n with its F2 cohomology F2[x]/(x^{n+1}).

    The topological complexity is recorded only where the literature pins it:
    n in {1, 3, 7} (value n) and n a power of two (value 2n - 1).
    """
    if n < 2:
        raise ValueError("real projective space needs n >= 2")
    alg = _truncated(GF(2), "x", 1, n)
    known_tc = None
    if n in (1, 3, 7):
        known_tc = n
    elif n & (n - 1) == 0:  # n a power of two
        known_tc = 2 * n - 1
    return SpaceModel(alg, conn=0, hdim=n, known_cat=n, known_tc=known_tc)


def complex_projective(n: int) -> SpaceModel:
    """CP^n with rational cohomology Q[u]/(u^{n+1}), |u| = 2."""
    if n < 1:
        raise ValueError("complex projective space needs n >= 1")
    alg = _truncated(DOMAIN_Q, "u", 2, n)
    return SpaceModel(alg, conn=1, hdim=2 * n, known_cat=n, known_tc=2 * n)


def moore(rank: int, n: int, coeff: CoefficientDomain = DOMAIN_Q) -> SpaceModel:
    """Torsion-free Moore space model: rank r in degree n, trivial products."""
    if rank < 1 or n < 2:
        raise ValueError("need rank >= 1 and n >= 2")
    if not coeff.is_field:
        raise ValueError("Moore models use field coefficients")
    names = {0: ["1"], n: [f"e{i + 1}" for i in range(rank)]}
    alg = make_algebra(coeff, names, [], validate=False)
    return SpaceModel(alg, conn=n - 1, hdim=n, known_cat=1)


def orientable_surface(g: int) -> SpaceModel:
    """Closed orientable surface of genus g >= 1, rational coefficients."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    deg1 = []
    for i in range(1, g + 1):
        deg1 += [f"a{i}", f"b{i}"]
    names = {0: ["1"], 1: deg1, 2: ["w"]}
    prods = []
    for i in range(1, g + 1):
        prods.append((f"a{i}", f"b{i}", {"w": 1}))
    alg = make_algebra(DOMAIN_Q, names, prods, validate=False)
    return SpaceModel(
        alg,
        conn=0,
        hdim=2,
        pi_vanish_from=2,
        known_cat=2,
        known_tc=2 if g == 1 else 4,
    )


def nonorientable_surface(h: int) -> SpaceModel:
    """Closed non-orientable surface of genus h >= 2, F2 coefficients."""
    if h < 2:
        raise ValueError("non-orientable genus must be >= 2")
    coeff = GF(2)
    names = {0: ["1"], 1: [f"v{i}" for i in range(1, h + 1)], 2: ["w"]}
    prods = []
    for i in range(1, h + 1):
        prods.append((f"v{i}", f"v{i}", {"w": 1}))
    alg = make_algebra(coeff, names, prods, validate=False)
    return SpaceModel(
        alg, conn=0, hdim=2, pi_vanish_from=2, known_cat=2, known_tc=4
    )


def product(models: list[SpaceModel]) -> SpaceModel:
    """Product space with the Kunneth algebra and combined metadata.

    The algebra nests :class:`~secatm.algebra.TensorProduct`, ``(A (x) B)
    (x) C`` for three factors; building it builds no structure table.

    Literature values are left absent on purpose; bounds for products come
    out of the subadditivity and collapse rules.
    """
    if not models:
        raise ValueError("product of no factors")
    if len(models) == 1:
        return models[0]
    coeff = models[0].algebra.coeff
    for m in models[1:]:
        if m.algebra.coeff != coeff:
            raise CoefficientMismatch("product factors use different coefficients")
    alg = models[0].algebra
    for m in models[1:]:
        alg, _, _ = kunneth_product(alg, m.algebra)
    hdims = [m.hdim for m in models]
    pis = [m.pi_vanish_from for m in models]
    return SpaceModel(
        alg,
        conn=min(m.conn for m in models),
        hdim=sum(hdims) if all(h is not None for h in hdims) else None,
        pi_vanish_from=max(pis) if all(p is not None for p in pis) else None,
        h_space_with_division=all(m.h_space_with_division for m in models),
        factors=list(models),
    )


def constant_map_pullback(Y: SpaceModel, X: SpaceModel) -> RingMorphism:
    """Induced map of a constant map X -> Y: unit to unit, positives to zero."""
    if Y.algebra.coeff != X.algebra.coeff:
        raise CoefficientMismatch("spaces use different coefficients")
    return RingMorphism.augmentation(Y.algebra, X.algebra)


def product_fibration(f1: FibrationModel, f2: FibrationModel) -> FibrationModel:
    """Product of two fibrations, with declared factors for the sum rule."""
    base = product([f1.base, f2.base])
    total, _, _ = kunneth_product(f1.total_algebra, f2.total_algebra)
    pstar = tensor_morphism(
        f1.pstar, f2.pstar, source_tensor=base.algebra, target_tensor=total
    )
    pis = (f1.fiber_pi_vanish_from, f2.fiber_pi_vanish_from)
    return FibrationModel(
        base=base,
        total_algebra=total,
        pstar=pstar,
        total_contractible=f1.total_contractible and f2.total_contractible,
        fiber_pi_vanish_from=max(pis) if all(p is not None for p in pis) else None,
        factors=[f1, f2],
    )
