from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from secatm.domains import GF, Q, Z
from secatm.linalg import (
    F2RankEchelon,
    FieldEchelon,
    IntEchelon,
    kernel_rows,
    make_echelon,
    span_rows,
)


def frac(rows):
    return [tuple(Fraction(x) for x in r) for r in rows]


class TestFieldEchelon:
    def test_insert_and_contains(self):
        ech = FieldEchelon(3)
        assert ech.insert(frac([[1, 2, 0]])[0])
        assert ech.insert(frac([[0, 1, 1]])[0])
        assert not ech.insert(frac([[1, 3, 1]])[0])  # dependent
        assert ech.rank == 2
        assert ech.contains(frac([[2, 5, 1]])[0])
        assert not ech.contains(frac([[0, 0, 1]])[0])

    def test_rref_is_canonical(self):
        rows_a = frac([[1, 2, 3], [0, 1, 1]])
        rows_b = frac([[1, 3, 4], [0, 2, 2]])  # same span
        assert span_rows(Q, rows_a, 3) == span_rows(Q, rows_b, 3)

    def test_insertion_order_irrelevant(self):
        rows = frac([[2, 4, 2], [1, 1, 0], [0, 3, 1]])
        fwd = span_rows(Q, rows, 3)
        rev = span_rows(Q, list(reversed(rows)), 3)
        assert fwd == rev


class TestIntEchelon:
    def test_hermite_form(self):
        # lattice spanned by (2,0), (0,2), (1,1) is {(a,b): a+b even}
        rows = span_rows(Z, [(2, 0), (0, 2), (1, 1)], 2)
        assert rows == ((1, 1), (0, 2))

    def test_membership_uses_divisibility(self):
        ech = IntEchelon(Z, 2)
        ech.insert((2, 0))
        ech.insert((0, 2))
        assert ech.contains((4, 2))
        assert not ech.contains((1, 0))
        assert not ech.contains((2, 1))

    def test_gcd_refinement_enlarges_lattice(self):
        ech = IntEchelon(Z, 1)
        ech.insert((4,))
        ech.insert((6,))
        assert ech.rows() == ((2,),)
        ech.insert((3,))
        assert ech.rows() == ((1,),)


class TestKernels:
    def test_field_kernel(self):
        # rows r1=(1,0), r2=(0,1), r3=(1,1): kernel = span{(1,1,-1)}
        ker = kernel_rows(Q, frac([[1, 0], [0, 1], [1, 1]]), 2)
        assert len(ker) == 1
        c = ker[0]
        assert c[0] * 1 + c[2] * 1 == 0 and c[1] * 1 + c[2] * 1 == 0

    def test_integer_kernel_is_saturated(self):
        # 2*c1 + 3*c2 = 0 over Z: kernel = span{(3,-2)}
        ker = kernel_rows(Z, [(2,), (3,)], 1)
        assert ker == ((3, -2),)

    def test_zero_map_kernel_is_everything(self):
        ker = kernel_rows(Q, frac([[0], [0]]), 1)
        assert len(ker) == 2

    def test_injective_map_kernel_is_zero(self):
        ker = kernel_rows(Z, [(1, 0), (0, 1)], 2)
        assert ker == ()


small_int = st.integers(min_value=-6, max_value=6)


@st.composite
def int_matrix(draw, max_rows=4, max_cols=4):
    n = draw(st.integers(1, max_rows))
    w = draw(st.integers(1, max_cols))
    return [tuple(draw(small_int) for _ in range(w)) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_integer_kernel_annihilates(rows):
    w = len(rows[0])
    ker = kernel_rows(Z, rows, w)
    for c in ker:
        combo = [sum(c[i] * rows[i][j] for i in range(len(rows))) for j in range(w)]
        assert all(v == 0 for v in combo)


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_rank_nullity_over_f5(rows):
    F5 = GF(5)
    rows5 = [tuple(x % 5 for x in r) for r in rows]
    w = len(rows5[0])
    rank = len(span_rows(F5, rows5, w))
    nullity = len(kernel_rows(F5, rows5, w))
    assert rank + nullity == len(rows5)


@settings(max_examples=60, deadline=None)
@given(int_matrix(), st.randoms(use_true_random=False))
def test_hermite_span_is_permutation_invariant(rows, rng):
    w = len(rows[0])
    base = span_rows(Z, rows, w)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert span_rows(Z, shuffled, w) == base
    # idempotent: re-echelonizing the canonical rows changes nothing
    assert span_rows(Z, list(base), w) == base


def _det(rows):
    # cofactor expansion; exact on int matrices
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_int, small_int, small_int), min_size=3, max_size=3))
def test_hermite_pivot_product_is_the_determinant(rows):
    # unimodular row operations preserve |det|, and the HNF of a full-rank
    # square matrix is upper triangular, so its pivot product is |det|
    rows = [tuple(r) for r in rows]
    d = _det([list(r) for r in rows])
    hnf = span_rows(Z, rows, 3)
    if d == 0:
        assert len(hnf) < 3
    else:
        prod = 1
        for i, r in enumerate(hnf):
            prod *= r[[j for j, x in enumerate(r) if x][0]]
        assert len(hnf) == 3 and prod == abs(d)


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_hermite_membership_of_generators(rows):
    w = len(rows[0])
    ech = make_echelon(Z, w)
    for r in rows:
        ech.insert(r)
    for r in rows:
        assert ech.contains(r)
    for r in rows:
        doubled = tuple(2 * x for x in r)
        assert ech.contains(doubled)


# -- field echelons against a plain Gauss-Jordan reference --------------------
#
# Over Q the echelon keeps primitive integer rows and forms the Fraction RREF
# only in rows(); over F_p it reduces with one modulo per entry.  The
# reference below does textbook elimination on domain scalars.

def _ref_rref(rows, width, p=None):
    """Nonzero rows of the RREF over Q (p None) or F_p."""
    norm = Fraction if p is None else (lambda x: x % p)
    m = [[norm(x) for x in r] for r in rows]
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col] if p is None else pow(m[rank][col], p - 2, p)
        m[rank] = [norm(x * inv) for x in m[rank]]
        for i in range(len(m)):
            c = m[i][col]
            if i != rank and c != 0:
                m[i] = [norm(x - c * y) for x, y in zip(m[i], m[rank])]
        rank += 1
    return tuple(tuple(r) for r in m[:rank])


def _ref_kernel(rows, width, p=None):
    """RREF basis of {c : sum_i c_i * rows[i] = 0} from the transposed RREF."""
    n = len(rows)
    rref = _ref_rref([[r[j] for r in rows] for j in range(width)], n, p)
    pivots = [next(i for i, x in enumerate(r) if x != 0) for r in rref]
    basis = []
    for f in (i for i in range(n) if i not in pivots):
        v = [0] * n
        v[f] = 1
        for k, piv in enumerate(pivots):
            v[piv] = -rref[k][f]
        basis.append(v)
    return _ref_rref(basis, n, p)


_FIELDS = {
    "Q": (Q, None, st.one_of(
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    )),
    "F3": (GF(3), 3, st.integers(0, 2)),
    "F2": (GF(2), 2, st.integers(0, 1)),
}


@st.composite
def field_matrix(draw, field):
    w = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    entry = _FIELDS[field][2]
    return [tuple(draw(entry) for _ in range(w)) for _ in range(n)], w


@pytest.mark.parametrize("field", sorted(_FIELDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_field_echelon_matches_reference(field, data):
    dom, p, entry = _FIELDS[field]
    rows, w = data.draw(field_matrix(field))
    ech = make_echelon(dom, w)
    for k, v in enumerate(rows):
        before = ech.rank
        grew = ech.insert(v)
        want = _ref_rref(rows[:k + 1], w, p)
        assert ech.rows() == want
        assert ech.rank == len(want) == before + grew
    if p is None:
        assert all(type(x) is Fraction for r in ech.rows() for x in r)
    assert span_rows(dom, rows, w) == _ref_rref(rows, w, p)
    assert kernel_rows(dom, rows, w) == _ref_kernel(rows, w, p)
    probe = data.draw(st.tuples(*[entry] * w))
    rank = len(_ref_rref(rows, w, p))
    assert ech.contains(probe) == (len(_ref_rref(rows + [probe], w, p)) == rank)
    for v in rows:
        assert ech.contains(v)


# -- ranks after every insert ------------------------------------------------
#
# The cup-length DP keeps a monomial exactly when inserting it grows the
# rank, so the rank after every insert is checked against a reference: the
# reference RREF over Q and F3, the Hermite-form lattice over Z (whose rank
# is the rank over Q), and the canonical echelon for the bitmask echelon over
# F2 (bit j is entry j).  Inputs are the DP's int vectors.

_RANK_DOMAINS = {
    "Q": (FieldEchelon, st.integers(-4, 4), lambda rows, w: len(_ref_rref(rows, w))),
    "Z": (FieldEchelon, st.integers(-4, 4), lambda rows, w: len(span_rows(Z, rows, w))),
    "F3": (lambda w: FieldEchelon(w, 3), st.integers(0, 2),
           lambda rows, w: len(_ref_rref(rows, w, 3))),
    "F2": (F2RankEchelon, st.integers(0, 1),
           lambda rows, w: len(span_rows(GF(2), rows, w))),
}


def _mask(v):
    return sum(1 << j for j, x in enumerate(v) if x)


@pytest.mark.parametrize("label", sorted(_RANK_DOMAINS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rank_echelon_agrees_with_the_canonical_echelon(label, data):
    make_rank, entry, reference_rank = _RANK_DOMAINS[label]
    w = data.draw(st.integers(1, 8))
    # few distinct rows, so that dependent inserts are common
    pool = data.draw(st.lists(st.tuples(*[entry] * w), min_size=1, max_size=4))
    rows = data.draw(st.lists(st.sampled_from(pool) | st.tuples(*[entry] * w),
                              min_size=1, max_size=10))
    ranked = make_rank(w)
    for k, v in enumerate(rows):
        before, rank = ranked.rank, reference_rank(rows[:k + 1], w)
        assert ranked.insert(_mask(v) if label == "F2" else list(v)) == (rank > before)
        assert ranked.rank == rank


def test_rank_echelon_over_q_sees_rational_dependence():
    # (2, 4) and (3, 6) span a line over Q, though neither lattice vector is
    # an integral multiple of the other
    ech = FieldEchelon(2)
    assert ech.insert([2, 4])
    assert not ech.insert([3, 6])
    assert ech.insert([0, -5])
    assert ech.rank == 2
