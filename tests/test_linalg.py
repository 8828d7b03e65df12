from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from secatm.domains import GF, Q, Z
from secatm.linalg import (
    FieldEchelon,
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


class TestIntegerSpan:
    def test_integer_form_is_primitive(self):
        # over Z the span is the Q-span: (2,0), (0,2), (1,1) span Q^2, read
        # out as the primitive RREF rows
        assert span_rows(Z, [(2, 0), (0, 2), (1, 1)], 2) == ((1, 0), (0, 1))
        # each row is primitive with a positive pivot: (-4, 6) reads (2, -3)
        assert span_rows(Z, [(-4, 6)], 2) == ((2, -3),)
        assert span_rows(Z, [(2, 1, 0), (0, 1, 3)], 3) == ((2, 0, -3), (0, 1, 3))

    def test_membership_is_over_q(self):
        ech = make_echelon(Z, 2)
        ech.insert((2, 0))
        assert ech.contains((1, 0))
        assert not ech.contains((0, 1))
        ech.insert((0, 2))
        assert ech.contains((2, 1))


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
def test_integer_span_is_permutation_invariant(rows, rng):
    w = len(rows[0])
    base = span_rows(Z, rows, w)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert span_rows(Z, shuffled, w) == base
    # idempotent: re-echelonizing the canonical rows changes nothing
    assert span_rows(Z, list(base), w) == base


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_integer_membership_of_generators(rows):
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
    entry = _FIELDS[field][2]
    row = st.tuples(*[entry] * w)
    # repeats from a small pool make dependent inserts common
    pool = draw(st.lists(row, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool) | row, min_size=1, max_size=6)), w


def _dict_form(v):
    """The nonzero entries of v's least integral multiple (v itself for int
    vectors): the form in which the cup-length DP hands over its products."""
    k = lcm(*[Fraction(x).denominator for x in v])
    return {j: int(x * k) for j, x in enumerate(v) if x}


def assert_rows_in_normal_form(ech, p):
    """Each stored row is keyed by its smallest column, its pivot: 1 over
    F_p with every entry a nonzero residue, and over Q positive in a
    primitive int row, which keeps the entries from growing."""
    for j, r in ech._rows.items():
        assert j == min(r) and all(x for x in r.values())
        if p is None:
            assert r[j] > 0 and gcd(*r.values()) == 1
        else:
            assert r[j] == 1 and all(0 < x < p for x in r.values())


@pytest.mark.parametrize("field", sorted(_FIELDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_field_echelon_matches_reference(field, data):
    dom, p, entry = _FIELDS[field]
    rows, w = data.draw(field_matrix(field))
    ech, sparse = make_echelon(dom, w), FieldEchelon(w, p)
    for k, v in enumerate(rows):
        before = ech.rank
        grew = ech.insert(v)
        d = _dict_form(v)
        kept = dict(d)
        assert sparse.insert(d) == grew
        assert d == kept
        want = _ref_rref(rows[:k + 1], w, p)
        assert ech.rows() == want == sparse.rows()
        assert ech.rank == sparse.rank == len(want) == before + grew
        assert_rows_in_normal_form(sparse, p)
    if p is None:
        assert all(type(x) is Fraction for r in ech.rows() for x in r)
    assert span_rows(dom, rows, w) == _ref_rref(rows, w, p)
    assert kernel_rows(dom, rows, w) == _ref_kernel(rows, w, p)
    probe = data.draw(st.tuples(*[entry] * w))
    rank = len(_ref_rref(rows, w, p))
    assert ech.contains(probe) == (len(_ref_rref(rows + [probe], w, p)) == rank)
    assert sparse.contains(_dict_form(probe)) == ech.contains(probe)
    for v in rows:
        assert ech.contains(v)


# -- the Z read-out against the reference over Q ------------------------------
#
# Over Z spans and kernels are taken over Q, and each RREF row is read out as
# its primitive integer vector with a positive pivot.

def _primitive(v):
    """The primitive integer vector with positive pivot on the line of v."""
    k = lcm(*[Fraction(x).denominator for x in v])
    ints = [int(x * k) for x in v]
    g = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return tuple(x // g for x in ints)


@settings(max_examples=80, deadline=None)
@given(int_matrix(max_rows=6, max_cols=6))
def test_integer_read_out_matches_the_reference_over_q(rows):
    w = len(rows[0])
    span, ker = span_rows(Z, rows, w), kernel_rows(Z, rows, w)
    assert span == tuple(_primitive(r) for r in _ref_rref(rows, w))
    assert ker == tuple(_primitive(r) for r in _ref_kernel(rows, w))
    for r in span + ker:
        assert all(type(x) is int for x in r) and gcd(*r) == 1


# -- ranks after every insert ------------------------------------------------
#
# The cup-length DP keeps a monomial exactly when inserting it grows the
# rank, so the rank after every insert is checked against a reference: the
# reference RREF over Q, F3 and Z (which is ranked over Q), and over F2 the
# canonical echelon of the dense rows
# (``span_rows``, itself checked against the reference RREF by
# ``test_field_echelon_matches_reference[F2]``).  Inputs are the DP's int
# vectors, handed over as the DP does: as dicts of their nonzero entries, to
# the ``FieldEchelon`` it builds for each field.

_RANK_DOMAINS = {
    "Q": (FieldEchelon, st.integers(-4, 4), lambda rows, w: len(_ref_rref(rows, w))),
    "Z": (lambda w: make_echelon(Z, w), st.integers(-4, 4),
          lambda rows, w: len(_ref_rref(rows, w))),
    "F3": (lambda w: FieldEchelon(w, 3), st.integers(0, 2),
           lambda rows, w: len(_ref_rref(rows, w, 3))),
    "F2": (lambda w: FieldEchelon(w, 2), st.integers(0, 1),
           lambda rows, w: len(span_rows(GF(2), rows, w))),
}


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
        assert ranked.insert(_dict_form(v)) == (rank > before)
        assert ranked.rank == rank


def test_rank_echelon_over_q_sees_rational_dependence():
    # (2, 4) and (3, 6) span a line over Q, though neither lattice vector is
    # an integral multiple of the other
    ech = FieldEchelon(2)
    assert ech.insert([2, 4])
    assert not ech.insert([3, 6])
    assert ech.insert([0, -5])
    assert ech.rank == 2
