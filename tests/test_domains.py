from fractions import Fraction

import pytest

from secatm.domains import GF, CoefficientDomain, NonPrimeModulus, Q, Z


def test_labels_and_predicates():
    assert Q.label == "Q" and Q.is_field
    assert Z.label == "Z" and not Z.is_field
    assert GF(5).label == "F5" and GF(5).is_field


def test_prime_modulus_required():
    with pytest.raises(NonPrimeModulus):
        GF(4)
    with pytest.raises(NonPrimeModulus):
        GF(1)
    GF(2), GF(3), GF(13)  # fine


def test_modulus_must_be_a_small_integer():
    GF(2147483647)  # the largest prime below 2^31
    with pytest.raises(ValueError, match="too large"):
        GF(2**31 + 11)
    with pytest.raises(ValueError, match="not an integer"):
        GF(2.0)


def test_floats_are_not_scalars():
    for dom in (Q, GF(3), Z):
        for value in (1.5, 2.0, True):
            with pytest.raises(ValueError):
                dom.parse_scalar(value)
    assert Q.parse_scalar(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        Q.parse_scalar("1/0")


def test_rational_arithmetic_is_exact():
    a = Q.parse_scalar("1/3")
    b = Q.parse_scalar("1/6")
    assert Q.add(a, b) == Fraction(1, 2)
    assert Q.mul(a, b) == Fraction(1, 18)


def test_prime_field_arithmetic():
    F5 = GF(5)
    assert F5.from_int(7) == 2
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.neg(2) == 3


def test_from_label_forms():
    assert CoefficientDomain.from_label("Q") is Q
    assert CoefficientDomain.from_label("Z") is Z
    assert CoefficientDomain.from_label("F7") == GF(7)
    assert CoefficientDomain.from_label({"p": 3}) == GF(3)
    for label in ("R", "F٣", "F３", "F 3", "F+3"):
        with pytest.raises(ValueError):
            CoefficientDomain.from_label(label)


def test_scalar_json_round_trip():
    assert Q.scalar_to_json(Q.parse_scalar("3/4")) == "3/4"
    assert Q.scalar_to_json(Q.parse_scalar(2)) == 2
    assert Z.scalar_to_json(-5) == -5
    with pytest.raises(ValueError):
        Z.parse_scalar("3/4")
