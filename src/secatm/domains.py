"""Exact scalar arithmetic for the three supported coefficient domains.

Everything downstream (graded algebras, spans, cup products, bound tables)
works over Q, a prime field F_p, or Z.  Scalars are plain Python objects:
``Fraction`` over Q, ints reduced into ``[0, p)`` over F_p, and ints over Z.
No floating point is used anywhere in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["CoefficientDomain", "NonPrimeModulus", "Q", "Z", "GF"]

RATIONALS = "rationals"
PRIME_FIELD = "prime_field"
INTEGERS = "integers"
# bound on F_p moduli: keeps the trial-division primality test under 47k steps
MAX_MODULUS = 2 ** 31


class NonPrimeModulus(ValueError):
    """The modulus requested for a prime field is not prime."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CoefficientDomain:
    """One of Q, F_p (p prime) or Z, with exact scalar operations."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (RATIONALS, PRIME_FIELD, INTEGERS):
            raise ValueError(f"unknown coefficient domain kind: {self.kind!r}")
        if self.kind == PRIME_FIELD:
            if isinstance(self.p, bool) or not isinstance(self.p, int):
                raise ValueError(f"modulus {self.p!r} is not an integer")
            if self.p >= MAX_MODULUS:
                raise ValueError(f"modulus {self.p} is too large: prime fields need p < 2^31")
            if not _is_prime(self.p):
                raise NonPrimeModulus(f"modulus {self.p!r} is not prime")
        elif self.p is not None:
            raise ValueError("only prime fields take a modulus")

    # ------------------------------------------------------------------
    @property
    def is_field(self) -> bool:
        return self.kind != INTEGERS

    @property
    def label(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == INTEGERS:
            return "Z"
        return f"F{self.p}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoefficientDomain({self.label})"

    # -- scalar construction -------------------------------------------
    def zero(self):
        return Fraction(0) if self.kind == RATIONALS else 0

    def one(self):
        return Fraction(1) if self.kind == RATIONALS else 1

    def from_int(self, n: int):
        if self.kind == RATIONALS:
            return Fraction(n)
        if self.kind == PRIME_FIELD:
            return n % self.p
        return int(n)

    def parse_scalar(self, value):
        """Parse a scalar: an int, or ``"a/b"`` or a ``Fraction`` over Q.

        Floats and booleans are rejected, never rounded.  A string that
        ``Fraction`` rejects, too long a one included, gets this message,
        with the string cut to a few dozen characters.
        """
        if isinstance(value, bool):
            raise ValueError(f"not a scalar: {value!r}")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction) and self.kind == RATIONALS:
            return value
        shown = repr(value)
        shown = shown if len(shown) <= 40 else shown[:36] + "..."
        if isinstance(value, str) and self.kind == RATIONALS:
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in scalar {shown}")
            except ValueError:
                pass
        raise ValueError(f"cannot parse scalar {shown} over {self.label}")

    def scalar_to_json(self, x):
        if self.kind == RATIONALS:
            frac = Fraction(x)
            return int(frac) if frac.denominator == 1 else str(frac)
        return int(x)

    def format_scalar(self, x) -> str:
        return str(x)

    # -- arithmetic -----------------------------------------------------
    def add(self, a, b):
        s = a + b
        return s % self.p if self.kind == PRIME_FIELD else s

    def sub(self, a, b):
        s = a - b
        return s % self.p if self.kind == PRIME_FIELD else s

    def mul(self, a, b):
        s = a * b
        return s % self.p if self.kind == PRIME_FIELD else s

    def neg(self, a):
        return (-a) % self.p if self.kind == PRIME_FIELD else -a

    def is_zero(self, a) -> bool:
        return a == 0

    # -- parsing of domain labels ----------------------------------------
    @staticmethod
    def from_label(label) -> "CoefficientDomain":
        """Parse ``"Q"``, ``"Z"``, ``"F<p>"`` (p in ASCII digits) or
        ``{"p": <p>}``."""
        if isinstance(label, CoefficientDomain):
            return label
        if isinstance(label, dict) and set(label) == {"p"}:
            return GF(label["p"])
        if isinstance(label, str):
            if label == "Q":
                return Q
            if label == "Z":
                return Z
            if label.startswith("F") and label[1:].isascii() and label[1:].isdigit():
                return GF(int(label[1:]))
        raise ValueError(f"unknown coefficient domain: {label!r}")


Q = CoefficientDomain(RATIONALS)
Z = CoefficientDomain(INTEGERS)


def GF(p: int) -> CoefficientDomain:
    return CoefficientDomain(PRIME_FIELD, p)
