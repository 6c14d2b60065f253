"""Coefficient arithmetic: exact rationals and precision-tracked p-adics.

Rational coefficients are plain :class:`fractions.Fraction` values; the
stdlib type already keeps them reduced with a positive denominator, which is
exactly the normal form required here.

A :class:`PAdic` stores an element of Q_p known modulo p^abs_prec, in the
shape p^valuation * unit.  Arithmetic follows interval semantics: every
result's absolute precision is the largest exponent N such that the result
is provably correct modulo p^N given what was known about the operands.

    add:  abs_prec = min of the operands' absolute precisions
    mul:  abs_prec = min(N_a + v_b, N_b + v_a)

A value that cannot be told apart from zero at its precision is stored with
``valuation = None`` and ``unit = 0``; it stands for "some element of
valuation >= abs_prec", the ball p^abs_prec * Z_p.  Arithmetic computes on
a zero as the unit 0 at its ``valuation_floor``, abs_prec.

The arithmetic works on these integer fields directly, never through
``Fraction``.  A sum brings both units to the smaller valuation floor with
powers of p and adds once; a product adds floors and multiplies units; a
quotient multiplies by one modular inverse.  Every result then passes
:func:`_reduce` (strip factors of p with :func:`vp_int`, reduce the unit
modulo p^(abs_prec - valuation)), so the form stays canonical; it is the
one place that recognises a zero.

Validation happens at the boundary: ``PAdic(...)``, ``zero``, ``one``,
``from_rational`` and ``padic_normalize`` check prime and form.  Results of
arithmetic on valid operands are canonical, and ``_padic`` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .errors import InvalidInputError, _named

Rational = Fraction

_PRIMES_SEEN: set[int] = set()

# Primes must lie below this bound, where the bases below make
# Miller-Rabin deterministic.
PRIME_LIMIT = 2**64
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# A working precision must keep abs_prec * log2(p) within this many bits.
# p^abs_prec then has at most 1,234 decimal digits, which leaves room under
# the 4,300 digits Python converts between int and str for the digits a
# negative valuation adds, so every coefficient prints.
PREC_BITS_LIMIT = 4096

# A degree or window end read from input must have absolute value at most
# this.  A window stores every degree it spans, so this bounds what reading
# one allocates.
DEGREE_LIMIT = 2**16

# A matrix read from a document may have at most this many rows.  Its
# trivialization makes O(r^3) series products: `lineint invariant` on a
# dense strictly upper triangular 64 x 64 connection over gamma+ at p = 3,
# abs_prec 20, on [0, 20) takes about 6 s in process (2-vCPU Xeon virtual
# machine, CPython 3.11.7).
MATRIX_SIZE_LIMIT = 64


def check_prime(p: int) -> int:
    """Validate that p is a positive prime below PRIME_LIMIT; return it."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidInputError(f"prime must be an integer, got {p!r}")
    if p in _PRIMES_SEEN:
        return p
    if p < 2:
        raise InvalidInputError(f"prime must be >= 2, got {p}")
    if p >= PRIME_LIMIT:
        raise InvalidInputError(f"prime must be below 2^64, got {p}")
    if not _is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    _PRIMES_SEEN.add(p)
    return p


def check_precision(p: int | None, abs_prec: int) -> int:
    """Validate that abs_prec * log2(p) is at most PREC_BITS_LIMIT; return
    abs_prec.  A rational ring (p None) has no working precision to bound."""
    if p is not None and abs_prec * math.log2(p) > PREC_BITS_LIMIT:
        raise InvalidInputError(
            f"abs_prec {abs_prec} at p = {p} exceeds the precision bound "
            f"abs_prec * log2(p) <= {PREC_BITS_LIMIT}")
    return abs_prec


def check_degree(n: int) -> int:
    """Validate that |n| is at most DEGREE_LIMIT; return n."""
    if abs(n) > DEGREE_LIMIT:
        raise InvalidInputError(
            f"degree or window end {n} exceeds the bound "
            f"|n| <= {DEGREE_LIMIT}")
    return n


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37, exact for 2 <= n < 2^64."""
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise InvalidInputError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True, eq=False)
class PAdic:
    """An element of Q_p known modulo p^abs_prec.

    ``inverse`` is the primitive of division: one modular inverse of the
    unit, at the same relative precision.  a / b is a * b.inverse(), so the
    product rule is the only precision rule a quotient follows.  Division by
    an exact int or Fraction scales directly.

    Fields
    ------
    prime:     the prime p.
    valuation: v_p of the value, or None when the value is indistinguishable
               from zero at this precision (valuation >= abs_prec).
    unit:      integer in [1, p^(abs_prec - valuation)) coprime to p; 0 for
               the zero case.
    abs_prec:  the value is known modulo p^abs_prec.
    """

    prime: int
    valuation: int | None
    unit: int
    abs_prec: int

    def __post_init__(self):
        check_prime(self.prime)
        if self.valuation is None:
            if self.unit != 0:
                raise InvalidInputError("zero p-adic must have unit 0")
        else:
            rel = self.abs_prec - self.valuation
            if rel < 1:
                raise InvalidInputError(
                    "nonzero p-adic needs abs_prec > valuation "
                    f"(got valuation {self.valuation}, abs_prec {self.abs_prec})"
                )
            if not 1 <= self.unit < self.prime**rel or self.unit % self.prime == 0:
                raise InvalidInputError(
                    f"{_named('unit', self.unit)} invalid for relative "
                    f"precision {rel}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, prime: int, abs_prec: int) -> "PAdic":
        return cls(prime, None, 0, abs_prec)

    @classmethod
    def one(cls, prime: int, abs_prec: int) -> "PAdic":
        return padic_normalize(1, 1, prime, abs_prec)

    @classmethod
    def from_rational(cls, value, prime: int, abs_prec: int) -> "PAdic":
        """An int (a bool is not one) or a Fraction at abs_prec."""
        if type(value) is not int and not isinstance(value, Fraction):
            raise InvalidInputError(
                f"expected an int or a Fraction, got {value!r}")
        return padic_normalize(value.numerator, value.denominator, prime,
                               abs_prec)

    # -- views -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when the value cannot be told apart from zero at this precision."""
        return self.valuation is None

    @property
    def rel_prec(self) -> int | None:
        return None if self.valuation is None else self.abs_prec - self.valuation

    @property
    def valuation_floor(self) -> int:
        """A proven lower bound for the valuation."""
        return self.abs_prec if self.valuation is None else self.valuation

    def to_fraction(self) -> Fraction:
        """The exact rational representative p^v * unit (0 for the zero case)."""
        v = self.valuation_floor
        if v >= 0:
            return Fraction(self.unit * self.prime**v)
        return Fraction(self.unit, self.prime**-v)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PAdic):
            if other.prime != self.prime:
                raise InvalidInputError("p-adic arithmetic needs matching primes")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return padic_normalize(other.numerator, other.denominator,
                                   self.prime, self.abs_prec)
        return None

    def __add__(self, other) -> "PAdic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, fa, fb = self.prime, self.valuation_floor, o.valuation_floor
        v = min(fa, fb)
        return _reduce(p, v, self.unit * p**(fa - v) + o.unit * p**(fb - v),
                       min(self.abs_prec, o.abs_prec))

    __radd__ = __add__

    def __neg__(self) -> "PAdic":
        return _reduce(self.prime, self.valuation_floor, -self.unit,
                       self.abs_prec)

    def __sub__(self, other) -> "PAdic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "PAdic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "PAdic":
        p = self.prime
        if isinstance(other, PAdic):
            o = self._coerce(other)
            fa, fb = self.valuation_floor, o.valuation_floor
            return _reduce(p, fa + fb, self.unit * o.unit,
                           min(self.abs_prec + fb, o.abs_prec + fa))
        if not isinstance(other, (int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        # Exact scalar: relative precision is preserved.
        if other == 0:
            return _padic(p, None, 0, self.abs_prec)
        k, num, den = _scalar_parts(other, p)
        return _reduce(p, self.valuation_floor + k, self.unit * num,
                       self.abs_prec + k, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PAdic":
        p = self.prime
        if isinstance(other, PAdic):
            return self * self._coerce(other).inverse()
        if not isinstance(other, (int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        if other == 0:
            raise InvalidInputError("division by zero")
        k, num, den = _scalar_parts(other, p)
        return _reduce(p, self.valuation_floor - k, self.unit * den,
                       self.abs_prec - k, num)

    def inverse(self) -> "PAdic":
        """1/self: one modular inverse, at the same relative precision."""
        if self.is_zero:
            raise InvalidInputError(
                "no inverse: value indistinguishable from zero at this precision"
            )
        rel = self.abs_prec - self.valuation
        return _padic(self.prime, -self.valuation,
                      pow(self.unit, -1, self.prime**rel), rel - self.valuation)

    def truncated(self, abs_prec: int) -> "PAdic":
        """The same value known only modulo p^abs_prec (never gains precision)."""
        return _reduce(self.prime, self.valuation_floor, self.unit,
                       min(self.abs_prec, abs_prec))

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Agreement at the minimum of the two absolute precisions."""
        if isinstance(other, PAdic) and other.prime != self.prime:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero

    __hash__ = None

    # -- text --------------------------------------------------------------

    def __str__(self):
        p, n = self.prime, self.abs_prec
        if self.valuation is None:
            return f"0 (mod {p}^{n})"
        return f"{p}^{self.valuation}*{self.unit} (mod {p}^{n})"

    def __repr__(self):
        return f"PAdic({self})"


def padic_normalize(numerator: int, denominator: int, prime: int,
                    abs_prec: int) -> PAdic:
    """Normalize a rational a/b into p^v * unit form at the given precision.

    The denominator must be nonzero.  Values of valuation >= abs_prec
    collapse to the zero element at that precision.
    """
    check_prime(prime)
    if denominator == 0:
        raise InvalidInputError("denominator must be nonzero")
    vd = vp_int(denominator, prime)
    return _reduce(prime, -vd, numerator, abs_prec, denominator // prime**vd)


def _reduce(prime: int, valuation: int, num: int, abs_prec: int,
            den: int = 1) -> PAdic:
    """p^valuation * num/den at precision abs_prec, for den prime to p:
    strip p from num, then reduce modulo p^(abs_prec - v), or give zero."""
    if num % prime == 0:
        if num == 0:
            return _padic(prime, None, 0, abs_prec)
        k = vp_int(num, prime)
        num //= prime**k
        valuation += k
    rel = abs_prec - valuation
    if rel < 1:
        return _padic(prime, None, 0, abs_prec)
    modulus = prime**rel
    if den != 1:
        num *= pow(den, -1, modulus)
    return _padic(prime, valuation, num % modulus, abs_prec)


def _padic(prime, valuation, unit, abs_prec) -> PAdic:
    """A PAdic of these fields, unchecked: only for arithmetic results."""
    x = object.__new__(PAdic)
    x.__dict__.update(prime=prime, valuation=valuation, unit=unit,
                      abs_prec=abs_prec)
    return x


def _scalar_parts(q, prime: int) -> tuple[int, int, int]:
    """(k, a, b) with q = p^k * a/b and a, b prime to p, for a nonzero
    int or Fraction q."""
    a, b = q.numerator, q.denominator
    ka, kb = vp_int(a, prime), vp_int(b, prime)
    return ka - kb, a // prime**ka, b // prime**kb
