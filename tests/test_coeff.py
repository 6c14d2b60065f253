import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineint.coeff import (
    PRIME_LIMIT,
    PAdic,
    _padic,
    _reduce,
    _scalar_parts,
    check_prime,
    padic_normalize,
    vp_int,
)
from lineint.errors import CalculusError, InvalidInputError

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


class TestRational:
    # Rational coefficients are stdlib Fractions; pin the invariants we rely on.

    def test_normal_form(self):
        q = Fraction(6, -4)
        assert q.numerator == -3 and q.denominator == 2
        assert Fraction(0, 7) == Fraction(0, 1)

    @given(rationals, rationals, rationals)
    @settings(max_examples=200, derandomize=True)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + 0 == a and a * 1 == a


def rand_padic(rng, p, max_prec=12):
    n = rng.randint(-200, 200)
    d = rng.randint(1, 60)
    return padic_normalize(n, d, p, rng.randint(3, max_prec))


class TestNormalize:
    def test_integer_with_valuation(self):
        x = padic_normalize(12, 1, 2, 6)
        assert (x.valuation, x.unit, x.abs_prec) == (2, 3, 6)

    def test_denominator_inverse(self):
        x = padic_normalize(1, 3, 2, 4)
        assert (x.valuation, x.unit) == (0, 11)

    def test_zero(self):
        x = padic_normalize(0, 5, 5, 8)
        assert x.is_zero and x.abs_prec == 8

    def test_collapse_below_precision(self):
        x = padic_normalize(32, 1, 2, 4)
        assert x.is_zero and x.abs_prec == 4

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidInputError):
            padic_normalize(1, 0, 2, 4)

    def test_composite_prime_rejected(self):
        with pytest.raises(InvalidInputError):
            padic_normalize(1, 1, 6, 4)
        with pytest.raises(InvalidInputError):
            check_prime(1)

    def test_negative_valuation(self):
        x = padic_normalize(3, 4, 2, 6)
        assert (x.valuation, x.unit) == (-2, 3)
        assert x.rel_prec == 8


class TestArithmetic:
    # Oracle: compare against plain integer arithmetic modulo p^N on the
    # exact rational representatives.

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_add_mul_against_integer_oracle(self, p):
        rng = random.Random(p * 1009)
        for _ in range(200):
            a, b = rand_padic(rng, p), rand_padic(rng, p)
            s, m = a + b, a * b
            fa, fb = a.to_fraction(), b.to_fraction()
            for got, expect in ((s, fa + fb), (m, fa * fb)):
                diff = expect - got.to_fraction()
                if diff != 0:
                    v = vp_int(diff.numerator, p) - vp_int(diff.denominator, p)
                    assert v >= got.abs_prec

    def test_add_precision_is_min(self):
        a = padic_normalize(3, 1, 2, 9)
        b = padic_normalize(5, 1, 2, 4)
        assert (a + b).abs_prec == 4

    def test_mul_precision_rule(self):
        a = padic_normalize(12, 1, 2, 6)   # v=2, N=6
        b = padic_normalize(5, 1, 2, 4)    # v=0, N=4
        assert (a * b).abs_prec == min(6 + 0, 4 + 2)

    def test_cancellation_raises_valuation(self):
        a = padic_normalize(3, 1, 2, 8)
        b = padic_normalize(-3 + 16, 1, 2, 8)
        c = a + b
        assert c.valuation == 4

    def test_scalar_int_preserves_relative_precision(self):
        a = padic_normalize(3, 1, 2, 5)
        assert (a * 4).abs_prec == 7 and (a * 4).valuation == 2
        assert (a / 4).abs_prec == 3 and (a / 4).valuation == -2
        assert (a * 0).is_zero

    def test_division(self):
        a = padic_normalize(12, 1, 2, 6)
        assert a / 4 == 3
        q = a / padic_normalize(3, 1, 2, 6)
        assert q == 4
        with pytest.raises(InvalidInputError):
            a / PAdic.zero(2, 5)

    def test_inverse(self):
        a = padic_normalize(3, 1, 2, 5)
        assert a.inverse().unit == 11
        assert a * a.inverse() == 1

    @pytest.mark.parametrize("p", [2, 5])
    def test_ultrametric_inequality(self, p):
        rng = random.Random(p)
        for _ in range(100):
            a, b = rand_padic(rng, p), rand_padic(rng, p)
            s = a + b
            assert s.valuation_floor >= min(a.valuation_floor, b.valuation_floor)
            m = a * b
            if not (a.is_zero or b.is_zero or m.is_zero):
                assert m.valuation == a.valuation + b.valuation

    def test_equality_at_min_precision(self):
        a = padic_normalize(3, 1, 2, 5)
        assert a == padic_normalize(3 + 32, 1, 2, 5)
        assert a != padic_normalize(3 + 16, 1, 2, 5)
        assert a == 3
        assert a != padic_normalize(3, 1, 3, 5)

    def test_mixed_prime_arithmetic_rejected(self):
        with pytest.raises(InvalidInputError):
            padic_normalize(1, 1, 2, 4) + padic_normalize(1, 1, 3, 4)


class TestText:
    def test_str_forms(self):
        assert str(padic_normalize(12, 1, 2, 6)) == "2^2*3 (mod 2^6)"
        assert str(PAdic.zero(5, 4)) == "0 (mod 5^4)"
        assert str(padic_normalize(3, 4, 2, 6)) == "2^-2*3 (mod 2^6)"


class TestCheckPrime:
    def trial_division(self, n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    def test_agrees_with_trial_division(self):
        for n in range(-3, 5000):
            try:
                check_prime(n)
                accepted = True
            except InvalidInputError:
                accepted = False
            assert accepted == self.trial_division(n), n

    def test_mersenne_prime_2_61_accepted(self):
        assert check_prime(2**61 - 1) == 2**61 - 1

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_rejected(self, n):
        with pytest.raises(InvalidInputError, match="not prime"):
            check_prime(n)

    @pytest.mark.parametrize("n", [PRIME_LIMIT, 2**64 + 13])
    def test_limit_refused_with_invalid_input(self, n):
        with pytest.raises(InvalidInputError, match="below 2\\^64") as e:
            check_prime(n)
        assert e.value.code == "invalid-input"

    def test_largest_prime_below_limit_accepted(self):
        assert check_prime(2**64 - 59) == 2**64 - 59
        with pytest.raises(InvalidInputError):
            check_prime(2**64 - 1)


# -- differential gate ---------------------------------------------------------
# The Fraction-based arithmetic that PAdic used before its integer kernel,
# kept as an oracle: every kernel result must equal it field for field, and
# every failure must raise the same error class.


def fraction_normalize(numerator, denominator, prime, abs_prec):
    check_prime(prime)
    if denominator == 0:
        raise InvalidInputError("denominator must be nonzero")
    if numerator == 0:
        return FractionPAdic(prime, None, 0, abs_prec)
    vn = vp_int(numerator, prime)
    vd = vp_int(denominator, prime)
    v = vn - vd
    rel = abs_prec - v
    if rel < 1:
        return FractionPAdic(prime, None, 0, abs_prec)
    modulus = prime**rel
    num_unit = numerator // prime**vn
    den_unit = denominator // prime**vd
    unit = num_unit * pow(den_unit, -1, modulus) % modulus
    return FractionPAdic(prime, v, unit, abs_prec)


def _normalized(q, prime, abs_prec):
    return fraction_normalize(q.numerator, q.denominator, prime, abs_prec)


class FractionPAdic(PAdic):
    """PAdic with every operation routed through exact Fractions."""

    def _coerce(self, other):
        if isinstance(other, PAdic):
            if other.prime != self.prime:
                raise InvalidInputError("p-adic arithmetic needs matching primes")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return _normalized(Fraction(other), self.prime, self.abs_prec)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.abs_prec, o.abs_prec)
        return _normalized(self.to_fraction() + o.to_fraction(), self.prime, n)

    __radd__ = __add__

    def __neg__(self):
        if self.valuation is None:
            return self
        rel = self.abs_prec - self.valuation
        return FractionPAdic(self.prime, self.valuation,
                             -self.unit % self.prime**rel, self.abs_prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 0:
                return FractionPAdic(self.prime, None, 0, self.abs_prec)
            q = Fraction(other)
            k = vp_int(q.numerator, self.prime) - vp_int(q.denominator, self.prime)
            return _normalized(self.to_fraction() * q, self.prime,
                               self.abs_prec + k)
        if not isinstance(other, PAdic):
            return NotImplemented
        o = self._coerce(other)
        n = min(self.abs_prec + o.valuation_floor, o.abs_prec + self.valuation_floor)
        return _normalized(self.to_fraction() * o.to_fraction(), self.prime, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 0:
                raise InvalidInputError("division by zero")
            q = Fraction(other)
            k = vp_int(q.numerator, self.prime) - vp_int(q.denominator, self.prime)
            return _normalized(self.to_fraction() / q, self.prime,
                               self.abs_prec - k)
        if not isinstance(other, PAdic):
            return NotImplemented
        if other.prime != self.prime:
            raise InvalidInputError("p-adic arithmetic needs matching primes")
        if other.is_zero:
            raise InvalidInputError("division by zero")
        if self.is_zero:
            return FractionPAdic(self.prime, None, 0,
                                 self.abs_prec - other.valuation)
        rel = min(self.rel_prec, other.rel_prec)
        n = self.valuation - other.valuation + rel
        return _normalized(self.to_fraction() / other.to_fraction(), self.prime, n)

    def inverse(self):
        if self.is_zero:
            raise InvalidInputError("no inverse")
        return fraction_normalize(1, 1, self.prime, self.rel_prec) / self

    def truncated(self, abs_prec):
        n = min(self.abs_prec, abs_prec)
        return _normalized(self.to_fraction(), self.prime, n)


DIFF_PRIMES = (2, 3, 5, 101)
BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@st.composite
def padic_fields(draw, p):
    """(valuation, unit, abs_prec): zeros, negative valuations, mixed precisions."""
    abs_prec = draw(st.integers(-4, 14))
    if draw(st.integers(0, 4)) == 0:
        return None, 0, abs_prec
    v = draw(st.integers(-6, abs_prec - 1))
    unit = draw(st.integers(1, p ** (abs_prec - v) - 1))
    return v, unit + (unit % p == 0), abs_prec


@st.composite
def scalars(draw, p):
    """ints and Fractions with powers of p in the numerator or the denominator."""
    num = draw(st.integers(-60, 60)) * p ** draw(st.integers(0, 4))
    den = draw(st.integers(1, 60)) * p ** draw(st.integers(0, 4))
    return draw(st.sampled_from([num, Fraction(num, den), Fraction(num, den),
                                 True, False]))


def outcome(compute):
    """The result's fields, or the class of the error it raised."""
    try:
        r = compute()
    except (CalculusError, TypeError) as e:
        return type(e)
    assert isinstance(r, PAdic)
    return r.prime, r.valuation, r.unit, r.abs_prec


class TestKernelMatchesFractionOracle:
    @given(st.data())
    @settings(max_examples=1500, derandomize=True, deadline=None)
    def test_every_operation(self, data):
        p = data.draw(st.sampled_from(DIFF_PRIMES))
        a = data.draw(padic_fields(p))
        b = data.draw(padic_fields(p))
        q = data.draw(scalars(p))
        cut = data.draw(st.integers(-6, 16))
        ka, kb = PAdic(p, *a), PAdic(p, *b)
        fa, fb = FractionPAdic(p, *a), FractionPAdic(p, *b)
        cases = [
            (lambda x, y: -x, "neg"),
            (lambda x, y: x.truncated(cut), "truncated"),
            (lambda x, y: x.inverse(), "inverse"),
        ]
        for op in BINARY_OPS:
            cases += [(lambda x, y, op=op: op(x, y), op.__name__),
                      (lambda x, y, op=op: op(x, q), f"{op.__name__} scalar"),
                      (lambda x, y, op=op: op(q, x), f"scalar {op.__name__}")]
        for f, name in cases:
            assert outcome(lambda: f(ka, kb)) == outcome(lambda: f(fa, fb)), \
                (name, p, a, b, q, cut)

    @given(st.sampled_from(DIFF_PRIMES), st.integers(-10**9, 10**9),
           st.integers(-10**6, 10**6), st.integers(-6, 14))
    @settings(max_examples=500, derandomize=True)
    def test_normalize(self, p, num, den, abs_prec):
        assert outcome(lambda: padic_normalize(num, den, p, abs_prec)) == \
            outcome(lambda: fraction_normalize(num, den, p, abs_prec))

    def test_mixed_primes_rejected_by_every_binary_op(self):
        a, b = PAdic(3, 0, 1, 5), PAdic(5, 0, 1, 5)
        for op in BINARY_OPS:
            with pytest.raises(InvalidInputError):
                op(a, b)


# -- the branching reference -----------------------------------------------
# PAdic's operations as they were when each gave a zero operand a branch of
# its own, kept as the reference for the one path that computes on a zero
# as the unit 0 at its valuation floor.  FractionPAdic inherits to_fraction,
# so the gate above does not check that one on its own.


def branching_normalize(numerator, denominator, prime, abs_prec):
    check_prime(prime)
    if denominator == 0:
        raise InvalidInputError("denominator must be nonzero")
    if numerator == 0:
        return PAdic.zero(prime, abs_prec)
    vd = vp_int(denominator, prime)
    return _reduce(prime, -vd, numerator, abs_prec, denominator // prime**vd)


class BranchingPAdic(PAdic):
    """PAdic with a branch for a zero operand in every operation."""

    def to_fraction(self):
        if self.valuation is None:
            return Fraction(0)
        if self.valuation >= 0:
            return Fraction(self.unit * self.prime**self.valuation)
        return Fraction(self.unit, self.prime ** (-self.valuation))

    def _coerce(self, other):
        if isinstance(other, PAdic):
            if other.prime != self.prime:
                raise InvalidInputError("p-adic arithmetic needs matching primes")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            x = branching_normalize(other.numerator, other.denominator,
                                    self.prime, self.abs_prec)
            return BranchingPAdic(x.prime, x.valuation, x.unit, x.abs_prec)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, n = self.prime, min(self.abs_prec, o.abs_prec)
        va, vb = self.valuation, o.valuation
        if vb is None:
            if va is None:
                return _padic(p, None, 0, n)
            return _reduce(p, va, self.unit, n)
        if va is None:
            return _reduce(p, vb, o.unit, n)
        if va <= vb:
            s = self.unit + o.unit * p ** (vb - va)
        else:
            s, va = o.unit + self.unit * p ** (va - vb), vb
        return _reduce(p, va, s, n)

    __radd__ = __add__

    def __neg__(self):
        if self.valuation is None:
            return self
        rel = self.abs_prec - self.valuation
        return _padic(self.prime, self.valuation, -self.unit % self.prime**rel,
                      self.abs_prec)

    def __mul__(self, other):
        p = self.prime
        if isinstance(other, PAdic):
            o = self._coerce(other)
            n = min(self.abs_prec + o.valuation_floor,
                    o.abs_prec + self.valuation_floor)
            if self.valuation is None or o.valuation is None:
                return _padic(p, None, 0, n)
            v = self.valuation + o.valuation
            return _padic(p, v, self.unit * o.unit % p ** (n - v), n)
        if not isinstance(other, (int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        if other == 0:
            return _padic(p, None, 0, self.abs_prec)
        k, num, den = _scalar_parts(other, p)
        if self.valuation is None:
            return _padic(p, None, 0, self.abs_prec + k)
        return _reduce(p, self.valuation + k, self.unit * num,
                       self.abs_prec + k, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self.prime
        if isinstance(other, PAdic):
            return self * self._coerce(other).inverse()
        if not isinstance(other, (int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        if other == 0:
            raise InvalidInputError("division by zero")
        k, num, den = _scalar_parts(other, p)
        if self.valuation is None:
            return _padic(p, None, 0, self.abs_prec - k)
        return _reduce(p, self.valuation - k, self.unit * den,
                       self.abs_prec - k, num)

    def truncated(self, abs_prec):
        n = min(self.abs_prec, abs_prec)
        if self.valuation is None:
            return _padic(self.prime, None, 0, n)
        return _reduce(self.prime, self.valuation, self.unit, n)


class TestOnePathMatchesBranchingReference:
    @given(st.data())
    @settings(max_examples=1000, derandomize=True, deadline=None)
    def test_every_operation(self, data):
        p = data.draw(st.sampled_from(DIFF_PRIMES))
        a = data.draw(padic_fields(p))
        b = data.draw(padic_fields(p))
        q = data.draw(scalars(p))
        cut = data.draw(st.integers(-6, 16))
        ka, kb = PAdic(p, *a), PAdic(p, *b)
        ra, rb = BranchingPAdic(p, *a), BranchingPAdic(p, *b)
        v, unit, _ = a
        exact = 0 if v is None else Fraction(unit) * Fraction(p) ** v
        assert ka.to_fraction() == ra.to_fraction() == exact, (p, a)
        cases = [(lambda x, y: -x, "neg"),
                 (lambda x, y: x.truncated(cut), "truncated")]
        for op in BINARY_OPS:
            cases += [(lambda x, y, op=op: op(x, y), op.__name__),
                      (lambda x, y, op=op: op(x, q), f"{op.__name__} scalar"),
                      (lambda x, y, op=op: op(q, x), f"scalar {op.__name__}")]
        for f, name in cases:
            assert outcome(lambda: f(ka, kb)) == outcome(lambda: f(ra, rb)), \
                (name, p, a, b, q, cut)
        for num in (0, q.numerator):
            assert outcome(lambda: padic_normalize(num, q.denominator, p, cut)) \
                == outcome(lambda: branching_normalize(num, q.denominator, p,
                                                       cut)), (p, q, cut)
