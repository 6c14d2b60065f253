"""Logarithms: the formal power-series log and its two p-adic relatives."""

import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lineint.coeff import PAdic
from lineint.errors import (
    InsufficientWindowError,
    InvalidInputError,
    NonUnitError,
)
from lineint.parsing import parse_series
from lineint.series import (
    RingLabel,
    TruncatedSeries,
    _rational_coeffs,
    derive,
    dlog,
    formal_log,
    inverse,
    padic_log_dagger,
    padic_log_one_minus_py,
    series_from_coeffs,
    unboundedness_witness,
    unit_decompose,
    valuation_profile,
    zero_series,
)

F = RingLabel.FORMAL
GP = RingLabel.GAMMA_PLUS
G = RingLabel.GAMMA


def fseries(min_degree, values):
    return series_from_coeffs(F, min_degree, values)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def formal_units(length=10):
    def build(c0, tail):
        return fseries(0, [c0] + tail)
    return st.builds(
        build,
        rationals.filter(lambda c: c != 0),
        st.lists(rationals, min_size=length - 1, max_size=length - 1),
    )


class TestUnitDecompose:
    def test_example(self):
        c, w = unit_decompose(fseries(0, [3, 1, 1]))
        assert c == 3
        assert w.coeffs == (0, Fraction(-1, 3), Fraction(-1, 3))

    def test_reassembles(self):
        s = fseries(0, [2, 5, -7, 1])
        c, w = unit_decompose(s)
        one = fseries(0, [1, 0, 0, 0])
        assert (one - w).scale(c) == s

    def test_gamma_plus_constant_must_be_unit(self):
        s = series_from_coeffs(GP, 0, [2, 1], prime=2)
        with pytest.raises(NonUnitError):
            unit_decompose(s)

    def test_zero_constant_rejected(self):
        with pytest.raises(NonUnitError):
            unit_decompose(fseries(0, [0, 1]))
        with pytest.raises(NonUnitError):
            unit_decompose(fseries(1, [1]))

    def test_window_must_reach_degree_zero(self):
        with pytest.raises(InsufficientWindowError):
            unit_decompose(zero_series(F, 0, 0))

    def test_laurent_rings_rejected(self):
        s = series_from_coeffs(RingLabel.E, 0, [1], prime=2)
        with pytest.raises(InvalidInputError):
            unit_decompose(s)


def stripped(s):
    """A rational window with min_degree raised past its leading zeros."""
    k = 0
    while k < len(s.coeffs) and s.coeffs[k] == 0:
        k += 1
    return TruncatedSeries(s.ring, s.min_degree + k, s.coeffs[k:],
                           s.trunc_order)


def power_sum_log(a):
    """-sum(w^n / n) for a = c * (1 - w), cut at the window end of a.

    The power-sum logarithm, O(T^3), kept as the reference that the
    antiderivative-of-dlog route in formal_log is compared against."""
    _, w = unit_decompose(a)
    t = a.trunc_order
    acc = zero_series(F, 0, t)
    w = stripped(w)
    power = w
    for n in range(1, t):
        if power.order() is None:
            break
        acc = acc + power.clipped(trunc_order=t).scale(Fraction(-1, n))
        if n + 1 < t:
            power = stripped(power * w).clipped(trunc_order=t)
            if power.min_degree >= t:
                break
    return acc.clipped(trunc_order=t)


def sparse_formal_units():
    """Units with T = 1..14: rational constant terms, mostly-zero tails."""
    tail_coeff = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                           rationals)

    def with_length(n):
        return st.builds(
            lambda c0, tail: fseries(0, [c0] + tail),
            rationals.filter(lambda c: c != 0),
            st.lists(tail_coeff, min_size=n - 1, max_size=n - 1),
        )
    return st.integers(min_value=1, max_value=14).flatmap(with_length)


class TestFormalLogAgainstPowerSum:
    @staticmethod
    def assert_same(a):
        got, want = formal_log(a), power_sum_log(a)
        assert got.ring is want.ring is F
        assert got.min_degree == want.min_degree == 0
        assert got.trunc_order == want.trunc_order == a.trunc_order
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)

    @given(sparse_formal_units())
    @settings(max_examples=300)
    def test_same_window_and_coefficients(self, a):
        self.assert_same(a)

    @pytest.mark.parametrize("values", [
        [5],
        [Fraction(-7, 3)],
        [Fraction(2, 9), 0, 0, 0],
        [1, -1],
        [2, 0, 0, -1, 0, Fraction(1, 2), 0, 0, 0],
        [Fraction(-3, 4), Fraction(5, 6), 0, Fraction(-1, 7)],
    ])
    def test_edge_cases(self, values):
        self.assert_same(fseries(0, values))

    @pytest.mark.parametrize("a", [
        fseries(0, [0, 1]),
        fseries(1, [1, 2]),
        zero_series(F, 0, 0),
    ])
    def test_same_error_class(self, a):
        with pytest.raises(Exception) as want:
            power_sum_log(a)
        with pytest.raises(want.type):
            formal_log(a)


class TestFormalLog:
    def test_log_one_minus_t(self):
        n = 12
        s = fseries(0, [1, -1] + [0] * (n - 2))
        z = formal_log(s)
        assert z.min_degree == 0 and z.trunc_order == n
        assert z.coefficient(0) == 0
        assert all(z.coefficient(k) == Fraction(-1, k) for k in range(1, n))

    def test_log_of_constant_vanishes(self):
        z = formal_log(fseries(0, [7, 0, 0, 0, 0]))
        assert z.is_zero

    def test_scaling_the_unit_changes_nothing(self):
        s = fseries(0, [1, 2, 3, 4, 5, 6])
        assert formal_log(s) == formal_log(s.scale(Fraction(-9, 4)))

    def test_log_geometric(self):
        # 1/(1-t) is the inverse unit: log flips sign
        n = 10
        s = fseries(0, [1, -1] + [0] * (n - 2))
        z = formal_log(s)
        zi = formal_log(fseries(0, [1] * n))
        assert (z + zi).is_zero

    def test_padic_rings_rejected(self):
        s = series_from_coeffs(GP, 0, [1, 1], prime=2)
        with pytest.raises(InvalidInputError):
            formal_log(s)

    @given(formal_units(), formal_units())
    @settings(max_examples=60)
    def test_homomorphism(self, a, b):
        lhs = formal_log(a * b)
        rhs = formal_log(a) + formal_log(b)
        assert lhs.agrees_with(rhs)

    @given(formal_units())
    @settings(max_examples=60)
    def test_derivative_of_log_is_dlog(self, a):
        assume(a.coefficient(0) != 0)
        assert derive(formal_log(a)).agrees_with(dlog(a))


class TestLogOneMinusPy:
    def test_zero_input(self):
        y = zero_series(GP, 0, 4, prime=2, abs_prec=8)
        z = padic_log_one_minus_py(y)
        assert z.is_zero
        assert z.min_degree == 0 and z.trunc_order == 4

    def test_constant_one_at_p_two(self):
        # log(1 - 2) = log(-1) = 0 in the 2-adics
        y = series_from_coeffs(GP, 0, [1], prime=2, abs_prec=6)
        z = padic_log_one_minus_py(y)
        assert z.is_zero

    def test_output_is_integral_with_rising_valuations(self):
        y = series_from_coeffs(GP, 0, [0, 1] + [0] * 6, prime=3, abs_prec=9)
        z = padic_log_one_minus_py(y)
        assert z.ring is GP
        # log(1 - 3u) = -(3u + 9u^2/2 + 27u^3/3 + ...)
        assert valuation_profile(z) == [
            (1, 1), (2, 2), (3, 2), (4, 4), (5, 5), (6, 5), (7, 7)
        ]
        assert z.coefficient(1) == PAdic.from_rational(-3, 3, 9)
        assert z.coefficient(3) == PAdic.from_rational(-9, 3, 9)

    def test_derivative_matches_dlog(self):
        y = series_from_coeffs(GP, 0, [0, 1] + [0] * 8, prime=2, abs_prec=10)
        z = padic_log_one_minus_py(y)
        v = series_from_coeffs(GP, 0, [1, -2] + [0] * 8, prime=2, abs_prec=10)
        assert derive(z).series.agrees_with(dlog(v).series)

    def test_laurent_input_floors_precision(self):
        # y with a pole: high powers of (p*y) reach every degree, so
        # coefficients are only known modulo the first missing term
        y = series_from_coeffs(G, -1, [1, 0, 0, 1], prime=2, abs_prec=12)
        z = padic_log_one_minus_py(y)
        assert z.ring is G
        assert z.trunc_order == 3
        assert z.min_degree < -1
        # degree -2 is first touched by the n = 2 term, bound 2 - v_2(2) = 1;
        # later terms only sharpen it, so some precision must survive
        c = z.coefficient(-2)
        assert c.abs_prec >= 1
        # value check: (2y)^2/2 contributes 2 u^-2; the n = 4, 6, ... terms
        # add multiples of 2^3, so v_2 = 1 exactly
        assert not c.is_zero and c.valuation == 1

    def test_rejects_non_integral_rings(self):
        y = series_from_coeffs(RingLabel.E, 0, [1], prime=2)
        with pytest.raises(InvalidInputError):
            padic_log_one_minus_py(y)

    @given(st.lists(st.integers(min_value=-50, max_value=50),
                    min_size=5, max_size=5))
    @settings(max_examples=40)
    def test_output_always_integral(self, cs):
        y = series_from_coeffs(GP, 0, cs, prime=3, abs_prec=8)
        z = padic_log_one_minus_py(y)
        assert all(c.is_zero or c.valuation >= 1 for c in z.coeffs)


class TestLogDagger:
    def test_log_one_minus_u(self):
        n = 9
        v = series_from_coeffs(GP, 0, [1, -1] + [0] * (n - 2),
                               prime=2, abs_prec=12)
        z = padic_log_dagger(v)
        assert z.ring is RingLabel.ROBBA_PLUS
        assert z.min_degree == 1 and z.trunc_order == n
        for k in range(1, n):
            assert z.coefficient(k) == PAdic.from_rational(
                Fraction(-1, k), 2, 12)

    def test_denominators_grow_without_bound(self):
        v = series_from_coeffs(GP, 0, [1, -1] + [0] * 7, prime=2, abs_prec=12)
        z = padic_log_dagger(v)
        profile = dict(valuation_profile(z))
        assert profile[2] == -1 and profile[4] == -2 and profile[8] == -3

    def test_witness(self):
        v = series_from_coeffs(GP, 0, [1, -1] + [0] * 23,
                               prime=2, abs_prec=12)
        z = padic_log_dagger(v)
        assert unboundedness_witness(z, 1)

    def test_agrees_with_one_minus_py_route(self):
        # log(1 - 2u) two ways: antiderivative of dv/v, and the direct sum
        v = series_from_coeffs(GP, 0, [1, -2] + [0] * 10, prime=2, abs_prec=14)
        y = series_from_coeffs(GP, 0, [0, 1] + [0] * 10, prime=2, abs_prec=14)
        a = padic_log_dagger(v)
        b = padic_log_one_minus_py(y)
        assert a.agrees_with(b)

    def test_rejects_other_rings(self):
        v = series_from_coeffs(G, 0, [1, -1], prime=2)
        with pytest.raises(InvalidInputError):
            padic_log_dagger(v)

    def test_non_unit_rejected(self):
        v = series_from_coeffs(GP, 0, [2, 1], prime=2)
        with pytest.raises(NonUnitError):
            padic_log_dagger(v)


class TestWitness:
    def test_integral_series_fails_the_pattern(self):
        s = series_from_coeffs(GP, 0, [1] * 20, prime=2, abs_prec=8)
        assert not unboundedness_witness(s, 1)

    def test_vanishing_probe_fails(self):
        s = zero_series(RingLabel.ROBBA_PLUS, 0, 20, prime=2, abs_prec=8)
        assert not unboundedness_witness(s, 1)

    def test_needs_two_probe_degrees(self):
        s = series_from_coeffs(GP, 0, [1, 1, 1], prime=2)
        with pytest.raises(InsufficientWindowError):
            unboundedness_witness(s, 1)

    def test_base_degree_must_be_positive(self):
        s = series_from_coeffs(GP, 0, [1] * 20, prime=2)
        with pytest.raises(InvalidInputError):
            unboundedness_witness(s, 0)

    def test_rational_rejected(self):
        with pytest.raises(InvalidInputError):
            unboundedness_witness(fseries(0, [1] * 20), 1)


def unprintable(degree):
    return (f"the coefficient of degree {degree} has more than "
            f"{sys.get_int_max_str_digits()} digits and cannot be printed")


class TestBoundedRationalWork:
    """The rational log, dlog and inverse refuse a coefficient too long to
    print when they reach it, so the work stops there.  The degree-k
    coefficient of log(a + t) is (-1)^(k+1)/(k*a^k), of dlog and of the
    inverse (-1)^k/a^(k+1): at a of 30 digits each passes the 4,300-digit
    limit at the 148th power of a.  Computed to the window's end, the
    window below takes about 50 MiB."""

    @pytest.mark.parametrize("op,degree", [
        (formal_log, 148), (lambda a: dlog(a).series, 147), (inverse, 147),
    ], ids=["formal_log", "dlog", "inverse"])
    def test_refused_where_the_first_unprintable_coefficient_is(
            self, op, degree):
        a = parse_series("123456789012345678901234567890 + t + O(t^2000)",
                         F, None)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError) as info:
                op(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == unprintable(degree)
        assert peak < 4 * 2**20

    def test_the_limit_is_the_printers(self):
        big = 10 ** sys.get_int_max_str_digits()
        for q, d in ((big - 1, 1), (1 - big, big - 2)):
            assert list(_rational_coeffs([(q, d)], 7)) == [Fraction(q, d)]
        for q, d in ((-big, 1), (1, big)):
            with pytest.raises(InvalidInputError) as info:
                list(_rational_coeffs([(1, 1), (q, d)], 6))
            assert str(info.value) == unprintable(7)
