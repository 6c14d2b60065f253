"""Window bookkeeping and calculus on truncated series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lineint.coeff import PAdic
from lineint.errors import (
    CalculusError,
    CannotDetermineDegreeError,
    DisjointWindowsError,
    InsufficientWindowError,
    IntegralityError,
    IntegralObstructionError,
    InvalidInputError,
    NonUnitError,
    NotIntegralError,
)
from lineint.scheme import biseries_from_map
from lineint.series import (
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    antiderive,
    degree_of_unit,
    derive,
    dlog,
    inverse,
    monomial,
    one_series,
    residue,
    series_from_coeffs,
    valuation_profile,
    zero_series,
)

F = RingLabel.FORMAL
GP = RingLabel.GAMMA_PLUS
G = RingLabel.GAMMA
E = RingLabel.E
RP = RingLabel.ROBBA_PLUS
R = RingLabel.ROBBA


def fseries(min_degree, values):
    return series_from_coeffs(F, min_degree, values)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)

# Windows that series_from_coeffs keeps as they are, p-adic ones at p = 3;
# the Fractions only over formal.  In the last two the first value leaves
# an integral ring and the second is of no ring's kind.
THIRD = PAdic.from_rational(Fraction(1, 3), 3, 5)
KEPT_VALUES = [[PAdic.one(3, 5)], [PAdic.one(5, 5)], [THIRD],
               [Fraction(1, 2)], [Fraction(1, 2), PAdic.one(3, 5)],
               [True], [1.0], ["1"], [None], [THIRD, None], [THIRD, "1"]]


def formal_series(min_len=1, max_len=8):
    return st.lists(rationals, min_size=min_len, max_size=max_len).map(
        lambda cs: fseries(0, cs)
    )


def laurent_series(prime, min_deg=-4, length=9, abs_prec=12):
    return st.lists(
        st.integers(min_value=-200, max_value=200),
        min_size=length, max_size=length,
    ).map(lambda cs: series_from_coeffs(E, min_deg, cs, prime=prime,
                                        abs_prec=abs_prec))


class TestRingLabel:
    def test_laurent_flags(self):
        assert not F.laurent and not GP.laurent and not RP.laurent
        assert G.laurent and E.laurent and R.laurent
        assert RingLabel.DAGGER.laurent

    def test_integral_flags(self):
        assert GP.integral and G.integral
        assert not E.integral and not RP.integral and not F.integral

    def test_padic_flags(self):
        assert not F.padic
        assert all(r.padic for r in RingLabel if r is not F)

    def test_variables(self):
        assert F.variable == "t"
        assert G.variable == "u"

    def test_cli_values(self):
        assert {r.value for r in RingLabel} == {
            "formal", "gamma+", "e+", "gamma", "e", "dagger", "robba+", "robba"
        }


class TestConstruction:
    def test_window_must_not_reverse(self):
        with pytest.raises(InvalidInputError):
            TruncatedSeries(F, 3, (), 1)

    def test_coeff_count_must_fill_window(self):
        with pytest.raises(InvalidInputError):
            TruncatedSeries(F, 0, (Fraction(1),), 3)

    def test_padic_ring_needs_prime(self):
        with pytest.raises(InvalidInputError):
            series_from_coeffs(GP, 0, [1])

    def test_rational_ring_rejects_prime(self):
        with pytest.raises(InvalidInputError):
            TruncatedSeries(F, 0, (Fraction(1),), 1, prime=2)

    def test_power_series_ring_rejects_negative_degree(self):
        with pytest.raises(InvalidInputError):
            series_from_coeffs(F, -1, [1, 2])
        with pytest.raises(InvalidInputError):
            series_from_coeffs(GP, -1, [1, 2], prime=2)

    def test_laurent_ring_allows_negative_degree(self):
        s = series_from_coeffs(E, -2, [1, 0, 3], prime=5)
        assert s.min_degree == -2 and s.trunc_order == 1

    def test_integral_ring_rejects_negative_valuation(self):
        with pytest.raises(IntegralityError):
            series_from_coeffs(GP, 0, [Fraction(1, 2)], prime=2)

    @pytest.mark.parametrize("ring,prime,abs_prec", [
        (GP, 2, 5), (GP, 3, 1), (E, 5, 0), (R, 3, -1), (RP, 2**61 - 1, 3)])
    def test_int_values_are_read_as_their_fractions(self, ring, prime,
                                                    abs_prec):
        values = [0, 1, -1, 6, -12, 3**7, -(2**70) - 5, prime, prime**2]

        def fields(vals):
            s = series_from_coeffs(ring, 0, vals, prime, abs_prec)
            return [(c.valuation, c.unit, c.abs_prec) for c in s.coeffs]

        assert fields(values) == fields(list(map(Fraction, values)))

    def test_coefficient_kind_must_match_ring(self):
        with pytest.raises(InvalidInputError):
            TruncatedSeries(F, 0, (PAdic.one(2, 5),), 1)
        with pytest.raises(InvalidInputError):
            TruncatedSeries(GP, 0, (Fraction(1),), 1, prime=2)

    def test_prime_of_coefficients_must_match(self):
        with pytest.raises(InvalidInputError):
            TruncatedSeries(G, 0, (PAdic.one(3, 5),), 1, prime=2)

    def test_empty_window_is_allowed(self):
        s = zero_series(F, 2, 2)
        assert s.coeffs == ()

    @pytest.mark.parametrize("value", [PAdic.one(3, 5), None, 0.1, "1/3",
                                       True, 1.0, [1]],
                             ids=["padic", "none", "float", "str", "bool",
                                  "integral-float", "list"])
    @pytest.mark.parametrize("ring,prime", [(F, None), (GP, 2), (RP, 2)],
                             ids=["formal", "gamma+", "robba+"])
    def test_builders_refuse_values_that_are_not_rationals(self, ring, prime,
                                                           value):
        """An int, a Fraction or a PAdic of the ring's prime; anything else
        is invalid-input naming its degree, in every builder."""
        builds = [
            lambda: series_from_coeffs(ring, 0, [1, 0, value], prime),
            lambda: monomial(ring, value, 2, 4, prime),
            lambda: biseries_from_map(ring, {(2, 0): value}, 3, 2, prime),
        ]
        for build in builds:
            with pytest.raises(InvalidInputError, match="at degree 2"):
                build()

    @pytest.mark.parametrize("ring,values", [
        (ring, values) for ring in RingLabel for values in KEPT_VALUES
        if not (ring.padic and isinstance(values[0], Fraction))],
        ids=lambda x: getattr(x, "value", None) or "-".join(map(repr, x)))
    def test_constructor_and_builder_refuse_alike(self, ring, values):
        """Over values the builder keeps as they are, TruncatedSeries(...)
        and series_from_coeffs give one window or one refusal."""
        prime = 3 if ring.padic else None

        def outcome(build):
            try:
                s = build()
            except CalculusError as exc:
                return type(exc), str(exc)
            return (s.ring, s.min_degree, tuple(map(repr, s.coeffs)),
                    s.trunc_order, s.prime)

        assert outcome(lambda: TruncatedSeries(
            ring, 0, tuple(values), len(values), prime)) == outcome(
            lambda: series_from_coeffs(ring, 0, values, prime))

    def test_zero_series_over_a_padic_ring_needs_a_prime(self):
        with pytest.raises(InvalidInputError, match="gamma needs a prime"):
            zero_series(G, 0, 3)

    def test_zeros_share_one_coefficient(self):
        for s in (zero_series(GP, 0, 4, 3), one_series(GP, 4, 3),
                  series_from_coeffs(E, -1, [0, 5, 0, Fraction(1, 3), 0], 3)):
            zeros = [c for c in s.coeffs if c.is_zero]
            assert len(zeros) >= 3 and all(c is zeros[0] for c in zeros)


class TestViews:
    def test_coefficient_below_window_is_exact_zero(self):
        s = fseries(2, [5, 7])
        assert s.coefficient(0) == 0
        assert s.coefficient(-3) == 0

    def test_coefficient_at_or_above_trunc_raises(self):
        s = fseries(0, [1, 2])
        with pytest.raises(InsufficientWindowError):
            s.coefficient(2)
        with pytest.raises(InsufficientWindowError):
            s.coefficient(10)

    def test_padic_zero_coeff_carries_working_precision(self):
        s = series_from_coeffs(GP, 1, [1, 2], prime=2, abs_prec=9)
        z = s.coefficient(0)
        assert z.is_zero and z.abs_prec == 9

    def test_constant_term(self):
        assert fseries(0, [4, 5]).constant_term() == 4
        assert fseries(1, [4]).constant_term() == 0

    def test_order_skips_vanishing_coefficients(self):
        assert fseries(0, [0, 0, 7]).order() == 2
        s = series_from_coeffs(E, -1, [0, 0, 7], prime=2)
        assert s.order() == 1
        assert fseries(0, [0, 0]).order() is None

    def test_is_zero(self):
        assert zero_series(G, -2, 3, prime=3).is_zero
        assert not monomial(F, 1, 2, 5).is_zero


class TestShapes:
    def test_clipped_never_widens(self):
        s = fseries(1, [1, 2, 3])
        c = s.clipped(min_degree=-5, trunc_order=99)
        assert c == s
        c = s.clipped(min_degree=2, trunc_order=3)
        assert c.min_degree == 2 and c.trunc_order == 3
        assert c.coeffs == (Fraction(2),)

    def test_clipped_to_empty(self):
        s = fseries(0, [1, 2])
        assert s.clipped(min_degree=5).coeffs == ()

    def test_relabeled_keeps_coefficients(self):
        s = series_from_coeffs(GP, 0, [1, 2], prime=2)
        r = s.relabeled(RP)
        assert r.ring is RP and r.coeffs == s.coeffs

    def test_without_constant_term(self):
        s = series_from_coeffs(E, -1, [2, 3, 5], prime=2)
        w = s.without_constant_term()
        assert w.coefficient(-1) == PAdic.from_rational(2, 2, 20)
        assert w.coefficient(0).is_zero
        # no-op when degree zero is outside the window
        assert fseries(1, [7]).without_constant_term().coefficient(1) == 7


class TestArithmetic:
    def test_add_window(self):
        a = fseries(0, [1, 1, 1, 1])
        b = fseries(2, [5])
        s = a + b
        assert s.min_degree == 0 and s.trunc_order == 3
        assert s.coeffs == (1, 1, 6)

    def test_add_laurent_windows(self):
        a = series_from_coeffs(E, -2, [1, 0, 0, 0, 0], prime=2)  # [-2, 3)
        b = series_from_coeffs(E, 1, [7, 7, 7, 7], prime=2)      # [1, 5)
        s = a + b
        assert s.min_degree == -2 and s.trunc_order == 3

    def test_mul_window(self):
        a = fseries(1, [1, 2])     # [1, 3)
        b = fseries(2, [3, 4, 5])  # [2, 5)
        s = a * b
        # [1+2, min(3+2, 5+1)) = [3, 5)
        assert s.min_degree == 3 and s.trunc_order == 5
        assert s.coeffs == (3, 10)

    def test_mul_against_dense_polynomials(self):
        a = fseries(0, [1, 2, 3, 4])
        b = fseries(0, [5, 6, 7])
        s = a * b
        # (1+2t+3t^2+4t^3)(5+6t+7t^2) truncated to [0, 3)
        assert s.coeffs == (5, 16, 34)

    def test_scale(self):
        s = fseries(0, [2, 4]).scale(Fraction(1, 2))
        assert s.coeffs == (1, 2)

    def test_ring_mismatch_rejected(self):
        a = fseries(0, [1])
        b = series_from_coeffs(GP, 0, [1], prime=2)
        with pytest.raises(InvalidInputError):
            a + b

    def test_prime_mismatch_rejected(self):
        a = series_from_coeffs(G, 0, [1], prime=2)
        b = series_from_coeffs(G, 0, [1], prime=3)
        with pytest.raises(InvalidInputError):
            a * b

    @given(st.lists(rationals, min_size=3, max_size=6),
           st.lists(rationals, min_size=3, max_size=6))
    @settings(max_examples=60)
    def test_mul_commutes(self, xs, ys):
        a, b = fseries(0, xs), fseries(0, ys)
        assert a * b == b * a

    @given(st.lists(rationals, min_size=2, max_size=5),
           st.lists(rationals, min_size=2, max_size=5),
           st.lists(rationals, min_size=2, max_size=5))
    @settings(max_examples=60)
    def test_mul_distributes(self, xs, ys, zs):
        a, b, c = fseries(0, xs), fseries(0, ys), fseries(0, zs)
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.agrees_with(rhs)


class TestComparison:
    def test_agrees_with_checks_overlap_only(self):
        a = fseries(0, [1, 2, 3, 4])
        b = fseries(2, [3, 4, 999])  # agrees on [2, 4), differs beyond a
        assert a.agrees_with(b)

    def test_agrees_with_detects_mismatch(self):
        a = fseries(0, [1, 2, 3])
        b = fseries(0, [1, 2, 4])
        assert not a.agrees_with(b)

    def test_agrees_with_across_labels(self):
        a = series_from_coeffs(GP, 0, [1, 2], prime=2)
        b = series_from_coeffs(RP, 0, [1, 2], prime=2)
        assert a.agrees_with(b)

    def test_disjoint_windows_raise(self):
        a = fseries(0, [1, 2])
        b = fseries(5, [1])
        with pytest.raises(DisjointWindowsError):
            a.agrees_with(b)

    def test_cross_kind_comparison_rejected(self):
        a = fseries(0, [1])
        b = series_from_coeffs(GP, 0, [1], prime=2)
        with pytest.raises(InvalidInputError):
            a.agrees_with(b)

    def test_padic_agreement_at_joint_precision(self):
        a = series_from_coeffs(GP, 0, [PAdic.from_rational(3, 2, 4)], prime=2)
        b = series_from_coeffs(GP, 0, [PAdic.from_rational(19, 2, 10)], prime=2)
        assert a.agrees_with(b)  # 3 == 19 mod 2^4

    def test_structural_equality(self):
        a = fseries(0, [1, 2])
        assert a == fseries(0, [1, 2])
        assert a != fseries(0, [1, 2, 0])   # different window
        assert a != fseries(-0 + 1, [1, 2])


class TestDerive:
    def test_power_series_window_clamps_at_zero(self):
        s = fseries(0, [1, 1, 1])
        f = derive(s)
        assert isinstance(f, DifferentialForm)
        assert f.series.min_degree == 0 and f.series.trunc_order == 2
        assert f.series.coeffs == (1, 2)

    def test_laurent_window_extends_down(self):
        s = series_from_coeffs(E, -2, [1, 0, 3, 5], prime=2)
        f = derive(s)
        assert f.series.min_degree == -3 and f.series.trunc_order == 1
        assert f.series.coefficient(-3) == PAdic.from_rational(-2, 2, 20)

    def test_constant_has_zero_derivative(self):
        assert derive(one_series(F, 5)).series.is_zero


class TestAntiderive:
    def test_window_shifts_up(self):
        f = derive(fseries(0, [0, 1, 1]))      # [0, 2)
        s = antiderive(f, F)
        assert s.min_degree == 1 and s.trunc_order == 3

    def test_constant_slot_is_exact_zero(self):
        f = DifferentialForm(series_from_coeffs(E, -3, [4, 2, 0, 7],
                                                prime=2, abs_prec=8))
        s = antiderive(f, R)
        assert s.min_degree == -2 and s.trunc_order == 2
        assert s.coefficient(0).is_zero

    def test_precision_drop_on_division(self):
        # integrating u du at p = 2 costs one bit on the u^2 coefficient
        f = DifferentialForm(series_from_coeffs(GP, 0, [1, 1, 0],
                                                prime=2, abs_prec=12))
        s = antiderive(f, RP)
        assert s.coefficient(1).abs_prec == 12
        assert s.coefficient(2) == PAdic.from_rational(Fraction(1, 2), 2, 11)
        assert s.coefficient(2).abs_prec == 11

    def test_obstruction_carries_residue(self):
        f = DifferentialForm(series_from_coeffs(E, -2, [3, 5, 0, 0],
                                                prime=2, abs_prec=8))
        with pytest.raises(IntegralObstructionError) as info:
            antiderive(f, R)
        assert info.value.residue == PAdic.from_rational(5, 2, 8)

    def test_vanishing_residue_is_no_obstruction(self):
        f = DifferentialForm(series_from_coeffs(E, -2, [3, 0, 0, 0], prime=2))
        s = antiderive(f, R)
        assert s.coefficient(-1) == PAdic.from_rational(-3, 2, 20)

    def test_target_ring_is_checked(self):
        f = derive(fseries(0, [1, 1]))
        with pytest.raises(InvalidInputError):
            antiderive(f, RP)
        g = DifferentialForm(series_from_coeffs(GP, 0, [1], prime=2))
        with pytest.raises(InvalidInputError):
            antiderive(g, F)

    def test_integral_target_rejects_denominators(self):
        f = DifferentialForm(series_from_coeffs(GP, 0, [1, 1, 0],
                                                prime=2, abs_prec=12))
        with pytest.raises(IntegralityError) as exc:
            antiderive(f, GP)
        # The lowest refused degree is named; u^0 and u^1 stay integral.
        assert str(exc.value) == (
            "antiderivative leaves the integer ring: coefficient 2^-1*1 "
            "(mod 2^11) at degree 2 is not integral, required by ring gamma+")

    @given(formal_series(min_len=2, max_len=8))
    @settings(max_examples=80)
    def test_round_trip_formal(self, s):
        back = antiderive(derive(s), F)
        assert back.agrees_with(s.without_constant_term())

    @given(laurent_series(prime=3))
    @settings(max_examples=60)
    def test_round_trip_laurent(self, s):
        f = derive(s)
        assert residue(f).is_zero
        back = antiderive(f, R)
        assert back.agrees_with(s.without_constant_term())


class TestResidue:
    def test_reads_degree_minus_one(self):
        f = DifferentialForm(series_from_coeffs(E, -1, [9, 1], prime=5))
        assert residue(f) == PAdic.from_rational(9, 5, 20)

    def test_window_above_is_exact_zero(self):
        f = DifferentialForm(series_from_coeffs(E, 0, [1, 2], prime=5))
        assert residue(f).is_zero

    def test_power_series_forms_have_zero_residue(self):
        f = derive(fseries(0, [1, 2, 3]))
        assert residue(f) == 0

    def test_window_below_is_unknown(self):
        f = DifferentialForm(series_from_coeffs(E, -5, [1, 2], prime=5))
        with pytest.raises(InsufficientWindowError):
            residue(f)


class TestInverse:
    def test_geometric_series(self):
        s = fseries(0, [1, -1, 0, 0])
        assert inverse(s).coeffs == (1, 1, 1, 1)

    def test_inverse_times_self_is_one(self):
        s = fseries(0, [3, 1, 4, 1, 5])
        prod = s * inverse(s)
        assert prod.coefficient(0) == 1
        assert all(prod.coefficient(d) == 0 for d in range(1, 5))

    def test_laurent_inverse_flips_degree(self):
        # u * (1 + u): inverse starts at degree -1 with alternating signs
        s = series_from_coeffs(E, 1, [1, 1, 0, 0], prime=2, abs_prec=10)
        inv = inverse(s)
        assert inv.min_degree == -1 and inv.trunc_order == 3
        expect = [1, -1, 1, -1]
        assert all(inv.coefficient(-1 + i) == PAdic.from_rational(v, 2, 10)
                   for i, v in enumerate(expect))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NonUnitError):
            inverse(fseries(0, [0, 1]))

    def test_gamma_needs_unit_constant(self):
        s = series_from_coeffs(GP, 0, [2, 1], prime=2)
        with pytest.raises(NonUnitError):
            inverse(s)

    def test_laurent_pivot_must_be_integral_unit(self):
        # lowest known coefficient p*unit: the inverse has infinite tail below
        s = series_from_coeffs(E, -1, [2, 1, 1], prime=2)
        with pytest.raises(NonUnitError):
            inverse(s)

    def test_empty_window_rejected(self):
        with pytest.raises(InsufficientWindowError):
            inverse(zero_series(F, 0, 0))

    @given(st.lists(rationals, min_size=2, max_size=7), rationals)
    @settings(max_examples=60)
    def test_random_units_invert(self, tail, c0):
        from hypothesis import assume
        assume(c0 != 0)
        s = fseries(0, [c0] + tail)
        prod = s * inverse(s)
        assert prod.coefficient(0) == 1
        assert all(prod.coefficient(d) == 0
                   for d in range(1, prod.trunc_order))


class TestDlog:
    def test_dlog_of_variable_has_residue_one(self):
        s = series_from_coeffs(E, 1, [1, 0], prime=2)
        f = dlog(s)
        assert residue(f) == PAdic.one(2, 20)

    def test_residue_of_dlog_counts_unit_degree(self):
        # x = u^-2 * (1 + u): residue(dx/x) = -2
        s = series_from_coeffs(E, -2, [1, 1, 0, 0, 0], prime=3, abs_prec=10)
        assert residue(dlog(s)) == PAdic.from_rational(-2, 3, 10)

    def test_formal_dlog_product_rule(self):
        a = fseries(0, [1, 2, 3, 0, 0, 0])
        b = fseries(0, [5, 0, 1, 0, 0, 0])
        lhs = dlog(a * b)
        rhs = dlog(a) + dlog(b)
        assert lhs.agrees_with(rhs)


class TestDegreeOfUnit:
    def test_skips_vanishing_and_multiples_of_p(self):
        c = [PAdic.zero(5, 8), PAdic.from_rational(5, 5, 8),
             PAdic.from_rational(3, 5, 8)]
        s = TruncatedSeries(E, -1, tuple(c), 2, prime=5)
        assert degree_of_unit(s) == 1

    def test_unit_in_lowest_place(self):
        s = series_from_coeffs(E, -3, [2, 0, 0, 1], prime=5)
        assert degree_of_unit(s) == -3

    def test_negative_valuation_rejected(self):
        c = (PAdic.from_rational(Fraction(1, 5), 5, 8),)
        s = TruncatedSeries(E, 0, c, 1, prime=5)
        with pytest.raises(NotIntegralError):
            degree_of_unit(s)

    def test_everything_divisible_is_indeterminate(self):
        s = series_from_coeffs(E, 0, [5, 10, 0], prime=5)
        with pytest.raises(CannotDetermineDegreeError):
            degree_of_unit(s)

    def test_rational_rings_rejected(self):
        with pytest.raises(InvalidInputError):
            degree_of_unit(fseries(0, [1]))


class TestValuationProfile:
    def test_profile_lists_nonvanishing_degrees(self):
        s = series_from_coeffs(GP, 0, [1, 2, 0, 12], prime=2)
        assert valuation_profile(s) == [(0, 0), (1, 1), (3, 2)]

    def test_rational_rejected(self):
        with pytest.raises(InvalidInputError):
            valuation_profile(fseries(0, [1]))
