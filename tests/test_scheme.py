"""Two-variable windows, curvature, sections, and the line integral."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lineint.coeff import PAdic
from lineint.errors import (
    CalculusError,
    InsufficientWindowError,
    InvalidInputError,
    NonUnitError,
    NotFramedError,
)
from lineint.nabla import Signature, is_identity_series_matrix
from lineint.scheme import (
    BiForm,
    BiSeries,
    FramedFamily,
    biseries_from_map,
    curvature,
    line_integral,
    partial_u,
    partial_x,
    section_pullback,
    substitute_fiber,
    total_d,
    zero_biseries,
)
from lineint.series import (
    RingLabel,
    derive,
    formal_log,
    inverse,
    one_series,
    padic_log_dagger,
    series_from_coeffs,
    zero_series,
    valuation_profile,
)

F = RingLabel.FORMAL
GP = RingLabel.GAMMA_PLUS


def bmap(mapping, tu, tx):
    return biseries_from_map(F, mapping, tu, tx)


def geometric_family(ring, tu, tx, prime=None, abs_prec=20):
    """Signature (1,1) family whose only block is the form dx/(1+x)."""
    geo = biseries_from_map(ring, {(0, j): (-1) ** j for j in range(tx)},
                            tu, tx, prime=prime, abs_prec=abs_prec)
    z = zero_biseries(ring, tu, tx, prime=prime, abs_prec=abs_prec)
    zf = BiForm(z, z)
    return FramedFamily(Signature((1, 1)), ring, ((zf, BiForm(z, geo)),
                                                  (zf, zf)), prime=prime)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10)


class TestBiSeries:
    def test_laurent_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            zero_biseries(RingLabel.E, 2, 2, prime=2)

    def test_shape_must_match_windows(self):
        col = series_from_coeffs(F, 0, [1, 2])
        assert BiSeries(F, (col, col), 2).trunc_x == 2
        bad_columns = [
            (F, (col,), 3, None),                          # u-window 3
            (F, (col, col.clipped(min_degree=1)), 2, None),  # [1, 2)
            (GP, (series_from_coeffs(RingLabel.E_PLUS, 0, [1, 2],
                                     prime=3),), 2, 3),    # another ring
            (GP, (series_from_coeffs(GP, 0, [1, 2], prime=5),), 2, 3),
            (F, ((Fraction(1), Fraction(2)),), 2, None),   # not a series
        ]
        for ring, cols, trunc_u, prime in bad_columns:
            with pytest.raises(InvalidInputError, match="is not a series"):
                BiSeries(ring, cols, trunc_u, prime)

    def test_prime_rules(self):
        with pytest.raises(InvalidInputError):
            zero_biseries(GP, 2, 2)
        with pytest.raises(InvalidInputError, match="takes no prime"):
            BiSeries(F, (series_from_coeffs(F, 0, [0]),), 1, prime=2)

    def test_composite_prime_rejected_on_empty_window(self):
        # No column is there to carry the prime, so the header check
        # alone must refuse it, as it does for one-variable series.
        with pytest.raises(InvalidInputError, match="4 is not prime"):
            BiSeries(GP, (), 3, prime=4)

    def test_negative_windows_rejected(self):
        for tu, tx in ((-1, 2), (2, -1)):
            with pytest.raises(InvalidInputError, match="negative window"):
                zero_biseries(F, tu, tx)
            with pytest.raises(InvalidInputError, match="negative window"):
                biseries_from_map(GP, {}, tu, tx, prime=3)

    def test_integral_ring_rejects_denominators(self):
        with pytest.raises(Exception):
            biseries_from_map(GP, {(0, 0): Fraction(1, 2)}, 1, 1, prime=2)

    def test_sparse_map_fills_zeros(self):
        s = bmap({(1, 2): 7}, 3, 4)
        assert s.coefficient(1, 2) == 7
        assert s.coefficient(0, 0) == 0
        assert s.coefficient(2, 3) == 0

    def test_map_outside_window_rejected(self):
        with pytest.raises(InvalidInputError):
            bmap({(3, 0): 1}, 3, 4)

    def test_coefficient_window_semantics(self):
        s = bmap({(0, 0): 1}, 2, 2)
        assert s.coefficient(-1, 0) == 0
        with pytest.raises(InsufficientWindowError):
            s.coefficient(2, 0)
        with pytest.raises(InsufficientWindowError):
            s.coefficient(0, 5)

    def test_add_takes_min_windows(self):
        a = bmap({(0, 0): 1}, 4, 2)
        b = bmap({(1, 1): 2}, 2, 5)
        s = a + b
        assert s.trunc_u == 2 and s.trunc_x == 2
        assert s.coefficient(1, 1) == 2

    def test_mul_matches_polynomials(self):
        a = bmap({(0, 0): 1, (1, 0): 2, (0, 1): 3}, 3, 3)
        b = bmap({(0, 0): 4, (1, 1): 5}, 3, 3)
        p = a * b
        # (1 + 2u + 3x)(4 + 5ux) truncated to (3, 3)
        assert p.coefficient(0, 0) == 4
        assert p.coefficient(1, 0) == 8
        assert p.coefficient(0, 1) == 12
        assert p.coefficient(1, 1) == 5
        assert p.coefficient(2, 1) == 10
        assert p.coefficient(1, 2) == 15

    def test_scale_and_neg(self):
        s = bmap({(1, 1): 4}, 2, 2)
        assert s.scale(Fraction(1, 2)).coefficient(1, 1) == 2
        assert (-s).coefficient(1, 1) == -4

    def test_clipped(self):
        s = bmap({(2, 3): 1}, 4, 5)
        c = s.clipped(3, 3)
        assert c.trunc_u == 3 and c.trunc_x == 3

    def test_mixed_rings_rejected(self):
        a = bmap({}, 2, 2)
        b = zero_biseries(GP, 2, 2, prime=2)
        with pytest.raises(InvalidInputError):
            a + b


class TestPartials:
    def test_partial_u(self):
        s = bmap({(3, 1): 2}, 5, 3)
        d = partial_u(s)
        assert d.trunc_u == 4 and d.trunc_x == 3
        assert d.coefficient(2, 1) == 6

    def test_partial_x(self):
        s = bmap({(1, 3): 2}, 3, 5)
        d = partial_x(s)
        assert d.trunc_u == 3 and d.trunc_x == 4
        assert d.coefficient(1, 2) == 6

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=50)
    def test_mixed_partials_commute(self, rows):
        s = BiSeries(F, tuple(series_from_coeffs(F, 0, col)
                              for col in zip(*rows)), 4)
        assert partial_x(partial_u(s)) == partial_u(partial_x(s))


class TestTotalD:
    def test_product_of_variables(self):
        f = total_d(bmap({(1, 1): 1}, 3, 3))
        assert f.du_part == bmap({(0, 1): 1}, 2, 2)
        assert f.dx_part == bmap({(1, 0): 1}, 2, 2)

    def test_constant(self):
        assert total_d(bmap({(0, 0): 9}, 3, 3)).is_zero

    def test_mixed_powers(self):
        f = total_d(bmap({(0, 2): 1, (3, 0): 1}, 5, 5))
        assert f.du_part == bmap({(2, 0): 3}, 4, 4)
        assert f.dx_part == bmap({(0, 1): 2}, 4, 4)

    def test_biform_shares_windows(self):
        a = bmap({(0, 0): 1}, 4, 2)
        b = bmap({(0, 0): 2}, 2, 4)
        f = BiForm(a, b)
        assert f.du_part.trunc_u == 2 and f.du_part.trunc_x == 2
        assert f.dx_part.trunc_u == 2 and f.dx_part.trunc_x == 2


class TestFramedFamily:
    def test_lower_block_rejected(self):
        z = zero_biseries(F, 2, 2)
        zf = BiForm(z, z)
        bad = BiForm(bmap({(0, 0): 1}, 2, 2), z)
        with pytest.raises(NotFramedError):
            FramedFamily(Signature((1, 1)), F, ((zf, zf), (bad, zf)))

    def test_size_checked(self):
        z = zero_biseries(F, 2, 2)
        zf = BiForm(z, z)
        with pytest.raises(InvalidInputError):
            FramedFamily(Signature((1, 1, 1)), F, ((zf, zf), (zf, zf)))


class TestCurvature:
    def test_geometric_family_is_flat(self):
        fam = geometric_family(F, 5, 5)
        assert all(c.is_zero for row in curvature(fam) for c in row)

    def test_padic_geometric_family_is_flat(self):
        fam = geometric_family(GP, 6, 6, prime=2, abs_prec=10)
        assert all(c.is_zero for row in curvature(fam) for c in row)

    def test_x_du_is_not_flat(self):
        z = zero_biseries(F, 4, 4)
        zf = BiForm(z, z)
        c12 = BiForm(bmap({(0, 1): 1}, 4, 4), z)
        fam = FramedFamily(Signature((1, 1)), F, ((zf, c12), (zf, zf)))
        f12 = curvature(fam)[0][1]
        assert not f12.is_zero
        assert f12.coefficient(0, 0) == -1

    def test_zero_connection_is_flat(self):
        z = zero_biseries(F, 3, 3)
        zf = BiForm(z, z)
        fam = FramedFamily(Signature((1, 1)), F, ((zf, zf), (zf, zf)))
        assert all(c.is_zero for row in curvature(fam) for c in row)

    def test_commutator_term_counts(self):
        # C_u = E12 u-independent, C_x = E23: [C_u, C_x] lands in (1,3)
        z = zero_biseries(F, 3, 3)
        zf = BiForm(z, z)
        one = bmap({(0, 0): 1}, 3, 3)
        fam = FramedFamily(Signature((1, 1, 1)), F, (
            (zf, BiForm(one, z), zf),
            (zf, zf, BiForm(z, one)),
            (zf, zf, zf),
        ))
        f = curvature(fam)
        assert f[0][2].coefficient(0, 0) == 1
        assert f[0][1].is_zero and f[1][2].is_zero


class TestSubstituteFiber:
    def test_zero_section_reads_column(self):
        b = bmap({(0, 0): 3, (2, 0): 5, (1, 1): 7}, 4, 3)
        w = series_from_coeffs(F, 0, [0, 0, 0, 0])
        s = substitute_fiber(b, w)
        assert s.min_degree == 0 and s.trunc_order == 4
        assert s.coefficient(0) == 3 and s.coefficient(2) == 5
        assert s.coefficient(1) == 0

    def test_order_one_section(self):
        # b = 1/(1-x) pattern, w = t: sum becomes 1 + t + t^2 + ...
        tu = tx = 5
        b = bmap({(0, j): 1 for j in range(tx)}, tu, tx)
        w = series_from_coeffs(F, 0, [0, 1, 0, 0, 0])
        s = substitute_fiber(b, w)
        assert all(s.coefficient(k) == 1 for k in range(5))

    def test_narrow_x_window_rejected(self):
        b = bmap({(0, 0): 1}, 6, 2)
        w = series_from_coeffs(F, 0, [0, 1, 0, 0, 0, 0])
        with pytest.raises(InsufficientWindowError):
            substitute_fiber(b, w)

    def test_steep_section_compensates(self):
        # same x-window, but ord(w) = 3 covers the u-window
        b = bmap({(0, 0): 1, (0, 1): 1}, 6, 2)
        w = series_from_coeffs(F, 0, [0, 0, 0, 1, 0, 0])
        s = substitute_fiber(b, w)
        assert s.coefficient(0) == 1 and s.coefficient(3) == 1

    def test_unit_section_uses_stored_support(self):
        # polynomial in x evaluated at a unit series
        b = bmap({(0, 0): 1, (0, 1): 2, (1, 1): 1}, 3, 2)
        w = series_from_coeffs(F, 0, [5, 1, 0])
        s = substitute_fiber(b, w)
        # 1 + 2w + uw = 11 + 2t + 5u + ut
        assert s.coefficient(0) == 11
        assert s.coefficient(1) == 2 + 5 + 0  # degree-1 of 2w + uw
        assert s.trunc_order == 3

    def test_ring_mismatch_rejected(self):
        b = bmap({}, 2, 2)
        w = series_from_coeffs(GP, 0, [0, 1], prime=2)
        with pytest.raises(InvalidInputError):
            substitute_fiber(b, w)

    def test_narrow_section_window_shrinks_output(self):
        b = bmap({(0, j): 1 for j in range(6)}, 6, 6)
        w = series_from_coeffs(F, 0, [0, 1])  # only known to O(t^2)
        s = substitute_fiber(b, w)
        assert s.trunc_order == 2


class TestSectionPullback:
    def test_golden_formal_section(self):
        fam = geometric_family(F, 5, 5)
        v = series_from_coeffs(F, 0, [1, -1, 0, 0, 0])
        mod = section_pullback(fam, v)
        c12 = mod.connection.entries[0][1].series
        assert c12.min_degree == 0 and c12.trunc_order == 4
        assert c12.coeffs == (-1, -1, -1, -1)

    def test_unit_shift_section(self):
        fam = geometric_family(GP, 6, 6, prime=2, abs_prec=10)
        v = series_from_coeffs(GP, 0, [1, 1] + [0] * 4, prime=2, abs_prec=10)
        mod = section_pullback(fam, v)
        c12 = mod.connection.entries[0][1].series
        want = [1, -1, 1, -1, 1]
        assert all(c12.coefficient(d) == PAdic.from_rational(w, 2, 10)
                   for d, w in enumerate(want))

    def test_constant_one_keeps_du_parts(self):
        z = zero_biseries(F, 4, 4)
        zf = BiForm(z, z)
        c12 = BiForm(bmap({(1, 0): 5, (1, 1): 9}, 4, 4),
                     bmap({(0, 0): 3}, 4, 4))
        fam = FramedFamily(Signature((1, 1)), F, ((zf, c12), (zf, zf)))
        v = series_from_coeffs(F, 0, [1, 0, 0, 0])
        mod = section_pullback(fam, v)
        got = mod.connection.entries[0][1].series
        # dv = 0 kills the dx part; x := 0 keeps the j = 0 column; the dv
        # factor still caps the window one below the section's
        assert got.trunc_order == 3
        assert got.coefficient(1) == 5
        assert got.coefficient(0) == 0 and got.coefficient(2) == 0

    def test_non_unit_sections_rejected(self):
        fam = geometric_family(F, 4, 4)
        with pytest.raises(NonUnitError):
            section_pullback(fam, series_from_coeffs(F, 0, [0, 1, 0, 0]))
        famp = geometric_family(GP, 4, 4, prime=2, abs_prec=8)
        with pytest.raises(NonUnitError):
            section_pullback(
                famp, series_from_coeffs(GP, 0, [2, 1, 0, 0], prime=2))

    def test_ring_mismatch_rejected(self):
        fam = geometric_family(F, 4, 4)
        v = series_from_coeffs(GP, 0, [1, 1, 0, 0], prime=2)
        with pytest.raises(InvalidInputError):
            section_pullback(fam, v)


UNIT_RINGS = [(F, None), (GP, 3), (RingLabel.E_PLUS, 3)]

UNIT_OPERATIONS = {
    "inverse": inverse,
    "formal_log": formal_log,
    "section_pullback": lambda v: section_pullback(
        geometric_family(v.ring, 4, 4, prime=v.prime), v),
}

IW, NU, INV = InsufficientWindowError, NonUnitError, InvalidInputError

# The coefficients of each test window on [0, 4); empty is [0, 0).
UNIT_WINDOWS = {"empty": [], "zero-constant": [0, 1, 0, 0],
                "constant-3": [3, 1, 0, 0], "zero": [0, 0, 0, 0],
                "unit": [1, 1, 0, 0]}

# operation, window, then the error over formal, gamma+ and e+ at p = 3
# (None: accepted)
UNIT_TABLE = [
    ("inverse", "empty", (IW, IW, IW)),
    ("inverse", "zero-constant", (NU, NU, NU)),
    ("inverse", "constant-3", (None, NU, None)),
    ("inverse", "zero", (IW, NU, NU)),
    ("inverse", "unit", (None, None, None)),
    ("formal_log", "empty", (IW, INV, INV)),
    ("formal_log", "zero-constant", (NU, INV, INV)),
    ("formal_log", "constant-3", (None, INV, INV)),
    ("formal_log", "zero", (NU, INV, INV)),
    ("formal_log", "unit", (None, INV, INV)),
    ("section_pullback", "empty", (IW, IW, IW)),
    ("section_pullback", "zero-constant", (NU, NU, NU)),
    ("section_pullback", "constant-3", (None, NU, None)),
    ("section_pullback", "zero", (NU, NU, NU)),
    ("section_pullback", "unit", (None, None, None)),
]


class TestUnitCheck:
    """The power-series unit check behind inverse, formal_log and
    section_pullback: a constant divisible by p is a unit of e+ but not of
    gamma+, and inverse reads 0 + O(t^4) as a window with nothing in it."""

    @pytest.mark.parametrize("operation,window,errors", UNIT_TABLE,
                             ids=[f"{o}-{w}" for o, w, _ in UNIT_TABLE])
    @pytest.mark.parametrize("ring,prime", UNIT_RINGS,
                             ids=[r.value for r, _ in UNIT_RINGS])
    def test_unit_check(self, ring, prime, operation, window, errors):
        v = series_from_coeffs(ring, 0, UNIT_WINDOWS[window], prime=prime)
        error = errors[UNIT_RINGS.index((ring, prime))]
        if error is None:
            UNIT_OPERATIONS[operation](v)
            return
        with pytest.raises(CalculusError) as info:
            UNIT_OPERATIONS[operation](v)
        assert type(info.value) is error


class TestLineIntegral:
    def test_formal_log_chain(self):
        fam = geometric_family(F, 5, 5)
        v = series_from_coeffs(F, 0, [1, -1, 0, 0, 0])
        rep = line_integral(fam, v)
        entry = rep.matrix.entries[0][1]
        assert entry.min_degree == 1 and entry.trunc_order == 5
        assert [entry.coefficient(k) for k in range(1, 5)] == [
            Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4)
        ]
        assert entry.agrees_with(formal_log(v))

    def test_padic_log_chain(self):
        fam = geometric_family(GP, 9, 9, prime=2, abs_prec=12)
        v = series_from_coeffs(GP, 0, [1, -1] + [0] * 7, prime=2, abs_prec=12)
        rep = line_integral(fam, v)
        entry = rep.matrix.entries[0][1]
        assert entry.agrees_with(padic_log_dagger(v))
        profile = dict(valuation_profile(entry))
        assert profile[2] == -1 and profile[4] == -2 and profile[8] == -3

    def test_constant_section_gives_identity(self):
        fam = geometric_family(F, 5, 5)
        rep = line_integral(fam, series_from_coeffs(F, 0, [7, 0, 0, 0, 0]))
        assert is_identity_series_matrix(rep.matrix.entries)

    def test_homomorphism_in_the_section(self):
        fam = geometric_family(GP, 9, 9, prime=3, abs_prec=10)
        a = series_from_coeffs(GP, 0, [1, 3, 0, 1] + [0] * 5,
                               prime=3, abs_prec=10)
        b = series_from_coeffs(GP, 0, [1, 0, -1] + [0] * 6,
                               prime=3, abs_prec=10)
        prod = (a * b).clipped(trunc_order=9)
        lhs = line_integral(fam, prod).matrix.entries[0][1]
        rhs = (line_integral(fam, a).matrix.entries[0][1]
               + line_integral(fam, b).matrix.entries[0][1])
        assert lhs.agrees_with(rhs)


def shown(s):
    """A series' window and the text of every coefficient, precision
    included."""
    return s.min_degree, s.trunc_order, [str(c) for c in s.coeffs]


class TestFiniteZeroPrecision:
    """A power of the section that vanishes only modulo p^N still bounds
    the result's precision, also when the section itself is such a zero."""

    def test_vanishing_power_keeps_its_precision(self):
        # b = 1 + x^3 at x := w, w = 0 (mod 3^5) + u: w^3 sits above the
        # u-window but is known only mod 3^15, 3^10, 3^5 below it
        b = biseries_from_map(GP, {(0, 0): 1, (0, 3): 1}, 3, 4, prime=3)
        w = series_from_coeffs(GP, 0, [PAdic.zero(3, 5), 1, 0], prime=3)
        assert shown(substitute_fiber(b, w)) == (
            0, 3, ["3^0*1 (mod 3^15)", "0 (mod 3^10)", "0 (mod 3^5)"])

    def test_zero_section_keeps_its_precision(self):
        b = biseries_from_map(GP, {(0, 0): 1, (0, 1): 1}, 3, 2, prime=3)
        w = zero_series(GP, 0, 3, 3, 5)
        assert shown(substitute_fiber(b, w)) == (
            0, 3, ["3^0*1 (mod 3^5)", "0 (mod 3^5)", "0 (mod 3^5)"])


def mixed_window(tu, tx, seed):
    """A gamma+ window over p = 3 whose coefficients vary in value,
    valuation and abs_prec, with zeros at several precisions."""
    cells = {}
    for i in range(tu):
        for j in range(tx):
            k = seed + 7 * i + 3 * j
            n = 6 + k % 9
            cells[i, j] = (PAdic.zero(3, n) if k % 4 == 0
                           else PAdic.from_rational(k % 11 + 1, 3, n))
    return biseries_from_map(GP, cells, tu, tx, prime=3)


def mixed_family():
    """A (1, 1, 1) family whose entries, zero or not, have different
    windows."""
    def form(tu, tx, seed):
        return BiForm(mixed_window(tu, tx, seed),
                      mixed_window(tu, tx, seed + 5))

    def zero(tu, tx):
        z = zero_biseries(GP, tu, tx, prime=3, abs_prec=9)
        return BiForm(z, z)

    return FramedFamily(Signature((1, 1, 1)), GP, (
        (zero(4, 5), form(3, 3, 2), form(5, 6, 3)),
        (zero(3, 5), zero(2, 4), form(7, 7, 5)),
        (zero(4, 4), zero(2, 2), zero(7, 7)),
    ), prime=3)


def section(*coeffs):
    return series_from_coeffs(GP, 0, coeffs, prime=3, abs_prec=12)


class TestSharedPowers:
    """section_pullback computes the powers of w = v - 1 once for every
    entry; that must give what each substitute_fiber finds on its own."""

    @pytest.mark.parametrize("v", [
        section(1, 1, 3, 0, 2, 5, 1, 4),              # w of order 1
        section(1, 3, 1, 0, 2, 5, 1, 4),              # 3 | w's lead
        section(1, 0, 1, 2, 0, 1, 3, 1),              # w of order 2
        section(1, PAdic.zero(3, 4), 1, 2, 0, 1, 3),  # zero mod 3^4 at u
        section(1, PAdic.zero(3, 5), PAdic.zero(3, 7), 0, 0, 0, 0),  # w = 0
        section(2, 1, 0, 1, 4, 1, 1, 2),              # w a unit
    ])
    def test_pullback_matches_unshared_substitution(self, v):
        family = mixed_family()
        w = v - one_series(GP, v.trunc_order, 3, v._working_prec())
        dv = derive(v).series
        got = section_pullback(family, v).connection.entries
        for row, got_row in zip(family.entries, got):
            for f, g in zip(row, got_row):
                want = (substitute_fiber(f.du_part, w)
                        + substitute_fiber(f.dx_part, w) * dv)
                assert shown(g.series) == shown(want)
