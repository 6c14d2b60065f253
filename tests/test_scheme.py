"""Two-variable windows, curvature, sections, and the line integral."""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, repeat
import json
import operator
import pathlib
import random
import sys

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
from lineint import scheme, series
from lineint.nabla import (
    ConnectionMatrix,
    FramedNablaModule,
    InvariantRepresentative,
    Signature,
    UnipotentMatrix,
    invariant,
    is_identity_series_matrix,
    trivialize,
)
from lineint.parsing import load_connection, load_family, parse_series
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
    DifferentialForm,
    RingLabel,
    derive,
    formal_log,
    inverse,
    monomial,
    one_series,
    padic_log_dagger,
    series_from_coeffs,
    zero_series,
    valuation_profile,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# bench/workloads.py is loaded by path, as in tests/test_cli.py.
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

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
            (F, (col,), 3, None,                           # u-window 3
             "column 0 is not on [0, 3)"),
            (F, (col, col.clipped(min_degree=1)), 2, None,  # [1, 2)
             "column 1 is not on [0, 2)"),
            (GP, (series_from_coeffs(RingLabel.E_PLUS, 0, [1, 2],
                                     prime=3),), 2, 3,     # another ring
             "expected a TruncatedSeries over gamma+ (p=3), got one over "
             "e+ (p=3)"),
            (GP, (series_from_coeffs(GP, 0, [1, 2], prime=5),), 2, 3,
             "expected a TruncatedSeries over gamma+ (p=3), got one over "
             "gamma+ (p=5)"),
            (F, ((Fraction(1), Fraction(2)),), 2, None,    # not a series
             "expected a TruncatedSeries, got (Fraction(1, 1), "),
        ]
        for ring, cols, trunc_u, prime, message in bad_columns:
            with pytest.raises(InvalidInputError) as info:
                BiSeries(ring, cols, trunc_u, prime)
            assert message in str(info.value)

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
        # w = 5 + t lies outside the formal disk: every unknown x^j with
        # j >= 2 reaches every u-degree, so even the stored support of
        # 1 + 2x + ux does not decide the value.
        b = bmap({(0, 0): 1, (0, 1): 2, (1, 1): 1}, 3, 2)
        w = series_from_coeffs(F, 0, [5, 1, 0])
        with pytest.raises(InsufficientWindowError):
            substitute_fiber(b, w)

    def test_ring_mismatch_rejected(self):
        b = bmap({}, 2, 2)
        w = series_from_coeffs(GP, 0, [0, 1], prime=2)
        with pytest.raises(InvalidInputError):
            substitute_fiber(b, w)

    @pytest.mark.parametrize("mapping,reads", [
        ({}, 1),                       # a zero window: one shared column
        ({(0, 0): 1, (2, 3): 1}, 3),   # columns 0 and 3, one zero for 5
    ])
    def test_reads_each_distinct_column_once(self, monkeypatch, mapping,
                                             reads):
        b = biseries_from_map(GP, mapping, 7, 7, prime=3)
        w = section(0, 1, 2, 0, 1, 1, 2)
        powers = scheme._fiber_powers(w, 6, 7)
        calls = []

        def counted(s, run=scheme._run):
            calls.append(s)
            return run(s)

        monkeypatch.setattr(scheme, "_run", counted)
        substitute_fiber(b, w, powers=powers)
        assert len(calls) == reads

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
    ("inverse", "zero", (NU, NU, NU)),
    ("inverse", "unit", (None, None, None)),
    ("formal_log", "empty", (IW, INV, INV)),
    ("formal_log", "zero-constant", (NU, INV, INV)),
    ("formal_log", "constant-3", (None, INV, INV)),
    ("formal_log", "zero", (NU, INV, INV)),
    ("formal_log", "unit", (None, INV, INV)),
    ("section_pullback", "empty", (IW, IW, IW)),
    ("section_pullback", "zero-constant", (NU, NU, NU)),
    ("section_pullback", "constant-3", (IW, NU, IW)),
    ("section_pullback", "zero", (NU, NU, NU)),
    ("section_pullback", "unit", (None, None, None)),
]


class TestUnitCheck:
    """The power-series unit check behind inverse, formal_log and
    section_pullback: a constant divisible by p is a unit of e+ but not of
    gamma+, and 0 + O(t^4) is no unit over any ring.  A unit section with
    constant term 3 passes the check, and the pullback then refuses it:
    w = v - 1 has order 0."""

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
        rep = line_integral(fam, series_from_coeffs(F, 0, [1, 0, 0, 0, 0]))
        assert is_identity_series_matrix(rep.matrix.entries)
        # the constant section 7 sends x to 6, outside the formal disk
        with pytest.raises(InsufficientWindowError):
            line_integral(fam, series_from_coeffs(F, 0, [7, 0, 0, 0, 0]))

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


def composed(s, w, abs_prec):
    """s(w) for a power series s and w(0) = 0, by Horner's rule over series
    products; the constants' zeros are read at abs_prec."""
    acc = zero_series(s.ring, 0, w.trunc_order, s.prime, abs_prec)
    for c in reversed(s.coeffs):
        acc = acc * w + monomial(s.ring, c, 0, w.trunc_order, s.prime,
                                 abs_prec)
    for _ in range(s.min_degree):
        acc = acc * w
    return acc


# Sections v = 1 + w by the coefficients of w from degree 0.
PULLBACK_SECTIONS = {
    "formal u^2 + u^3": (F, None, (0, 0, 1, 1)),
    "formal 2u - u^2": (F, None, (0, 2, -1)),
    "gamma+ u^2 at 2": (GP, 2, (0, 0, 1)),
    "gamma+ u^3 at 3": (GP, 3, (0, 0, 0, 1)),
    "gamma+ u + 3u^2 at 3": (GP, 3, (0, 1, 3)),
}


class TestPullbackLaw:
    """The line integral of the family 0 du + C(x) dx along v = 1 + w is the
    invariant of C composed with w, entry by entry: the normalized invariant
    is functorial under x := w when w(0) = 0.  test_padic_log_chain is the
    case C = dx/(1 + x).  The control, the uncomposed invariant, fails."""

    @pytest.mark.parametrize("ring,p,w", PULLBACK_SECTIONS.values(),
                             ids=list(PULLBACK_SECTIONS))
    @given(data=st.data())
    @settings(max_examples=10, derandomize=True, deadline=None)
    def test_line_integral_is_the_composed_invariant(self, ring, p, w, data):
        t, n = 6, 12
        sig = Signature(data.draw(st.sampled_from([(1, 1, 1), (1, 2),
                                                    (2, 1)])))
        coeffs = st.lists(st.integers(-9, 9), min_size=t, max_size=t)
        cells = [[data.draw(coeffs) if sig.blocks[a] < sig.blocks[b]
                  else [0] * t for b in range(3)] for a in range(3)]
        # A unit constant term in C[0][2] makes the uncomposed control fail.
        cells[0][2][0] = data.draw(st.integers(1, 9).filter(
            lambda k: p is None or k % p))
        z = zero_biseries(ring, t, t, p, n)
        family = FramedFamily(sig, ring, tuple(tuple(BiForm(
            z, biseries_from_map(ring, dict(zip(((0, j) for j in range(t)),
                                                cs)), t, t, p, n))
            for cs in row) for row in cells), p)
        module = FramedNablaModule(sig, ConnectionMatrix(ring, tuple(tuple(
            DifferentialForm(series_from_coeffs(ring, 0, cs, p, n))
            for cs in row) for row in cells), p))
        tail = [0] * (t - len(w))
        v = series_from_coeffs(ring, 0, [1, *w[1:], *tail], p, n)
        got = line_integral(family, v).matrix.entries
        inv = invariant(module, t + 1).matrix.entries
        ws = series_from_coeffs(inv[0][1].ring, 0, [*w, *tail], p, n)
        for a in range(3):
            for b in range(3):
                assert got[a][b].agrees_with(composed(inv[a][b], ws, 2 * n)), \
                    (a, b, sig, cells)
        assert not got[0][2].agrees_with(inv[0][2]), (sig, cells)


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


def outcome(compute):
    """compute(), or InsufficientWindowError if it refuses that way."""
    try:
        return compute()
    except InsufficientWindowError:
        return InsufficientWindowError


class TestSharedPowers:
    """section_pullback computes the powers of w = v - 1 once for every
    entry; that must give what each substitute_fiber finds on its own, and
    refuse where it refuses."""

    @pytest.mark.parametrize("v", [
        section(1, 1, 3, 0, 2, 5, 1, 4),              # w of order 1
        section(1, 3, 1, 0, 2, 5, 1, 4),              # 3 | w's lead
        section(1, 0, 1, 2, 0, 1, 3, 1),              # w of order 2
        section(1, PAdic.zero(3, 4), 1, 2, 0, 1, 3),  # zero mod 3^4 at u
        section(1, PAdic.zero(3, 5), PAdic.zero(3, 7), 0, 0, 0, 0),  # w = 0
        section(2, 1, 0, 1, 4, 1, 1, 2),              # w a unit: refused
    ])
    def test_pullback_matches_unshared_substitution(self, v):
        family = mixed_family()
        w = v - one_series(GP, v.trunc_order, 3, v._working_prec())
        dv = derive(v).series

        def shared():
            return [[shown(g.series) for g in row] for row in
                    section_pullback(family, v).connection.entries]

        def unshared():
            return [[shown(substitute_fiber(f.du_part, w)
                           + substitute_fiber(f.dx_part, w) * dv)
                     for f in row] for row in family.entries]

        assert outcome(shared) == outcome(unshared)

    @pytest.mark.parametrize("ring", [F, GP, RingLabel.E_PLUS,
                                      RingLabel.ROBBA_PLUS],
                             ids=lambda r: r.value)
    @given(data=st.data())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_drawn_pullback_matches_window_powers(self, ring, data):
        family, v = data.draw(pullbacks(ring))
        ring, p = family.ring, family.prime
        w = v - one_series(ring, v.trunc_order, p, v._working_prec())
        dv = derive(v).series

        def shared():
            return [[shown(g.series) for g in row] for row in
                    section_pullback(family, v).connection.entries]

        def unshared():
            return [[shown(window_substitution(f.du_part, w)
                           + window_substitution(f.dx_part, w) * dv)
                     for f in row] for row in family.entries]

        assert refusal_or(shared) == refusal_or(unshared), (family, v)


def window_substitution(b, w):
    """substitute_fiber with the powers of w built as windows, each next
    one by window ``*`` and clipped to the u-window, and summed by one sum
    of products: the construction the shared power runs replaced, kept as
    their oracle."""
    tu, tx = b.trunc_u, b.trunc_x
    if tx == 0:
        return zero_series(b.ring, 0, 0, b.prime, b._working_prec())
    e = w.order()
    if e is not None and tx * e < tu:
        raise InsufficientWindowError("the section does not fill the window")
    powers = list(accumulate(repeat(w.clipped(trunc_order=tu), tx - 1),
                             lambda q, _: (q * w).clipped(trunc_order=tu)))
    total = series._sum_of_products(list(zip(b.cols[1:], powers)), b.cols[0])
    return total.clipped(trunc_order=min(tu, w.trunc_order))


def refusal_or(compute):
    """compute(), or the class of the refusal it raised."""
    try:
        return compute()
    except CalculusError as e:
        return type(e)


@st.composite
def pullbacks(draw, ring):
    """A (1, 1, 1) family over ring (at p = 2, 3 or 5 if p-adic) whose
    parts, drawn from three windows and one shared zero, have their own
    windows, and a section v whose w = v - 1 is of order 1 or 2, has w(0)
    a zero known below the window's precision, or is a unit."""
    p = None if ring is F else draw(st.sampled_from((2, 3, 5)))
    prec = draw(st.integers(3, 8))

    def value():
        if ring is not F and draw(st.integers(0, 3)) == 0:
            return PAdic.zero(p, draw(st.integers(1, prec)))
        den = 1 if ring is GP else (p or 2) ** draw(st.integers(0, 2))
        return Fraction(draw(st.integers(-40, 40)), den)

    def window():  # order 1 fills its u-window, order 2 may not
        tx = draw(st.integers(1, 4))
        tu = draw(st.integers(1, tx))
        return biseries_from_map(ring, {
            (i, j): value() for i in range(tu) for j in range(tx)
            if draw(st.booleans())}, tu, tx, p, prec)

    tx = draw(st.integers(1, 4))
    zero = zero_biseries(ring, draw(st.integers(1, tx + 1)), tx, p, prec)
    pool = [window(), window(), window(), zero]
    zf = BiForm(zero, zero)
    entries = [[zf] * 3 for _ in range(3)]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        entries[a][b] = BiForm(draw(st.sampled_from(pool)),
                               draw(st.sampled_from(pool)))
    family = FramedFamily(Signature((1, 1, 1)), ring, entries, p)
    order = draw(st.sampled_from((1, 2, 1, 2, 0)))
    v0 = 1 + (p or 1) if order == 0 else 1  # w(0) = p: v(0) stays a unit
    if ring is not F and order and draw(st.booleans()):
        v0 = PAdic.from_rational(1, p, draw(st.integers(1, prec - 1)))
    coeffs = [v0] + [0] * max(order - 1, 0) + [
        draw(st.integers(1, 40))] + [value() for _ in range(4)]
    v = series_from_coeffs(ring, 0, coeffs[:draw(st.integers(2, 6))], p,
                           prec)
    return family, v


def part_ids(family):
    return {id(p) for row in family.entries for f in row
            for p in (f.du_part, f.dx_part)}


def dense_family_document():
    """A (1, 1, 1, 1) gamma+ family whose six upper entries have nonzero
    du and dx parts, pairwise distinct except that two texts recur: the
    du of (0, 1) as the du of (2, 3), and the dx of (0, 2) as the du of
    (1, 3)."""
    def text(k):
        return f"{k} + {k + 1}*u*x + {2 * k}*x^3 + u^4 + O(u^5, x^5)"

    upper = {(0, 1): (text(1), text(2)), (0, 2): (text(3), text(4)),
             (0, 3): (text(5), text(6)), (1, 2): (text(7), text(8)),
             (1, 3): (text(4), text(9)), (2, 3): (text(1), text(10))}
    return {
        "signature": [1, 1, 1, 1], "ring": "gamma+", "p": 3,
        "abs_prec": 20, "trunc": 5, "trunc_x": 5,
        "connection": [[{"du": upper[a, b][0], "dx": upper[a, b][1]}
                        if (a, b) in upper else "0" for b in range(4)]
                       for a in range(4)],
    }


class TestSharing:
    """Windows shared when a family is read stay shared through BiForm, and
    section_pullback does the work of each distinct part once."""

    def test_clipped_that_cuts_nothing_is_the_window(self):
        b = bmap({(0, 1): 2, (2, 0): 3}, 4, 3)
        assert b.clipped() is b
        assert b.clipped(4, 3) is b
        assert b.clipped(3, 3) == bmap({(0, 1): 2, (2, 0): 3}, 3, 3)

    def test_biform_keeps_parts_on_one_window(self):
        du, dx = bmap({(1, 0): 5}, 4, 4), bmap({(0, 2): 1}, 4, 4)
        f = BiForm(du, dx)
        assert f.du_part is du and f.dx_part is dx

    def test_load_family_reads_each_text_once(self):
        family, _, _, _ = load_family(workloads.chain_family(3, 7))
        assert len(part_ids(family)) == 2

    def test_memoized_pullback_matches_each_entry(self, monkeypatch):
        family, _, _, _ = load_family(dense_family_document())
        assert len(part_ids(family)) == 11      # 10 distinct texts and "0"
        v = series_from_coeffs(GP, 0, [1, 1, 2, 0, 7], prime=3, abs_prec=20)
        w = v - one_series(GP, v.trunc_order, 3, v._working_prec())
        dv = derive(v).series
        want = [[DifferentialForm(substitute_fiber(f.du_part, w)
                                  + substitute_fiber(f.dx_part, w) * dv)
                 for f in row] for row in family.entries]
        calls = Counter()

        def counted(b, w, **kwargs):
            calls[id(b)] += 1
            return substitute_fiber(b, w, **kwargs)

        monkeypatch.setattr(scheme, "substitute_fiber", counted)
        got = section_pullback(family, v).connection.entries
        assert calls == Counter(part_ids(family))
        for got_row, want_row in zip(got, want):
            for g, r in zip(got_row, want_row):
                assert g == r and shown(g.series) == shown(r.series)


def exact_substitution(cols, w, trunc_u):
    """sum cols[j] * w^j below u^trunc_u over the integers; cols and w are
    integer coefficient lists from degree 0."""
    def times(a, b):
        return [sum(a[k] * b[i - k] for k in range(i + 1)
                    if k < len(a) and i - k < len(b)) for i in range(trunc_u)]

    acc, power = [0] * trunc_u, [1]
    for col in cols:
        acc = list(map(operator.add, acc, times(col, power)))
        power = times(power, w)
    return acc


def claims_hold(claimed, exact) -> bool:
    """Every claimed coefficient agrees with exact modulo its abs_prec."""
    return all(PAdic.from_rational(x, 3, c.abs_prec) == c
               for x, c in zip(exact, claimed.coeffs))


def perturbed(c, rng):
    """An integer that c, a gamma+ coefficient, cannot tell apart from
    itself: its value plus a random multiple of 3^abs_prec."""
    return int(c.to_fraction()) + 3 ** c.abs_prec * rng.randint(-40, 40)


def random_coeff(rng, abs_prec):
    """An integral coefficient at abs_prec: zero, a unit or a multiple
    of 3."""
    value = rng.choice([0, rng.randrange(1, 3 ** abs_prec),
                        3 ** rng.randint(1, abs_prec) * rng.randint(1, 8)])
    return PAdic.from_rational(value, 3, abs_prec)


class TestSubstitutionSoundness:
    """What substitute_fiber claims holds for every completion of its
    inputs: unknown x-columns beyond trunc_x, and each known coefficient
    of the window and of w moved within its precision.  The domain is the
    sections v = 1 + w with v(0) = 1 at an abs_prec at least the window's
    largest, here with a stored nonzero term.  Two gaps are open: a
    finite-zero w known to less, and a zero w on a window shorter than the
    u-window with one stored x-column."""

    @pytest.mark.parametrize("seed", range(40))
    def test_claims_survive_perturbation(self, seed):
        rng = random.Random(seed)
        tu, e = rng.randint(1, 6), rng.randint(1, 3)
        tx = max(-(-tu // e) + rng.randint(-1, 2), 1)
        cells = {(i, j): random_coeff(rng, rng.randint(3, 10))
                 for i in range(tu) for j in range(tx)}
        b = biseries_from_map(GP, cells, tu, tx, prime=3)
        prec = max(c.abs_prec for c in b._flat_coeffs()) + rng.randint(0, 3)
        lead = PAdic.from_rational(rng.choice([1, 2, 4, 5]), 3, prec)
        coeffs = ([PAdic.zero(3, prec)] * e + [lead]
                  + [random_coeff(rng, prec) for _ in range(tu)])
        stored = rng.randint(e + 1, max(e, tu) + 1)
        w = series_from_coeffs(GP, 0, coeffs[:stored], prime=3)
        if tx * e < tu:
            with pytest.raises(InsufficientWindowError):
                substitute_fiber(b, w)
            return
        claimed = substitute_fiber(b, w)
        assert claimed.trunc_order == min(tu, w.trunc_order)
        for _ in range(5):
            cols = [[perturbed(c, rng) for c in col.coeffs] for col in b.cols]
            cols += [[rng.randrange(3 ** 30) for _ in range(tu)]
                     for _ in range(rng.randint(1, 3))]
            w_alt = ([perturbed(c, rng) for c in w.coeffs]
                     + [rng.randrange(3 ** 30) for _ in range(tu)])
            assert claims_hold(claimed, exact_substitution(cols, w_alt, tu))

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 'Honest precision end to end': w(0) is zero only mod "
        "3^5, below the window's 3^20, and the unknown x^2 column adds "
        "2*c*w(0)*u; the claim needs a tail bound on the unknown columns"))
    def test_finite_zero_below_the_window_precision(self):
        b = biseries_from_map(GP, {(0, 0): 1}, 2, 2, prime=3)
        w = series_from_coeffs(GP, 0, [PAdic.zero(3, 5), 1], prime=3)
        claimed = substitute_fiber(b, w)
        # the completion 1 + x^2 at w = 3^5 + u has u^1 coefficient 2*3^5
        assert claims_hold(claimed, exact_substitution(
            [[1, 0], [0, 0], [1, 0]], [3 ** 5, 1], 2))

    def test_zero_section_shorter_than_the_window(self):
        # w is known on [0, 1) only; with one stored x-column no product
        # clips the sum, so the result must still end at w's window.
        b = biseries_from_map(GP, {(0, 0): 1}, 3, 1, prime=3)
        w = zero_series(GP, 0, 1, 3, 20)
        claimed = substitute_fiber(b, w)
        # the completion 1 + x at w = u has u^1 coefficient 1
        assert claims_hold(claimed, exact_substitution(
            [[1, 0, 0], [1, 0, 0]], [0, 1], 3))


def recheck(sig, conn):
    """The connection rebuilt through the checked constructors, framed."""
    return FramedNablaModule(sig, ConnectionMatrix(conn.ring, conn.entries,
                                                   conn.prime))


def recheck_derived(module, trunc):
    """Rebuild every matrix the library derives from module without
    checking it (negated, relabeled and the invariant with its unipotent
    trivialization) through its checked constructor."""
    sig, conn = module.signature, module.connection
    recheck(sig, conn.negated())
    recheck(sig, conn.relabeled(RingLabel.ROBBA_PLUS if conn.ring.padic
                                else conn.ring))
    v = invariant(module, trunc).matrix
    InvariantRepresentative(UnipotentMatrix(v.signature, v.ring, v.entries,
                                            v.prime))


def recheck_pullback(family, v):
    """Rebuild the pullback of family along v and every matrix derived
    from it, the line integral's invariant included."""
    module = recheck(family.signature, section_pullback(family, v).connection)
    recheck_derived(module, 1 + min(f.series.trunc_order
                                    for row in module.connection.entries
                                    for f in row))


def random_value(rng, ring, p):
    if rng.random() < 0.3:
        return 0
    if ring is F:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if ring is GP:
        return rng.choice((rng.randint(-50, 50), p ** 9))
    return Fraction(rng.randint(-50, 50), p ** rng.randint(0, 2))


def random_module(rng, ring):
    """A framed connection with random blocks, windows and precision."""
    p = None if ring is F else rng.choice((2, 3))
    prec = rng.choice((0, 1, 3, 8) if ring is GP else (-1, 0, 1, 3, 8))
    sig = Signature(tuple(rng.randint(1, 2)
                          for _ in range(rng.randint(1, 4))))
    lower = set(sig.lower_positions())

    def entry(a, b):
        n = rng.randint(1, 6)
        if (a, b) in lower:
            return DifferentialForm(zero_series(ring, 0, n, p, prec))
        return DifferentialForm(series_from_coeffs(
            ring, 0, [random_value(rng, ring, p) for _ in range(n)], p,
            prec))

    r = sig.total
    rows = tuple(tuple(entry(a, b) for b in range(r)) for a in range(r))
    return FramedNablaModule(sig, ConnectionMatrix(ring, rows, p))


def random_family(rng, ring):
    """A framed family with random parts and a section v with v(0) = 1."""
    p = None if ring is F else 3
    sig = Signature(tuple(rng.randint(1, 2)
                          for _ in range(rng.randint(1, 3))))
    tu = rng.randint(1, 5)
    tx = rng.randint(tu, 6)
    lower = set(sig.lower_positions())

    def part(zero):
        mapping = {} if zero else {
            (i, j): random_value(rng, ring, p)
            for i in range(tu) for j in range(tx) if rng.random() < 0.4}
        return biseries_from_map(ring, mapping, tu, tx, p)

    r = sig.total
    family = FramedFamily(sig, ring, tuple(
        tuple(BiForm(part((a, b) in lower), part((a, b) in lower))
              for b in range(r)) for a in range(r)), p)
    v = series_from_coeffs(ring, 0, [1, 1] + [random_value(rng, ring, p)
                                              for _ in range(tu)], p)
    return family, v


class TestTrustedMatrices:
    """Every matrix the library builds from valid values without checking
    it passes the checks its public constructor runs."""

    @pytest.mark.parametrize("name", ["chain_du", "log_connection"])
    def test_demo_connections(self, name):
        doc = json.loads((ROOT / "demos" / "data" / f"{name}.json")
                         .read_text())
        recheck_derived(*load_connection(doc))

    def test_demo_family(self):
        doc = json.loads((ROOT / "demos" / "data" / "geometric_family.json")
                         .read_text())
        family, _, _, _ = load_family(doc)
        recheck_pullback(family, parse_series("1 - u + O(u^9)", GP, 2, 12))

    @pytest.mark.parametrize("size", range(2, 7))
    def test_workload_connections(self, size):
        job = workloads.invariant_job(random.Random(size), size, 8)
        recheck_derived(*load_connection(json.loads(job.stdin)))

    @pytest.mark.parametrize("size", range(2, 7))
    def test_workload_families(self, size):
        job = workloads.integrate_job(random.Random(size), size, 7)
        family, _, _, _ = load_family(workloads.chain_family(size, 7))
        recheck_pullback(family, parse_series(job.argv[4], GP, 3, 20))

    @pytest.mark.parametrize("ring", [F, GP, RingLabel.ROBBA_PLUS],
                             ids=lambda r: r.value)
    def test_random_connections(self, ring):
        rng = random.Random(f"trusted/{ring.value}")
        for _ in range(40):
            recheck_derived(random_module(rng, ring), rng.randint(1, 6))

    @pytest.mark.parametrize("ring", [F, GP], ids=lambda r: r.value)
    def test_random_families(self, ring):
        rng = random.Random(f"trusted-family/{ring.value}")
        for _ in range(20):
            recheck_pullback(*random_family(rng, ring))


class TestConstantsBuiltUnchecked:
    """The constant 1 of trivialize and section_pullback goes through no
    Fraction lift and no per-coefficient check: the builder lifts its int
    1 once and shares one zero."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = Counter()
        lift, check = PAdic.from_rational.__func__, series._check_coeffs

        def counted_lift(cls, *args):
            calls["from_rational"] += 1
            return lift(cls, *args)

        def counted_check(*args):
            calls["_check_coeffs"] += 1
            return check(*args)

        monkeypatch.setattr(PAdic, "from_rational",
                            classmethod(counted_lift))
        monkeypatch.setattr(series, "_check_coeffs", counted_check)
        return calls

    def test_trivialize(self, counted):
        job = workloads.invariant_job(random.Random(5), 6, 20)
        module, trunc = load_connection(json.loads(job.stdin))
        conn = module.connection.relabeled(RingLabel.ROBBA_PLUS)
        module = FramedNablaModule(module.signature, conn)
        counted.clear()
        v = trivialize(module, trunc)
        assert counted == Counter()
        assert v.entry(0, 0).coefficient(0) == 1

    def test_one_series(self, counted):
        ones = [one_series(ring, 20, p)
                for ring, p in [(F, None), (GP, 3), (RingLabel.ROBBA, 2)]]
        assert counted == Counter()
        assert all(s.coefficient(0) == 1 for s in ones)

    def test_section_pullback(self, counted):
        job = workloads.integrate_job(random.Random(5), 6, 7)
        family, _, _, _ = load_family(workloads.chain_family(6, 7))
        v = parse_series(job.argv[4], GP, 3, 20)
        counted.clear()
        section_pullback(family, v)
        assert counted == Counter()
