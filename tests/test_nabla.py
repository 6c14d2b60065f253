"""Framed connections: recurrence solutions, trivialization, the invariant."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lineint import nabla
from lineint.errors import (
    CalculusError,
    InvalidInputError,
    IntegralObstructionError,
    NotFramedError,
)
from lineint.nabla import (
    ConnectionMatrix,
    FramedNablaModule,
    InvariantRepresentative,
    Signature,
    UnipotentMatrix,
    fundamental_solution,
    horizontal_basis,
    invariant,
    is_identity_series_matrix,
    matrix_residual,
    series_matrix_product,
    trivialize,
)
from lineint.scheme import BiForm, FramedFamily, biseries_from_map
from lineint.series import (
    DifferentialForm,
    RingLabel,
    dlog,
    one_series,
    padic_log_dagger,
    series_from_coeffs,
    valuation_profile,
    zero_series,
)

F = RingLabel.FORMAL
GP = RingLabel.GAMMA_PLUS
RP = RingLabel.ROBBA_PLUS
R = RingLabel.ROBBA


def fform(vals, min_degree=0):
    return DifferentialForm(series_from_coeffs(F, min_degree, vals))


def fzero(trunc):
    return DifferentialForm(zero_series(F, 0, trunc))


def upper_2x2(c12, trunc):
    z = fzero(trunc)
    return ConnectionMatrix(F, ((z, c12), (z, z)))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10)


class TestSignature:
    def test_total_and_offsets(self):
        sig = Signature((2, 1, 3))
        assert sig.total == 6
        assert sig.offsets == (0, 2, 3)

    def test_block_of(self):
        sig = Signature((2, 1, 3))
        assert [sig.block_of(k) for k in range(6)] == [0, 0, 1, 2, 2, 2]
        with pytest.raises(InvalidInputError):
            sig.block_of(6)

    def test_block_rows(self):
        sig = Signature((2, 1))
        assert list(sig.block_rows(0)) == [0, 1]
        assert list(sig.block_rows(1)) == [2]

    @pytest.mark.parametrize("parts", [(1,), (2, 1, 3), (1, 1, 1, 1),
                                       (3, 2)])
    def test_lower_positions_are_on_or_below_the_block_diagonal(self, parts):
        sig = Signature(parts)
        r = sig.total
        assert list(sig.lower_positions()) == [
            (a, b) for a in range(r) for b in range(r)
            if sig.block_of(a) >= sig.block_of(b)]

    def test_rejects_bad_parts(self):
        with pytest.raises(InvalidInputError):
            Signature(())
        with pytest.raises(InvalidInputError):
            Signature((1, 0))
        with pytest.raises(InvalidInputError):
            Signature((-2,))


class TestConnectionMatrix:
    def test_must_be_square_and_nonempty(self):
        with pytest.raises(InvalidInputError):
            ConnectionMatrix(F, ())
        with pytest.raises(InvalidInputError):
            ConnectionMatrix(F, ((fzero(4),), (fzero(4),)))

    def test_entries_must_be_forms_over_the_ring(self):
        with pytest.raises(InvalidInputError):
            ConnectionMatrix(F, ((one_series(F, 4),),))
        g = DifferentialForm(zero_series(GP, 0, 4, prime=2))
        with pytest.raises(InvalidInputError):
            ConnectionMatrix(F, ((g,),))
        with pytest.raises(InvalidInputError):
            ConnectionMatrix(GP, ((g,),), prime=3)

    def test_negated(self):
        c = upper_2x2(fform([1, 2, 3]), 3)
        n = c.negated()
        assert n.entries[0][1].series.coeffs == (-1, -2, -3)

    def test_relabeled(self):
        g = DifferentialForm(series_from_coeffs(GP, 0, [1], prime=2))
        c = ConnectionMatrix(GP, ((g,),), prime=2)
        r = c.relabeled(RP)
        assert r.ring is RP and r.entries[0][0].ring is RP

    def test_working_precision(self):
        g = DifferentialForm(series_from_coeffs(GP, 0, [1], prime=2,
                                                abs_prec=7))
        c = ConnectionMatrix(GP, ((g,),), prime=2)
        assert c.working_precision() == 7


class TestValidateFramed:
    def test_accepts_upper_triangular(self):
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(fform([1, 1]), 2))
        assert isinstance(m, FramedNablaModule)
        assert m.ring is F

    def test_rejects_lower_block(self):
        z = fzero(2)
        bad = ConnectionMatrix(F, ((z, z), (fform([1, 1]), z)))
        with pytest.raises(NotFramedError) as info:
            FramedNablaModule(Signature((1, 1)), bad)
        assert "(2, 1)" in str(info.value)

    def test_rejects_diagonal_block(self):
        z = fzero(2)
        bad = ConnectionMatrix(F, ((fform([1, 1]), z), (z, z)))
        with pytest.raises(NotFramedError):
            FramedNablaModule(Signature((1, 1)), bad)

    def test_wide_block_accepted(self):
        # signature (2, 1): the 2x1 upper block is free, everything else zero
        z = fzero(3)
        conn = ConnectionMatrix(F, (
            (z, z, fform([1, 0, 0])),
            (z, z, fform([0, 2, 0])),
            (z, z, z),
        ))
        m = FramedNablaModule(Signature((2, 1)), conn)
        assert m.signature.parts == (2, 1)

    def test_within_diagonal_block_must_vanish(self):
        z = fzero(3)
        conn = ConnectionMatrix(F, (
            (z, fform([1, 0, 0]), z),
            (z, z, z),
            (z, z, z),
        ))
        with pytest.raises(NotFramedError):
            FramedNablaModule(Signature((2, 1)), conn)

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            FramedNablaModule(Signature((1, 1, 1)), upper_2x2(fform([1]), 1))


class TestUnipotentMatrix:
    def test_diagonal_must_be_one(self):
        sig = Signature((1, 1))
        z = zero_series(F, 0, 4)
        with pytest.raises(InvalidInputError):
            UnipotentMatrix(sig, F, ((z, z), (z, z)))

    @pytest.mark.parametrize("min_degree,coeffs,identity", [
        (0, [1, 0, 0, 0], True),
        (0, [1, 1, 0, 0], False),
        (0, [1, 0, 0, 3], False),
        (-1, [0, 1, 0, 0], True),
        (-1, [2, 1, 0, 0], False),
        (1, [0, 0, 0], False),
    ])
    def test_diagonal_is_the_constant_one(self, min_degree, coeffs, identity):
        d = series_from_coeffs(R, min_degree, coeffs, prime=2)
        z = zero_series(R, 0, 4, prime=2)
        rows = ((d, z), (z, d))
        assert is_identity_series_matrix(rows) is identity
        if identity:
            UnipotentMatrix(Signature((1, 1)), R, rows, prime=2)
        else:
            with pytest.raises(InvalidInputError, match="is not the constant"):
                UnipotentMatrix(Signature((1, 1)), R, rows, prime=2)

    def test_lower_entries_must_vanish(self):
        sig = Signature((1, 1))
        one, z = one_series(F, 4), zero_series(F, 0, 4)
        t = series_from_coeffs(F, 0, [0, 1, 0, 0])
        with pytest.raises(InvalidInputError):
            UnipotentMatrix(sig, F, ((one, z), (t, one)))
        v = UnipotentMatrix(sig, F, ((one, t), (z, one)))
        assert v.size == 2

    def test_constant_matrix(self):
        sig = Signature((1, 1))
        one, z = one_series(F, 4), zero_series(F, 0, 4)
        t = series_from_coeffs(F, 0, [0, 1, 0, 0])
        v = UnipotentMatrix(sig, F, ((one, t), (z, one)))
        assert v.constant_matrix() == ((1, 0), (0, 1))


def series3(value, ring=GP, prime=3):
    return series_from_coeffs(ring, 0, [value, 0, 0], prime=prime)


def form3(value, ring=GP, prime=3):
    return DifferentialForm(series3(value, ring, prime))


def biform3(value, ring=GP, prime=3):
    b = biseries_from_map(ring, {(0, 0): value}, 3, 3, prime=prime)
    return BiForm(b, b)


SIG_1_1 = Signature((1, 1))

# Each square matrix class: its entry builder, its constructor from rows over
# gamma+ at p = 3 with signature (1, 1), and its diagonal value.
MATRIX_CLASSES = {
    "ConnectionMatrix": (
        form3, lambda rows: ConnectionMatrix(GP, rows, prime=3), 0),
    "FramedNablaModule": (
        form3, lambda rows: FramedNablaModule(
            SIG_1_1, ConnectionMatrix(GP, rows, prime=3)), 0),
    "UnipotentMatrix": (
        series3, lambda rows: UnipotentMatrix(SIG_1_1, GP, rows, prime=3), 1),
    "FramedFamily": (
        biform3, lambda rows: FramedFamily(SIG_1_1, GP, rows, prime=3), 0),
}


def no_fault(rows, entry, diag):
    pass


def empty(rows, entry, diag):
    rows.clear()


def ragged(rows, entry, diag):
    rows[1].pop()


def three_by_three(rows, entry, diag):
    rows[:] = [[entry(diag if a == b else 0) for b in range(3)]
               for a in range(3)]


def wrong_type(rows, entry, diag):
    rows[0][1] = form3(1) if entry is series3 else series3(1)


def wrong_ring(rows, entry, diag):
    rows[0][1] = entry(1, RingLabel.E_PLUS, 3)


def wrong_prime(rows, entry, diag):
    rows[0][1] = entry(1, GP, 5)


def lower(rows, entry, diag):
    rows[1][0] = entry(1)


def diagonal_two(rows, entry, diag):
    rows[0][0] = entry(2)


def diagonal_zero(rows, entry, diag):
    rows[1][1] = entry(0)


def both(*faults):
    def mutate(rows, entry, diag):
        for fault in faults:
            fault(rows, entry, diag)
    return mutate


INV, NF = InvalidInputError, NotFramedError

# fault, then the error of ConnectionMatrix, FramedNablaModule,
# UnipotentMatrix and FramedFamily (None: accepted)
MATRIX_FAULTS = [
    ("well-formed", no_fault, (None, None, None, None)),
    ("empty", empty, (INV, INV, INV, INV)),
    ("ragged", ragged, (INV, INV, INV, INV)),
    ("3x3", three_by_three, (None, INV, INV, INV)),
    ("wrong-type", wrong_type, (INV, INV, INV, INV)),
    ("wrong-ring", wrong_ring, (INV, INV, INV, INV)),
    ("wrong-prime", wrong_prime, (INV, INV, INV, INV)),
    ("lower", lower, (None, NF, INV, NF)),
    ("diagonal-2", diagonal_two, (None, NF, INV, NF)),
    ("diagonal-0", diagonal_zero, (None, None, INV, None)),
    ("3x3+lower", both(three_by_three, lower), (None, INV, INV, INV)),
    ("wrong-type+lower", both(wrong_type, lower), (INV, INV, INV, INV)),
    ("wrong-prime+lower", both(wrong_prime, lower), (INV, INV, INV, INV)),
    ("wrong-ring+diagonal-2", both(wrong_ring, diagonal_two),
     (INV, INV, INV, INV)),
    ("lower+diagonal-2", both(lower, diagonal_two), (None, NF, INV, NF)),
]


class TestMatrixRefusals:
    """One table for the square, ring, prime and frame checks of every
    matrix class; an input with two faults reports the first in the order
    shape, entries, frame."""

    @pytest.mark.parametrize("fault,mutate,errors", MATRIX_FAULTS,
                             ids=[f[0] for f in MATRIX_FAULTS])
    @pytest.mark.parametrize("name", list(MATRIX_CLASSES))
    def test_refusal(self, name, fault, mutate, errors):
        entry, build, diag = MATRIX_CLASSES[name]
        rows = [[entry(diag), entry(1)], [entry(0), entry(diag)]]
        mutate(rows, entry, diag)
        error = dict(zip(MATRIX_CLASSES, errors))[name]
        if error is None:
            build(rows)
            return
        with pytest.raises(CalculusError) as info:
            build(rows)
        assert type(info.value) is error


class TestFundamentalSolution:
    def test_zero_gives_identity(self):
        n = ConnectionMatrix(F, ((fzero(6),),))
        s = fundamental_solution(n, 7)
        assert s[0][0].coefficient(0) == 1
        assert s[0][0].without_constant_term().is_zero

    def test_scalar_one_gives_exponential(self):
        n = ConnectionMatrix(F, ((fform([1, 0, 0, 0, 0]),),))
        s = fundamental_solution(n, 5)[0][0]
        assert s.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6),
                            Fraction(1, 24))

    def test_constant_nilpotent(self):
        z = fzero(4)
        n = ConnectionMatrix(F, ((z, fform([1, 0, 0, 0])), (z, z)))
        s = fundamental_solution(n, 5)
        assert s[0][1].coefficient(0) == 0 and s[0][1].coefficient(1) == 1
        assert all(s[0][1].coefficient(k) == 0 for k in (2, 3, 4))
        assert s[1][0].is_zero

    def test_window_limited_by_input(self):
        n = ConnectionMatrix(F, ((fform([1, 0, 0]),),))
        s = fundamental_solution(n, 99)[0][0]
        assert s.trunc_order == 4

    def test_rejects_padic_rings(self):
        g = DifferentialForm(series_from_coeffs(GP, 0, [1], prime=2))
        n = ConnectionMatrix(GP, ((g,),), prime=2)
        with pytest.raises(InvalidInputError):
            fundamental_solution(n, 5)

    def test_solves_the_equation(self):
        # S' = N S for a dense 2x2 N, checked coefficientwise
        n = ConnectionMatrix(F, (
            (fform([1, 2, 0, 1]), fform([0, 1, 1, 0])),
            (fform([3, 0, 0, 0]), fform([0, 0, 2, 0])),
        ))
        s = fundamental_solution(n, 5)
        from lineint.series import derive
        for a in range(2):
            for b in range(2):
                lhs = derive(s[a][b]).series
                rhs = (n.entries[a][0].series * s[0][b]
                       + n.entries[a][1].series * s[1][b])
                assert lhs.agrees_with(rhs)


class TestHorizontalBasis:
    def test_trivial_connection(self):
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(fzero(6), 6))
        assert is_identity_series_matrix(horizontal_basis(m, 7))

    def test_log_shaped_section(self):
        # C12 = -dt/(1-t): horizontal column (t + t^2/2 + ..., 1)
        T = 10
        c12 = fform([-1] * T)
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(c12, T))
        s = horizontal_basis(m, T + 1)
        assert s[0][1].coefficient(0) == 0
        assert all(s[0][1].coefficient(k) == Fraction(1, k)
                   for k in range(1, T + 1))
        assert s[1][1].coefficient(0) == 1


class TestTrivialize:
    def test_zero_connection_gives_identity(self):
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(fzero(6), 6))
        v = trivialize(m, 7)
        assert is_identity_series_matrix(v.entries)

    def test_log_entry(self):
        T = 9
        u = series_from_coeffs(F, 0, [1, -1] + [0] * (T - 2))
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(dlog(u), T))
        v = trivialize(m, T)
        entry = v.entries[0][1]
        assert all(entry.coefficient(k) == Fraction(-1, k)
                   for k in range(1, T))

    def test_triple_chain_integrates_twice(self):
        z = DifferentialForm(zero_series(RP, 0, 8, prime=2, abs_prec=12))
        du = DifferentialForm(series_from_coeffs(RP, 0, [1] + [0] * 7,
                                                 prime=2, abs_prec=12))
        conn = ConnectionMatrix(RP, ((z, du, z), (z, z, du), (z, z, z)),
                                prime=2)
        m = FramedNablaModule(Signature((1, 1, 1)), conn)
        v = trivialize(m, 9)
        assert v.entries[0][1].coefficient(1).to_fraction() == 1
        assert v.entries[1][2].coefficient(1).to_fraction() == 1
        got = v.entries[0][2]
        assert got.coefficient(2).to_fraction() == Fraction(1, 2)
        assert matrix_residual(m, v)

    def test_normalized_at_origin(self):
        T = 6
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(fform([3, 1, 4, 1,
                                                                5]), T - 1))
        v = trivialize(m, T)
        assert v.constant_matrix() == ((1, 0), (0, 1))

    def test_rejects_integral_labels(self):
        g = DifferentialForm(series_from_coeffs(GP, 0, [1], prime=2))
        z = DifferentialForm(zero_series(GP, 0, 1, prime=2))
        conn = ConnectionMatrix(GP, ((z, g), (z, z)), prime=2)
        m = FramedNablaModule(Signature((1, 1)), conn)
        with pytest.raises(InvalidInputError):
            trivialize(m, 4)

    def test_laurent_connection_can_obstruct(self):
        # du/u has a residue: no single-valued antiderivative exists
        pole = DifferentialForm(series_from_coeffs(R, -1, [1, 0, 0],
                                                   prime=2, abs_prec=8))
        z = DifferentialForm(zero_series(R, -1, 2, prime=2, abs_prec=8))
        conn = ConnectionMatrix(R, ((z, pole), (z, z)), prime=2)
        m = FramedNablaModule(Signature((1, 1)), conn)
        with pytest.raises(IntegralObstructionError):
            trivialize(m, 4)

    @given(st.lists(rationals, min_size=5, max_size=5),
           st.lists(rationals, min_size=5, max_size=5),
           st.lists(rationals, min_size=5, max_size=5))
    @settings(max_examples=40)
    def test_inverts_horizontal_basis(self, xs, ys, zs):
        T = 6
        z = fzero(5)
        conn = ConnectionMatrix(F, (
            (z, fform(xs), fform(ys)),
            (z, z, fform(zs)),
            (z, z, z),
        ))
        m = FramedNablaModule(Signature((1, 1, 1)), conn)
        v = trivialize(m, T)
        s = horizontal_basis(m, T)
        assert is_identity_series_matrix(series_matrix_product(v.entries, s))
        assert matrix_residual(m, v)


class TestMatrixResidual:
    def test_identity_fails_for_nonzero_connection(self):
        T = 6
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(fform([1] * T), T))
        one, z = one_series(F, T), zero_series(F, 0, T)
        v = UnipotentMatrix(Signature((1, 1)), F, ((one, z), (z, one)))
        assert not matrix_residual(m, v)

    def test_nonconstant_matrix_fails_for_zero_connection(self):
        T = 6
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(fzero(T), T))
        one, z = one_series(F, T), zero_series(F, 0, T)
        t = series_from_coeffs(F, 0, [0, 1] + [0] * (T - 2))
        v = UnipotentMatrix(Signature((1, 1)), F, ((one, t), (z, one)))
        assert not matrix_residual(m, v)

    def test_size_mismatch_rejected(self):
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(fzero(4), 4))
        one = one_series(F, 4)
        v = UnipotentMatrix(Signature((1,)), F, ((one,),))
        with pytest.raises(InvalidInputError):
            matrix_residual(m, v)

    def test_relabels_across_power_series_rings(self):
        g = DifferentialForm(series_from_coeffs(GP, 0, [1, 1, 1], prime=2))
        z = DifferentialForm(zero_series(GP, 0, 3, prime=2))
        conn = ConnectionMatrix(GP, ((z, g), (z, z)), prime=2)
        m = FramedNablaModule(Signature((1, 1)), conn)
        rep = invariant(m, 4)
        assert rep.matrix.ring is RP
        assert matrix_residual(m, rep.matrix)


class TestInvariant:
    def test_log_dagger_chain(self):
        T = 9
        v = series_from_coeffs(GP, 0, [1, -1] + [0] * (T - 2),
                               prime=2, abs_prec=12)
        c12 = dlog(v)
        z = DifferentialForm(zero_series(GP, 0, T - 1, prime=2, abs_prec=12))
        conn = ConnectionMatrix(GP, ((z, c12), (z, z)), prime=2)
        rep = invariant(FramedNablaModule(Signature((1, 1)), conn), T)
        entry = rep.matrix.entries[0][1]
        assert entry.agrees_with(padic_log_dagger(v))
        profile = dict(valuation_profile(entry))
        assert profile[2] == -1 and profile[4] == -2 and profile[8] == -3

    def test_trivial_module(self):
        z = DifferentialForm(zero_series(GP, 0, 5, prime=3))
        conn = ConnectionMatrix(GP, ((z, z), (z, z)), prime=3)
        rep = invariant(FramedNablaModule(Signature((1, 1)), conn), 6)
        assert is_identity_series_matrix(rep.matrix.entries)

    def test_exact_form_stays_bounded(self):
        du = DifferentialForm(series_from_coeffs(GP, 0, [1] + [0] * 7,
                                                 prime=2, abs_prec=10))
        z = DifferentialForm(zero_series(GP, 0, 8, prime=2, abs_prec=10))
        conn = ConnectionMatrix(GP, ((z, du), (z, z)), prime=2)
        rep = invariant(FramedNablaModule(Signature((1, 1)), conn), 9)
        profile = valuation_profile(rep.matrix.entries[0][1])
        assert profile == [(1, 0)]

    def test_formal_connections_pass_through(self):
        T = 6
        m = FramedNablaModule(Signature((1, 1)), upper_2x2(fform([1] * 5), 5))
        rep = invariant(m, T)
        assert rep.matrix.ring is F

    def test_laurent_rings_rejected(self):
        z = DifferentialForm(zero_series(R, 0, 4, prime=2))
        conn = ConnectionMatrix(R, ((z, z), (z, z)), prime=2)
        m = FramedNablaModule(Signature((1, 1)), conn)
        with pytest.raises(InvalidInputError):
            invariant(m, 4)

    def test_relabeled_module_is_not_framed_again(self, monkeypatch):
        z = DifferentialForm(zero_series(GP, 0, 5, prime=3))
        du = DifferentialForm(one_series(GP, 5, prime=3))
        conn = ConnectionMatrix(GP, ((z, du), (z, z)), prime=3)
        module = FramedNablaModule(Signature((1, 1)), conn)
        calls = []
        monkeypatch.setattr(nabla, "_check_framed",
                            lambda *args: calls.append(args))
        invariant(module, 6)
        assert calls == []

    def test_unnormalized_representative_rejected(self):
        sig = Signature((1, 1))
        one, z = one_series(F, 4), zero_series(F, 0, 4)
        shifted = series_from_coeffs(F, 0, [5, 1, 0, 0])
        v = UnipotentMatrix(sig, F, ((one, shifted), (z, one)))
        with pytest.raises(InvalidInputError):
            InvariantRepresentative(v)
