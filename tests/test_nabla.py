"""Framed connections: recurrence solutions, trivialization, the invariant."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from lineint import nabla, series
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
from lineint.parsing import load_family
from lineint.scheme import BiForm, FramedFamily, biseries_from_map
from lineint.series import (
    DifferentialForm,
    RingLabel,
    antiderive,
    derive,
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

    def test_block_of(self):
        sig = Signature((2, 1, 3))
        assert [sig.block_of(k) for k in range(6)] == [0, 0, 1, 2, 2, 2]
        with pytest.raises(InvalidInputError):
            sig.block_of(6)

    def test_blocks(self):
        sig = Signature([2, 1, 3])
        assert sig.parts == (2, 1, 3)
        assert sig.blocks == (0, 0, 1, 2, 2, 2)
        assert sig.blocks is sig.blocks

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

    @pytest.mark.parametrize("parts", [(1.7, 2), ("2", True), (True,),
                                       (2.0,), (Fraction(2),), (1, None)])
    def test_rejects_parts_that_are_not_integers(self, parts):
        with pytest.raises(InvalidInputError):
            Signature(parts)


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

    @pytest.fixture
    def tested(self, monkeypatch):
        """Every form whose is_zero is asked, in order."""
        tested, is_zero = [], series._Form.is_zero
        monkeypatch.setattr(series._Form, "is_zero", property(
            lambda f: tested.append(f) or is_zero.fget(f)))
        return tested

    def test_shared_entry_is_tested_once(self, tested):
        z, nz = fzero(3), fform([1, 2, 3])
        sig = Signature((1, 2, 1))
        lower = set(sig.lower_positions())
        rows = tuple(tuple(z if (a, b) in lower else nz for b in range(4))
                     for a in range(4))
        FramedNablaModule(sig, ConnectionMatrix(F, rows))
        assert len(tested) == 1 and tested[0] is z

    def test_family_zero_entry_is_shared_and_tested_once(self, tested):
        doc = {"signature": [1, 1, 1], "ring": "gamma+", "p": 3,
               "abs_prec": 5, "trunc": 3,
               "connection": [["0", {"dx": "1 + O(u^3, x^3)"}, "0"],
                              ["0", "0", {"du": "u + O(u^3, x^3)"}],
                              ["0", "0", "0"]]}
        family, _, _, _ = load_family(doc)
        assert len(tested) == 1
        zero = tested[0]
        assert all(family.entries[a][b] is zero
                   for a, b in family.signature.lower_positions())
        assert family.entries[0][2] is zero

    @pytest.mark.parametrize("parts,positions,pair", [
        ((1, 1, 1), [(2, 1), (1, 0), (2, 0)], "(2, 1)"),
        ((1, 1, 1), [(2, 2), (2, 0)], "(3, 1)"),
        ((2, 1), [(2, 0), (1, 0)], "(1, 1)"),
    ])
    def test_recurring_entry_reports_the_first_block_pair(self, parts,
                                                          positions, pair):
        z, nz = fzero(2), fform([1, 1])
        r = sum(parts)
        rows = [[z] * r for _ in range(r)]
        for a, b in positions:
            rows[a][b] = nz
        with pytest.raises(NotFramedError) as info:
            FramedNablaModule(Signature(parts),
                              ConnectionMatrix(F, tuple(map(tuple, rows))))
        assert f"block {pair} of the connection is not zero" \
            in str(info.value)


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


# -- trivialize against the loop nest it replaced ------------------------------


def trivialize_by_superdiagonals(module, trunc_order):
    """The entries of trivialize(module, trunc_order) as the library built
    them before: block superdiagonal by block superdiagonal, in six nested
    loops over the rows of each block.  Kept as the oracle of
    TestTrivializeOracle."""
    conn = module.connection
    ring, prime = conn.ring, conn.prime
    prec = conn.working_precision()
    one = one_series(ring, trunc_order, prime, prec)
    zero = zero_series(ring, 0, trunc_order, prime, prec)
    parts = module.signature.parts
    offsets = tuple(accumulate(parts[:-1], initial=0))

    def block_rows(i):
        return range(offsets[i], offsets[i] + parts[i])

    r, n = sum(parts), len(parts)
    ents = [[one if a == b else zero for b in range(r)] for a in range(r)]
    for d in range(1, n):
        for i_block in range(n - d):
            j_block = i_block + d
            for a in block_rows(i_block):
                for b in block_rows(j_block):
                    w = conn.entries[a][b]
                    for e in range(1, d):
                        for c in block_rows(i_block + e):
                            w = w + ents[a][c] * conn.entries[c][b]
                    ents[a][b] = antiderive(w, ring).clipped(
                        trunc_order=trunc_order)
    return tuple(map(tuple, ents))


def oracle_module(rng, ring):
    """A framed connection over ring with blocks of sizes 1 to 3.  Over
    robba the windows may start at degree -2 and a degree -1 coefficient
    is often zero, so some modules trivialize and others obstruct."""
    p = None if ring is F else rng.choice((2, 3))
    prec = rng.choice((1, 3, 8))
    sig = Signature(tuple(rng.randint(1, 3)
                          for _ in range(rng.randint(1, 4))))
    lower = set(sig.lower_positions())

    def value(d):
        if rng.random() < 0.3 or (d == -1 and rng.random() < 0.8):
            return 0
        if ring is GP:
            return rng.randint(-50, 50)
        return Fraction(rng.randint(-50, 50), (p or 5) ** rng.randint(0, 2))

    def entry(a, b):
        lo = rng.choice((-2, -1, 0)) if ring is R else 0
        n = rng.randint(1, 6)
        if (a, b) in lower:
            return DifferentialForm(zero_series(ring, lo, lo + n, p, prec))
        return DifferentialForm(series_from_coeffs(
            ring, lo, [value(d) for d in range(lo, lo + n)], p, prec))

    r = sig.total
    rows = tuple(tuple(entry(a, b) for b in range(r)) for a in range(r))
    return FramedNablaModule(sig, ConnectionMatrix(ring, rows, p))


def assert_same_entries(got, want):
    """Equal windows whose coefficients print alike at equal precision."""
    assert got == want
    for g, w in zip((s for row in got for s in row),
                    (s for row in want for s in row)):
        assert [(str(c), getattr(c, "abs_prec", None)) for c in g.coeffs] \
            == [(str(c), getattr(c, "abs_prec", None)) for c in w.coeffs]


class TestTrivializeOracle:
    """trivialize fills V row by row; the loop nest it replaced filled it
    by block superdiagonals.  Both add the terms of each entry in the same
    order, so every entry is the same window with the same coefficients
    and precisions.  When some entry obstructs, both raise the same class;
    trivialize names the first obstruction in row order, the loop nest the
    first by superdiagonal."""

    @pytest.mark.parametrize("ring", [F, RP, R], ids=lambda r: r.value)
    def test_random_modules(self, ring):
        rng = random.Random(f"trivialize-oracle/{ring.value}")
        outcomes = set()
        for _ in range(40):
            module, trunc = oracle_module(rng, ring), rng.randint(1, 7)
            try:
                want = trivialize_by_superdiagonals(module, trunc)
            except CalculusError as exc:
                with pytest.raises(type(exc)):
                    trivialize(module, trunc)
                outcomes.add(type(exc))
                continue
            v = trivialize(module, trunc)
            assert_same_entries(v.entries, want)
            outcomes.add(None)
        assert None in outcomes
        assert (IntegralObstructionError in outcomes) == (ring is R)

    def test_random_integral_modules_through_invariant(self):
        rng = random.Random("trivialize-oracle/gamma+")
        for _ in range(40):
            module, trunc = oracle_module(rng, GP), rng.randint(1, 7)
            relabeled = FramedNablaModule(
                module.signature, module.connection.relabeled(RP))
            assert_same_entries(invariant(module, trunc).matrix.entries,
                                trivialize_by_superdiagonals(relabeled,
                                                             trunc))

    def test_first_obstruction_in_row_order(self):
        z = DifferentialForm(zero_series(R, -1, 3, prime=2, abs_prec=8))

        def pole(k):
            return DifferentialForm(series_from_coeffs(R, -1, [k, 0, 0, 0],
                                                       prime=2, abs_prec=8))

        conn = ConnectionMatrix(R, ((z, z, pole(2)), (z, z, pole(1)),
                                    (z, z, z)), prime=2)
        with pytest.raises(IntegralObstructionError) as info:
            trivialize(FramedNablaModule(Signature((1, 1, 1)), conn), 4)
        # Entry (1, 3) comes before entry (2, 3) in row order.
        assert info.value.residue.to_fraction() == 2


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


def matrix_sum(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def identity_matrix(ring, size, trunc, prime, abs_prec):
    one = one_series(ring, trunc, prime, abs_prec)
    zero = zero_series(ring, 0, trunc, prime, abs_prec)
    return tuple(tuple(one if a == b else zero for b in range(size))
                 for a in range(size))


def unipotent_inverse(g, identity):
    """g^-1 = sum of (I - g)^k for k < size: I - g is nilpotent."""
    nilpotent = tuple(tuple(x - y for x, y in zip(ri, rg))
                      for ri, rg in zip(identity, g))
    inverse, power = identity, identity
    for _ in range(len(g) - 1):
        power = series_matrix_product(power, nilpotent)
        inverse = matrix_sum(inverse, power)
    return inverse


GAUGE_CASES = {"formal": (F, None), "gamma+ p=2": (GP, 2),
               "gamma+ p=3": (GP, 3)}


class TestGaugeCovariance:
    """For a block-unipotent G of the connection's signature, the gauge
    transform C' = G^-1 C G + G^-1 dG has invariant(C') = G(0)^-1
    invariant(C) G on the common window: with dV = V C and V(0) = I,
    V' = G(0)^-1 V G solves dV' = V' C' and V'(0) = I.  Entries agree
    modulo the lesser claim.  The control, invariant(C) itself, fails."""

    @pytest.mark.parametrize("ring,p", GAUGE_CASES.values(),
                             ids=list(GAUGE_CASES))
    @given(data=st.data())
    @settings(max_examples=10, derandomize=True, deadline=None)
    def test_invariant_is_gauge_covariant(self, ring, p, data):
        t, n = 6, 12
        sig = Signature(data.draw(st.sampled_from([(1, 1, 1), (1, 2),
                                                    (2, 1)])))
        blocks = sig.blocks
        upper = [[blocks[a] < blocks[b] for b in range(3)] for a in range(3)]
        cells = [[data.draw(st.lists(st.integers(-9, 9), min_size=t,
                                     max_size=t)) if upper[a][b] else [0] * t
                  for b in range(3)] for a in range(3)]
        # G is I plus drawn windows above the block diagonal, one window
        # longer than C so that dG covers C's window.
        g_cells = [[data.draw(st.lists(st.integers(-9, 9), min_size=t + 1,
                                       max_size=t + 1)) if upper[a][b]
                    else [int(a == b)] + [0] * t for b in range(3)]
                   for a in range(3)]
        # A unit at degree 1 where the first two blocks meet: V'[0][first]
        # is V[0][first] plus G[0][first] - G(0)[0][first], so the control
        # fails.
        first = sig.parts[0]
        g_cells[0][first][1] = data.draw(st.integers(1, 9).filter(
            lambda k: p is None or k % p))

        def window(cs):
            return series_from_coeffs(ring, 0, cs, p, n)

        c = tuple(tuple(map(window, row)) for row in cells)
        g = tuple(tuple(map(window, row)) for row in g_cells)
        g_inv = unipotent_inverse(g, identity_matrix(ring, 3, t + 1, p, n))
        dg = tuple(tuple(derive(x).series for x in row) for row in g)
        gauged = matrix_sum(
            series_matrix_product(series_matrix_product(g_inv, c), g),
            series_matrix_product(g_inv, dg))

        def module(rows):
            return FramedNablaModule(sig, ConnectionMatrix(ring, tuple(
                tuple(map(DifferentialForm, row)) for row in rows), p))

        got = invariant(module(gauged), t + 1).matrix.entries
        inv = invariant(module(c), t + 1).matrix.entries
        target = inv[0][0].ring
        g_there = tuple(tuple(x.relabeled(target) for x in row) for row in g)
        g0 = tuple(tuple(series_from_coeffs(target, 0, [cs[0]] + [0] * t,
                                            p, n) for cs in row)
                   for row in g_cells)
        g0_inv = unipotent_inverse(
            g0, identity_matrix(target, 3, t + 1, p, n))
        want = series_matrix_product(series_matrix_product(g0_inv, inv),
                                     g_there)
        for a in range(3):
            for b in range(3):
                assert got[a][b].agrees_with(want[a][b]), (a, b, sig, cells,
                                                           g_cells)
        assert not got[0][first].agrees_with(inv[0][first]), (sig, cells,
                                                              g_cells)


# The ring lattice as the three tables that held it before RingLabel did.
G, E_PLUS, E = RingLabel.GAMMA, RingLabel.E_PLUS, RingLabel.E
ANTIDERIVE_TARGETS = {
    F: (F,),
    GP: (RP, GP), E_PLUS: (RP, GP), RP: (RP, GP),
    G: (R, G), E: (R, G), RingLabel.DAGGER: (R, G), R: (R, G),
}
TRIVIALIZE_RINGS = (F, RP, R)
INVARIANT_SOURCES = (F, GP, E_PLUS, RP)


def du_module(ring):
    """The 2x2 module over ring (p = 3) with one du above the diagonal."""
    p = 3 if ring.padic else None
    z = DifferentialForm(zero_series(ring, 0, 4, p))
    du = DifferentialForm(one_series(ring, 4, p))
    return FramedNablaModule(Signature((1, 1)),
                             ConnectionMatrix(ring, ((z, du), (z, z)), p))


@pytest.mark.parametrize("ring", list(RingLabel), ids=lambda r: r.value)
class TestRingLattice:
    """Where forms integrate, read off RingLabel, against the old tables."""

    def test_antiderive_targets(self, ring):
        form = du_module(ring).connection.entries[0][1]
        want = ANTIDERIVE_TARGETS[ring]
        taken, refusals = [], []
        for target in RingLabel:
            try:
                taken.append(antiderive(form, target).ring)
            except InvalidInputError as exc:
                refusals.append(str(exc))
        assert ring.antiderive_targets == want
        assert set(taken) == set(want) and len(taken) == len(want)
        allowed = "allowed targets: " + ", ".join(r.value for r in want)
        assert refusals and all(m.endswith(allowed) for m in refusals)

    def test_trivialize_rings(self, ring):
        if ring in TRIVIALIZE_RINGS:
            assert trivialize(du_module(ring), 5).ring is ring
        else:
            with pytest.raises(InvalidInputError,
                               match="cannot integrate one-forms"):
                trivialize(du_module(ring), 5)

    def test_invariant_sources(self, ring):
        if ring in INVARIANT_SOURCES:
            rep = invariant(du_module(ring), 5)
            assert rep.matrix.ring is (RP if ring.padic else F)
        else:
            with pytest.raises(InvalidInputError, match="no origin"):
                invariant(du_module(ring), 5)
