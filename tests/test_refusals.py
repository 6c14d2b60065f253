"""Every refusal the library raises is reached by some input, the algebra
the composite types share runs on each of them, and so do the other paths
no test elsewhere takes.

Each entry of REFUSALS names the input, the error class and a fragment of
the message.  The command-line refusals of the same kind are in
tests/test_cli.py.
"""

from fractions import Fraction
import json

import pytest

from lineint.coeff import PAdic, vp_int
from lineint.errors import (
    CalculusError,
    IntegralObstructionError,
    IntegralityError,
    InvalidInputError,
    NonUnitError,
    NotIntegralError,
    ParseError,
)
from lineint.nabla import (
    ConnectionMatrix,
    FramedNablaModule,
    InvariantRepresentative,
    Signature,
    UnipotentMatrix,
    fundamental_solution,
    is_identity_series_matrix,
    series_matrix_product,
    trivialize,
)
from lineint.parsing import parse_biseries, parse_series
from lineint.scheme import (
    BiForm,
    BiSeries,
    FramedFamily,
    biseries_from_map,
    section_pullback,
    substitute_fiber,
    total_d,
    zero_biseries,
)
from lineint.series import (
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    antiderive,
    degree_of_unit,
    derive,
    inverse,
    monomial,
    padic_log_one_minus_py,
    series_from_coeffs,
    zero_series,
)

F, GP = RingLabel.FORMAL, RingLabel.GAMMA_PLUS
# A 3-adic value of valuation 1 whose unit has more digits than Python writes.
BIG = PAdic(3, 1, 3**9100 + 1, 9201)


def formal_chain():
    """The framed module with one off-diagonal entry dt over the rationals."""
    z = DifferentialForm(zero_series(F, 0, 4))
    dt = DifferentialForm(series_from_coeffs(F, 0, [1, 0, 0, 0]))
    return FramedNablaModule(Signature((1, 1)),
                             ConnectionMatrix(F, ((z, dt), (z, z))))


def gp(prime, values):
    """The window of values from degree 0 over gamma+ at the prime."""
    return series_from_coeffs(GP, 0, values, prime)


def padic_family():
    """A 2 x 2 family over gamma+ with one entry x du + dx."""
    z = BiForm(zero_biseries(GP, 3, 3, 3), zero_biseries(GP, 3, 3, 3))
    f = BiForm(biseries_from_map(GP, {(0, 1): 1}, 3, 3, 3),
               biseries_from_map(GP, {(0, 0): 1}, 3, 3, 3))
    return FramedFamily(Signature((1, 1)), GP, ((z, f), (z, z)), 3)


REFUSALS = {
    "valuation of 0": (
        lambda: vp_int(0, 3), InvalidInputError, "valuation of 0"),
    "p-adic zero with a unit": (
        lambda: PAdic(3, None, 1, 5), InvalidInputError, "unit 0"),
    "p-adic known to no digit of its unit": (
        lambda: PAdic(3, 5, 1, 5), InvalidInputError, "abs_prec > valuation"),
    "layer recurrence without the constant layer": (
        lambda: fundamental_solution(formal_chain().connection, 0),
        InvalidInputError, "constant layer"),
    "trivialize without the constant term": (
        lambda: trivialize(formal_chain(), 0), InvalidInputError,
        "constant term"),
    "matrix product of sizes 1 and 2": (
        lambda: series_matrix_product(((monomial(F, 1, 0, 2),),),
                                      formal_chain().connection.entries),
        InvalidInputError, "matrix sizes differ"),
    "matrix product of one-forms": (
        lambda: series_matrix_product(formal_chain().connection.entries,
                                      formal_chain().connection.entries),
        InvalidInputError, "expected a TruncatedSeries"),
    "matrix product across rings": (
        lambda: series_matrix_product(((monomial(F, 1, 0, 2),),),
                                      ((monomial(GP, 1, 0, 2, 3),),)),
        InvalidInputError,
        "expected a TruncatedSeries over formal (p=None), got one over "
        "gamma+ (p=3)"),
    "matrix product across primes": (
        lambda: series_matrix_product(((monomial(GP, 1, 0, 2, 5),),),
                                      ((monomial(GP, 1, 0, 2, 3),),)),
        InvalidInputError,
        "expected a TruncatedSeries over gamma+ (p=5), got one over "
        "gamma+ (p=3)"),
    "matrix product of a ragged matrix": (
        lambda: series_matrix_product(
            ((monomial(F, 1, 0, 2),) * 2, (monomial(F, 1, 0, 2),)),
            ((monomial(F, 1, 0, 2),) * 2,) * 2),
        InvalidInputError, "do not form a nonempty"),
    "window end below the ring floor": (
        lambda: parse_series("O(t^-1)"), ParseError, "below the floor"),
    "fiber variable equal to the base": (
        lambda: parse_biseries("1 + O(u^3, x^3)", GP, 3, fiber_var="u"),
        InvalidInputError, "fiber variable must be one of"),
    "marker with another fiber variable": (
        lambda: parse_biseries("1 + O(u^3, x^3)", GP, 3, fiber_var="t"),
        ParseError, "expected the fiber variable 't'"),
    "negative two-variable window": (
        lambda: parse_biseries("O(u^-1, x^3)", GP, 3), ParseError,
        "must not be negative"),
    "substitute a number for x": (
        lambda: substitute_fiber(zero_biseries(GP, 2, 2, 3), 1),
        InvalidInputError, "expected a TruncatedSeries, got 1"),
    "pull back along a number": (
        lambda: section_pullback(padic_family(), 1), InvalidInputError,
        "expected a TruncatedSeries, got 1"),
    "series plus a number": (
        lambda: series_from_coeffs(GP, 0, [1], 3) + 1, InvalidInputError,
        "expected a TruncatedSeries"),
    "one-form plus a number": (
        lambda: DifferentialForm(series_from_coeffs(F, 0, [1])) + 1,
        InvalidInputError, "expected a DifferentialForm, got 1"),
    "one-form of a number": (
        lambda: DifferentialForm(1), InvalidInputError,
        "expected a TruncatedSeries, got 1"),
    "coefficient of more digits than Python writes": (
        lambda: TruncatedSeries(GP, 0, (Fraction(10**5000),), 1, 3),
        InvalidInputError,
        "coefficient at degree 0 is not a value of ring gamma+"),
    "non-integral coefficient of more digits than Python writes": (
        lambda: TruncatedSeries(GP, 0, (PAdic(3, -1, 3**9100 + 1, 9100),),
                                1, 3),
        IntegralityError,
        "coefficient at degree 0 is not integral, required by ring gamma+"),
    # Every other refusal that names a value, given one of more digits than
    # Python writes.
    "series plus a number of more digits than Python writes": (
        lambda: series_from_coeffs(F, 0, [1, 2]) + Fraction(10**5000),
        InvalidInputError,
        "expected a TruncatedSeries, got a value too long to write"),
    "one-form of a number of more digits than Python writes": (
        lambda: DifferentialForm(10**5000), InvalidInputError,
        "expected a TruncatedSeries, got a value too long to write"),
    "p-adic unit of more digits than Python writes": (
        lambda: PAdic(3, 0, 3**9100, 9200), InvalidInputError,
        "unit invalid for relative precision 9200"),
    "gamma inverse of a non-unit of more digits than Python writes": (
        lambda: inverse(TruncatedSeries(RingLabel.GAMMA, 0, (BIG,), 1, 3)),
        NonUnitError,
        "must be a unit of the integer ring, got a value too long to write"),
    "gamma+ inverse of a non-unit of more digits than Python writes": (
        lambda: inverse(TruncatedSeries(GP, 0, (BIG,), 1, 3)), NonUnitError,
        "constant term is not a unit of the integer ring"),
    "degree of unit past a coefficient of more digits than Python writes": (
        lambda: degree_of_unit(TruncatedSeries(
            RingLabel.E, 0, (PAdic(3, -1, 3**9100 + 1, 9199),), 1, 3)),
        NotIntegralError, "coefficient at degree 0 is not integral"),
    "signature part of more digits than Python writes": (
        lambda: Signature((-10**5000,)), InvalidInputError,
        "signature parts must be positive integers, got a value too long "
        "to write"),
    "representative with a constant of more digits than Python writes": (
        lambda: InvariantRepresentative(UnipotentMatrix(
            Signature((1, 1)), F,
            ((monomial(F, 1, 0, 2), monomial(F, 10**5000, 0, 2)),
             (zero_series(F, 0, 2), monomial(F, 1, 0, 2))))),
        InvalidInputError,
        "constant term at (1, 2) is a value too long to write"),
    "two-variable form of a number": (
        lambda: BiForm(1, zero_biseries(F, 2, 2)), InvalidInputError,
        "expected a BiSeries, got 1"),
    "monomial at the window end": (
        lambda: monomial(F, 1, 3, 3), InvalidInputError,
        "not inside window"),
    # Every site where values of one ring and prime meet, given a 5-adic
    # value where a 3-adic one belongs.
    "series + across primes": (
        lambda: gp(3, [1]) + gp(5, [1]), InvalidInputError,
        "expected a TruncatedSeries over gamma+ (p=3), got one over "
        "gamma+ (p=5)"),
    "series * across primes": (
        lambda: gp(3, [1]) * gp(5, [1]), InvalidInputError,
        "expected a TruncatedSeries over gamma+ (p=3), got one over "
        "gamma+ (p=5)"),
    "two-variable + across primes": (
        lambda: zero_biseries(GP, 2, 2, 3) + zero_biseries(GP, 2, 2, 5),
        InvalidInputError,
        "expected a BiSeries over gamma+ (p=3), got one over gamma+ (p=5)"),
    "two-variable form across primes": (
        lambda: BiForm(zero_biseries(GP, 2, 2, 3), zero_biseries(GP, 2, 2, 5)),
        InvalidInputError,
        "expected a BiSeries over gamma+ (p=3), got one over gamma+ (p=5)"),
    "column across primes": (
        lambda: BiSeries(GP, (gp(5, [1, 2]),), 2, 3), InvalidInputError,
        "expected a TruncatedSeries over gamma+ (p=3), got one over "
        "gamma+ (p=5)"),
    "connection entry across primes": (
        lambda: ConnectionMatrix(GP, ((DifferentialForm(gp(5, [1])),),), 3),
        InvalidInputError,
        "expected a DifferentialForm over gamma+ (p=3), got one over "
        "gamma+ (p=5)"),
    "family entry across primes": (
        lambda: FramedFamily(Signature((1,)), GP, ((BiForm(
            zero_biseries(GP, 2, 2, 5), zero_biseries(GP, 2, 2, 5)),),), 3),
        InvalidInputError,
        "expected a BiForm over gamma+ (p=3), got one over gamma+ (p=5)"),
    "substitute across primes": (
        lambda: substitute_fiber(zero_biseries(GP, 2, 2, 3),
                                 gp(5, [0, 1])), InvalidInputError,
        "expected a TruncatedSeries over gamma+ (p=3), got one over "
        "gamma+ (p=5)"),
    "pull back across primes": (
        lambda: section_pullback(padic_family(), gp(5, [1, 1, 0])),
        InvalidInputError,
        "expected a TruncatedSeries over gamma+ (p=3), got one over "
        "gamma+ (p=5)"),
}

PRIME_MISMATCHES = [name for name in REFUSALS if name.endswith("primes")]


@pytest.mark.parametrize("build,error,message", REFUSALS.values(),
                         ids=list(REFUSALS))
def test_refused(build, error, message):
    with pytest.raises(CalculusError) as info:
        build()
    assert type(info.value) is error
    assert message in str(info.value)


@pytest.mark.parametrize("name", PRIME_MISMATCHES)
def test_prime_mismatch_names_both_primes(name):
    with pytest.raises(CalculusError) as info:
        REFUSALS[name][0]()
    assert info.value.code == "invalid-input"
    assert "(p=3)" in str(info.value) and "(p=5)" in str(info.value)


class TestFormAlgebra:
    """+, unary -, - and == act part by part on both kinds of form."""

    def test_biform(self):
        f = total_d(biseries_from_map(GP, {(1, 1): 1, (2, 0): 2}, 3, 3, 3))
        g = BiForm(biseries_from_map(GP, {(0, 2): 1}, 3, 3, 3),
                   biseries_from_map(GP, {(1, 0): 5}, 3, 3, 3))
        s = f + g
        assert s.du_part == f.du_part + g.du_part
        assert s.dx_part == f.dx_part + g.dx_part
        assert s - g == f and -f + f == f - f
        assert (f - f).is_zero and not f.is_zero
        assert (-f).du_part == -f.du_part and (-f).dx_part == -f.dx_part
        assert f != g and f != f.du_part
        assert (s.ring, s.prime) == (GP, 3)

    def test_biform_sum_takes_the_common_window(self):
        f = BiForm(biseries_from_map(GP, {(0, 0): 1}, 3, 3, 3),
                   biseries_from_map(GP, {(0, 0): 1}, 3, 3, 3))
        g = BiForm(zero_biseries(GP, 2, 1, 3), zero_biseries(GP, 2, 1, 3))
        s = f + g
        assert (s.du_part.trunc_u, s.du_part.trunc_x) == (2, 1)
        assert (s.dx_part.trunc_u, s.dx_part.trunc_x) == (2, 1)

    def test_differential_form(self):
        s = series_from_coeffs(F, 0, [1, 2, 3, 4])
        f = derive(s)
        assert f == DifferentialForm(series_from_coeffs(F, 0, [2, 6, 12]))
        assert f != derive(s.scale(2)) and f != f.series
        assert f - f == DifferentialForm(zero_series(F, 0, 3))
        assert (-f).series == -f.series and (f + f).series == f.series.scale(2)


def test_obstruction_payload_of_a_residue_too_long_to_write():
    form = DifferentialForm(TruncatedSeries(RingLabel.GAMMA, -1, (BIG,), 0, 3))
    with pytest.raises(IntegralObstructionError) as info:
        antiderive(form, RingLabel.ROBBA)
    payload = info.value.payload()
    assert payload == {"error": "integral-obstruction",
                       "message": str(info.value), "residue": None}
    assert json.loads(json.dumps(payload)) == payload


def test_padic_with_an_operand_it_does_not_know():
    x = PAdic.one(3, 5)
    for op in (lambda: x + "1", lambda: x - "1", lambda: "1" - x,
               lambda: x + True, lambda: True + x, lambda: x - True,
               lambda: x * True, lambda: x / True):
        with pytest.raises(TypeError):
            op()
    assert x != "1" and x != True  # noqa: E712
    for value in ("1/3", 0.5, True, None):
        with pytest.raises(InvalidInputError, match="an int or a Fraction"):
            PAdic.from_rational(value, 3, 5)


def test_identity_needs_the_constant_term_in_the_window():
    late = monomial(F, 1, 1, 3)
    assert not is_identity_series_matrix(((late,),))
    with pytest.raises(InvalidInputError, match="not the constant 1"):
        UnipotentMatrix(Signature((1,)), F, ((late,),))


class TestSquareMatrices:
    def test_entry_and_size(self):
        module = formal_chain()
        v = trivialize(module, 4)
        conn = module.connection
        family = padic_family()
        for m in (conn, v, family):
            assert m.size == 2
            assert m.entry(0, 1) is m.entries[0][1]
        assert v.entry(0, 1).coefficient(1) == 1


def test_biseries_repr():
    assert repr(zero_biseries(GP, 1, 1, 3)).startswith(
        "BiSeries(gamma+, (1, 1), (TruncatedSeries(gamma+, [0, 1), ")


def test_log_of_an_empty_window_is_itself():
    y = zero_series(GP, 2, 2, 3)
    assert padic_log_one_minus_py(y) is y
