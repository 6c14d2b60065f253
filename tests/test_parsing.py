"""Grammar, printer, and document-format tests."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lineint.coeff import PAdic
from lineint.errors import (
    InsufficientWindowError,
    InvalidInputError,
    IntegralityError,
    NotFramedError,
    ParseError,
)
from lineint.nabla import Signature, trivialize
from lineint.parsing import (
    document_precision,
    dump_series_matrix,
    load_connection,
    load_connection_matrix,
    load_family,
    parse_biseries,
    parse_rational_terms,
    parse_series,
    parse_series_matrix,
    print_biseries,
    print_series,
    rational_residue,
    structured_biseries,
    structured_series,
)
from lineint.scheme import biseries_from_map, curvature
from lineint.series import (
    RingLabel,
    formal_log,
    padic_log_dagger,
    series_from_coeffs,
    zero_series,
)

F = RingLabel.FORMAL
E = RingLabel.E
GP = RingLabel.GAMMA_PLUS


# Every way the grammar refuses one-variable text: the text, the message and
# the position of the token it points at (whitespace skipped).
REJECTED = [
    ("", "empty input", 0),
    ("   ", "empty input", 0),
    ("1 # t + O(t^2)", "unexpected character '#'", 2),
    ("q + O(t^2)", "unknown symbol 'q'", 0),
    ("tO + O(t^2)", "unknown symbol 'tO'", 0),
    ("Ox + O(t^2)", "unknown symbol 'Ox'", 0),
    ("1/0 + O(t^2)", "zero denominator", 2),
    ("1/ + O(t^2)", "expected a denominator", 3),
    ("1/t + O(t^2)", "expected a denominator", 2),
    ("+ t + O(t^2)", "expected a term", 0),
    ("1 + + t + O(t^2)", "expected a term", 4),
    ("*t + O(t^2)", "expected a term", 0),
    ("1 +", "expected a term", 3),
    ("-", "expected a term", 1),
    ("t ^ + O(t^2)", "expected an integer exponent", 4),
    ("t^-x + O(t^2)", "expected an integer exponent", 3),
    ("3* + O(t^2)", "expected a variable after '*'", 1),
    ("t*O(t^2)", "expected a variable after '*'", 1),
    ("1 - t", "missing O(...) marker", 5),
    ("t O(t^2)", "expected '+', '-' or the O(...) marker", 2),
    ("3^2 + O(t^3)", "expected '+', '-' or the O(...) marker", 1),
    ("t^2^3 + O(t^9)", "expected '+', '-' or the O(...) marker", 3),
    ("- O(t^2)", "the O(...) marker follows '+', not '-'", 2),
    ("1 - O(t^2)", "the O(...) marker follows '+', not '-'", 4),
    ("1 + O t^2)", "expected '('", 6),
    ("1 + O", "expected '('", 5),
    ("O + t", "expected '('", 2),
    ("O()", "expected a variable in the O(...) marker", 2),
    ("O(t^2,)", "expected a variable in the O(...) marker", 6),
    ("O(q^2)", "unknown symbol 'q'", 2),
    ("O(t)", "expected '^'", 3),
    ("O(t^)", "expected an integer window end", 4),
    ("O(t^-)", "expected an integer window end", 5),
    ("O(t^2", "expected ')'", 5),
    ("O(t^2 u^3)", "expected ')'", 6),
    ("O(t^1, u^2, x^3)", "the O(...) marker takes at most two variables", 0),
    ("1 + O(t^1,u^2,x^3) junk",
     "the O(...) marker takes at most two variables", 4),
    ("1 + O(t^2) + 1", "unexpected input after the O(...) marker", 11),
    ("1 + O(t^2) junk", "unexpected input after the O(...) marker", 11),
    ("1 + O(t^2)   junk", "unexpected input after the O(...) marker", 13),
    ("1 + O(t^2)O", "unexpected input after the O(...) marker", 10),
    ("t + O(t^2, x^3)",
     "a one-variable series takes a one-variable marker", 6),
    ("x + O(t^3)", "variable 'x' does not belong in a series in 't'", 0),
    # Python converts at most 4,300 digits of text to an integer.
    ("1" * 4400 + " + O(t^2)", "number literal longer than 4300 digits", 0),
    ("1/" + "3" * 4400 + " + O(t^2)",
     "number literal longer than 4300 digits", 2),
    ("t^" + "2" * 4400 + " + O(t^2)",
     "number literal longer than 4300 digits", 2),
    ("O(t^" + "9" * 4400 + ")", "number literal longer than 4300 digits", 4),
]


def case_id(text: str) -> str:
    """The text itself, or a short name for a text of more than 40
    characters."""
    return text if len(text) <= 40 else f"{text[:4]}...({len(text)} chars)"


class TestGrammar:
    def test_basic_window(self):
        s = parse_series("1 - t + 3*t^2 + O(t^5)")
        assert s.min_degree == 0
        assert s.trunc_order == 5
        assert s.coeffs == (1, -1, 3, 0, 0)

    def test_laurent_lowest_degree(self):
        s = parse_series("u^-1 + 1 + O(u^2)", E, prime=2, abs_prec=10)
        assert s.min_degree == -1
        assert s.trunc_order == 2
        assert s.coefficient(-1) == PAdic.one(2, 10)

    def test_like_terms_merge(self):
        s = parse_series("t + t + O(t^3)")
        assert s.coefficient(1) == 2
        assert print_series(s) == "2*t + O(t^3)"

    def test_star_is_optional(self):
        assert parse_series("3t^2 + O(t^4)") == parse_series("3*t^2 + O(t^4)")

    def test_repeated_factors_multiply(self):
        s = parse_series("2*t*t + O(t^4)")
        assert s.coefficient(2) == 2

    def test_constant_term_only(self):
        s = parse_series("5/3 + O(t^2)")
        assert s.coefficient(0) == Fraction(5, 3)

    def test_bare_marker_is_zero(self):
        s = parse_series("O(t^4)")
        assert s.is_zero and s.min_degree == 0 and s.trunc_order == 4

    def test_explicit_zero(self):
        assert parse_series("0 + O(t^5)").is_zero

    def test_leading_minus(self):
        assert parse_series("-t + O(t^2)").coefficient(1) == -1

    def test_unwritten_degrees_are_zero(self):
        s = parse_series("t^2 + O(t^5)")
        assert s.min_degree == 0
        assert s.coefficient(0) == 0 and s.coefficient(4) == 0

    def test_laurent_with_no_pole_floors_at_zero(self):
        s = parse_series("u^2 + O(u^5)", E, prime=3)
        assert s.min_degree == 0

    def test_variable_must_match_ring(self):
        with pytest.raises(ParseError):
            parse_series("u + O(u^3)")
        with pytest.raises(ParseError):
            parse_series("t + O(t^3)", GP, prime=2)

    def test_negative_exponent_needs_poles(self):
        with pytest.raises(ParseError):
            parse_series("t^-1 + O(t^3)")
        with pytest.raises(ParseError):
            parse_series("u^-1 + O(u^3)", GP, prime=2)

    def test_prime_goes_with_padic_rings(self):
        with pytest.raises(InvalidInputError):
            parse_series("u + O(u^3)", GP)
        with pytest.raises(InvalidInputError):
            parse_series("t + O(t^3)", F, prime=2)

    def test_term_must_sit_below_window_end(self):
        with pytest.raises(ParseError):
            parse_series("t^5 + O(t^5)")

    def test_marker_is_mandatory(self):
        with pytest.raises(ParseError) as exc:
            parse_series("1 - t")
        assert "marker" in str(exc.value)

    def test_syntax_errors_carry_columns(self):
        with pytest.raises(ParseError) as exc:
            parse_series("1 + + t + O(t^2)")
        assert exc.value.position == 4
        assert "column 5" in str(exc.value)

    @pytest.mark.parametrize("bad,message,position", REJECTED,
                             ids=[case_id(row[0]) for row in REJECTED])
    def test_rejected_text(self, bad, message, position):
        with pytest.raises(ParseError) as exc:
            parse_series(bad)
        assert str(exc.value) == f"{message} (at column {position + 1})"
        assert exc.value.position == position

    def test_precision_bound(self):
        # abs_prec * log2(p) <= 4096: 2584 * log2(3) is about 4095.6.
        assert parse_series("1 + O(u^2)", GP, prime=3,
                            abs_prec=2584).coefficient(0).abs_prec == 2584
        with pytest.raises(InvalidInputError):
            parse_series("1 + O(u^2)", GP, prime=3, abs_prec=2585)
        with pytest.raises(InvalidInputError):
            parse_biseries("1 + O(u^2, x^2)", GP, prime=2, abs_prec=4097)

    def test_integrality_enforced_on_materialize(self):
        with pytest.raises(IntegralityError):
            parse_series("1/2 + O(u^3)", GP, prime=2)


class TestPrinter:
    def test_golden_log_text(self):
        s = series_from_coeffs(F, 0, [1, -1, 0, 0, 0])
        assert print_series(formal_log(s)) == \
            "-t - 1/2*t^2 - 1/3*t^3 - 1/4*t^4 + O(t^5)"

    def test_unit_coefficients_elide(self):
        s = series_from_coeffs(F, 0, [0, 1, -1])
        assert print_series(s) == "t - t^2 + O(t^3)"

    def test_constant_and_fraction(self):
        s = series_from_coeffs(F, 0, [Fraction(-3, 2), Fraction(7)])
        assert print_series(s) == "-3/2 + 7*t + O(t^2)"

    def test_zero_series(self):
        assert print_series(zero_series(F, 0, 5)) == "0 + O(t^5)"

    def test_padic_prints_exact_rationals(self):
        s = series_from_coeffs(E, -1, [1, Fraction(-1, 2)], prime=2,
                               abs_prec=8)
        # -1/2 known mod 2^8 has unit -1 mod 2^9 = 511
        assert print_series(s) == "u^-1 + 511/2 + O(u^1)"

    def test_empty_window_prints_bare_marker(self):
        s = zero_series(E, -1, -1, prime=2)
        text = print_series(s)
        assert text == "O(u^-1)"
        back = parse_series(text, E, prime=2)
        assert print_series(back) == text

    def test_skips_vanishing_coefficients(self):
        s = series_from_coeffs(F, 0, [0, 2, 0, 0, 5])
        assert print_series(s) == "2*t + 5*t^4 + O(t^5)"


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@st.composite
def formal_series(draw):
    lo = 0
    vals = draw(st.lists(rationals, min_size=1, max_size=8))
    return series_from_coeffs(F, lo, vals)


@st.composite
def laurent_series(draw, prime=5):
    lo = draw(st.integers(min_value=-4, max_value=0))
    vals = draw(st.lists(rationals, min_size=1, max_size=8))
    return series_from_coeffs(E, lo, vals, prime=prime, abs_prec=12)


class TestRoundTrip:
    @given(formal_series())
    @settings(max_examples=120)
    def test_formal_text_is_stable(self, s):
        text = print_series(s)
        back = parse_series(text)
        assert print_series(back) == text
        assert back.agrees_with(s)

    @given(laurent_series())
    @settings(max_examples=120)
    def test_laurent_text_is_stable(self, s):
        text = print_series(s)
        back = parse_series(text, E, prime=5, abs_prec=12)
        assert print_series(back) == text
        # value agreement is checkable only where the windows overlap;
        # an all-zero window can print as a bare marker above its floor
        if max(back.min_degree, s.min_degree) < s.trunc_order:
            assert back.agrees_with(s)

    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_two_variable_text_is_stable(self, data):
        # Window ends from 0 on, so empty windows are drawn too.
        ring = data.draw(st.sampled_from((F, GP)))
        prime = 3 if ring.padic else None
        tu, tx = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        values = st.fractions(max_denominator=5) if ring is F \
            else st.integers(-30, 30)
        cells = data.draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), values,
            max_size=6))
        b = biseries_from_map(ring, {(i, j): v for (i, j), v in cells.items()
                                     if i < tu and j < tx},
                              tu, tx, prime, abs_prec=6)
        text = print_biseries(b)
        assert print_biseries(parse_biseries(text, ring, prime, 6)) == text


class TestStructured:
    def test_formal_fields(self):
        doc = structured_series(parse_series("1 - t + O(t^3)"))
        assert doc == {"window": [0, 3], "coeffs": ["1", "-1", "0"],
                       "ring": "formal", "p": None}

    def test_padic_carries_profile(self):
        s = series_from_coeffs(GP, 0, [1, 2, 4], prime=2, abs_prec=6)
        doc = structured_series(s)
        assert doc["ring"] == "gamma+"
        assert doc["p"] == 2
        assert doc["profile"] == [[0, 0], [1, 1], [2, 2]]
        assert doc["coeffs"][1] == "2^1*1 (mod 2^6)"


class TestBiGrammar:
    def test_round_trip(self):
        text = "1 - x + t*x + 2*t^2 + O(t^3, x^3)"
        b = parse_biseries(text, F)
        assert print_biseries(b) == text
        assert b.coefficient(1, 1) == 1

    def test_zero_window(self):
        b = parse_biseries("0 + O(t^2, x^4)", F)
        assert b.is_zero and b.trunc_u == 2 and b.trunc_x == 4

    def test_padic(self):
        b = parse_biseries("3 + u*x^2 + O(u^4, x^4)", GP, prime=3,
                           abs_prec=6)
        assert b.coefficient(1, 2) == PAdic.one(3, 6)

    def test_single_marker_rejected(self):
        with pytest.raises(ParseError):
            parse_biseries("1 + O(u^3)", GP, prime=2)

    @pytest.mark.parametrize("bad,message,position", [
        ("1 + O(u^3)", "a two-variable window takes O(u^A, x^B)", 6),
        ("u + O(u^2, x^2, t^1)",
         "the O(...) marker takes at most two variables", 4),
    ])
    def test_marker_refusals(self, bad, message, position):
        with pytest.raises(ParseError) as exc:
            parse_biseries(bad, GP, prime=2)
        assert str(exc.value) == f"{message} (at column {position + 1})"
        assert exc.value.position == position

    def test_wrong_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_biseries("t + O(u^3, x^3)", GP, prime=2)
        with pytest.raises(ParseError):
            parse_biseries("u + O(t^3, x^3)", GP, prime=2)

    def test_negative_degrees_rejected(self):
        with pytest.raises(ParseError):
            parse_biseries("x^-1 + O(u^3, x^3)", GP, prime=2)

    def test_term_outside_window_rejected(self):
        with pytest.raises(ParseError):
            parse_biseries("u^3 + O(u^3, x^3)", GP, prime=2)

    def test_structured_fields(self):
        b = parse_biseries("t + O(t^2, x^2)", F)
        doc = structured_biseries(b)
        assert doc["trunc"] == [2, 2]
        assert doc["coeffs"] == [["0", "0"], ["1", "0"]]


class TestResidueReadOff:
    def test_reads_degree_minus_one(self):
        assert rational_residue("u^-1 + O(u^2)") == 1
        assert rational_residue("3/2*u^-1 - u + O(u^4)") == Fraction(3, 2)

    def test_defaults_to_zero(self):
        assert rational_residue("3 + u + O(u^4)") == 0

    def test_any_variable_is_accepted(self):
        assert rational_residue("t^-1 + O(t^2)") == 1

    def test_window_must_reach_degree_minus_one(self):
        with pytest.raises(InsufficientWindowError):
            rational_residue("u^-3 + O(u^-1)")

    def test_merges_like_terms(self):
        acc, var, trunc = parse_rational_terms("u^-1 + 2*u^-1 + O(u^2)")
        assert acc[-1] == 3 and var == "u" and trunc == 2


GOLDEN_CONNECTION = {
    "signature": [1, 1],
    "ring": "formal",
    "trunc": 5,
    "connection": [["0", "-1 - t - t^2 - t^3 + O(t^4)"], ["0", "0"]],
}


class TestConnectionDocuments:
    def test_load_golden(self):
        module, trunc = load_connection(GOLDEN_CONNECTION)
        assert trunc == 5
        assert module.signature.parts == (1, 1)
        assert module.connection.entry(0, 1).series.coefficient(2) == -1

    def test_zero_cells_take_the_stated_window(self):
        module, trunc = load_connection(GOLDEN_CONNECTION)
        z = module.connection.entry(1, 0).series
        assert z.is_zero and z.trunc_order == 5

    def test_signature_optional_for_plain_matrix(self):
        doc = {"ring": "formal", "trunc": 4,
               "connection": [["1 + O(t^3)"]]}
        matrix, sig, trunc = load_connection_matrix(doc)
        assert sig is None and trunc == 4 and matrix.size == 1

    def test_framed_load_requires_signature(self):
        doc = {"ring": "formal", "trunc": 4,
               "connection": [["1 + O(t^3)"]]}
        with pytest.raises(ParseError):
            load_connection(doc)

    def test_lower_entries_rejected(self):
        doc = dict(GOLDEN_CONNECTION)
        doc["connection"] = [["0", "0"], ["1 + O(t^4)", "0"]]
        with pytest.raises(NotFramedError):
            load_connection(doc)

    @pytest.mark.parametrize("mangle", [
        lambda d: d.pop("ring"),
        lambda d: d.pop("trunc"),
        lambda d: d.pop("connection"),
        lambda d: d.update(ring="fancy"),
        lambda d: d.update(trunc=0),
        lambda d: d.update(p=2),
        lambda d: d.update(connection=[["0"]]),
        lambda d: d.update(connection=[["0", 7], ["0", "0"]]),
        lambda d: d.update(signature="wide"),
    ])
    def test_malformed_documents(self, mangle):
        doc = json.loads(json.dumps(GOLDEN_CONNECTION))
        mangle(doc)
        with pytest.raises(ParseError):
            load_connection(doc)

    def test_padic_document_needs_prime(self):
        doc = json.loads(json.dumps(GOLDEN_CONNECTION))
        doc["ring"] = "gamma+"
        doc["connection"] = [["0", "1 + u + O(u^4)"], ["0", "0"]]
        with pytest.raises(ParseError):
            load_connection(doc)
        doc["p"] = 2
        module, _ = load_connection(doc)
        assert module.connection.prime == 2

    def test_document_precision(self):
        assert document_precision({"abs_prec": 7}) == 7
        assert document_precision({}) == 20
        with pytest.raises(ParseError):
            document_precision({"abs_prec": 0})


class TestMatrixDocuments:
    def test_formal_round_trip_is_byte_identical(self):
        module, trunc = load_connection(GOLDEN_CONNECTION)
        v = trivialize(module, trunc)
        doc = dump_series_matrix(v.entries, v.signature)
        first = json.dumps(doc, sort_keys=True)
        entries, ring, prime, sig = parse_series_matrix(doc)
        second = json.dumps(dump_series_matrix(entries, sig),
                            sort_keys=True)
        assert first == second

    def test_padic_round_trip_is_byte_identical(self):
        doc_in = {
            "signature": [1, 1], "ring": "gamma+", "p": 2, "abs_prec": 12,
            "trunc": 9,
            "connection": [
                ["0", "-1 - u - u^2 - u^3 - u^4 - u^5 - u^6 - u^7 + O(u^8)"],
                ["0", "0"]],
        }
        from lineint.nabla import invariant
        module, trunc = load_connection(doc_in)
        rep = invariant(module, trunc)
        doc = dump_series_matrix(rep.matrix.entries, rep.matrix.signature)
        first = json.dumps(doc, sort_keys=True)
        entries, ring, prime, sig = parse_series_matrix(doc)
        assert ring is RingLabel.ROBBA_PLUS and prime == 2
        second = json.dumps(dump_series_matrix(entries, sig),
                            sort_keys=True)
        assert first == second

    @pytest.mark.parametrize("abs_prec", [0, -1])
    def test_precision_below_one_refused(self, abs_prec):
        doc = {"ring": "gamma+", "p": 3, "abs_prec": abs_prec,
               "entries": [["1 + u + O(u^3)"]]}
        with pytest.raises(ParseError, match="at least 1"):
            parse_series_matrix(doc)

    def test_dump_records_the_largest_precision(self):
        a = series_from_coeffs(GP, 0, [1], prime=2, abs_prec=9)
        b = series_from_coeffs(GP, 0, [1], prime=2, abs_prec=14)
        doc = dump_series_matrix(((a, b), (b, a)))
        assert doc["abs_prec"] == 14



def assert_no_precision_gained(before, after):
    assert after.trunc_order == before.trunc_order
    for d in range(before.min_degree, before.trunc_order):
        a, b = before.coefficient(d), after.coefficient(d)
        assert b.abs_prec <= a.abs_prec, f"degree {d}: {a} re-read as {b}"


INFLATION = ("text states no per-coefficient precision, so a re-read "
             "coefficient claims the document's abs_prec (ROADMAP item 3)")


class TestRereadPrecision:
    """Re-parsed abs_prec never exceeds the original.

    Both tests fail today; when the text form gains a precision mark they
    pass, and strict xfail makes that change remove the marks."""

    @pytest.mark.xfail(strict=True, reason=INFLATION)
    @given(st.sampled_from([2, 3, 5]),
           st.lists(st.integers(1, 12), min_size=4, max_size=4),
           st.lists(st.integers(0, 50), min_size=4, max_size=4))
    @example(3, [4, 9, 4, 9], [1, 1, 1, 1])
    @settings(max_examples=30, deadline=None)
    def test_matrix_document(self, p, precs, values):
        cells = [series_from_coeffs(GP, 0, [v, 1], prime=p, abs_prec=n)
                 for v, n in zip(values, precs)]
        entries = ((cells[0], cells[1]), (cells[2], cells[3]))
        back, _, _, _ = parse_series_matrix(dump_series_matrix(entries))
        for row, back_row in zip(entries, back):
            for s, b in zip(row, back_row):
                assert_no_precision_gained(s, b)

    @pytest.mark.xfail(strict=True, reason=INFLATION)
    @given(st.sampled_from([2, 3]), st.integers(4, 10), st.integers(5, 12),
           st.lists(st.integers(0, 20), min_size=9, max_size=9))
    @example(2, 9, 12, [1, 2**12 - 1] + [0] * 7)
    @settings(max_examples=30, deadline=None)
    def test_plog_text(self, p, trunc, abs_prec, values):
        v = series_from_coeffs(GP, 0, [1] + values[:trunc - 1], prime=p,
                               abs_prec=abs_prec)
        log = padic_log_dagger(v)
        back = parse_series(print_series(log), RingLabel.ROBBA_PLUS, p,
                            abs_prec)
        assert_no_precision_gained(log, back)

GOLDEN_FAMILY = {
    "signature": [1, 1],
    "ring": "formal",
    "trunc": 6,
    "connection": [
        ["0", {"du": "0",
               "dx": "1 - x + x^2 - x^3 + x^4 - x^5 + O(t^6, x^6)"}],
        ["0", "0"],
    ],
}


class TestFamilyDocuments:
    def test_load_golden(self):
        family, trunc, trunc_x, fiber_var = load_family(GOLDEN_FAMILY)
        assert (trunc, trunc_x, fiber_var) == (6, 6, "x")
        assert family.entries[0][1].dx_part.coefficient(0, 1) == -1
        assert family.entries[0][1].du_part.is_zero

    def test_flat_golden(self):
        family, *_ = load_family(GOLDEN_FAMILY)
        assert all(b.is_zero for row in curvature(family) for b in row)

    def test_zero_cell_and_partial_entry(self):
        doc = json.loads(json.dumps(GOLDEN_FAMILY))
        doc["connection"][0][1] = {"dx": "x + O(t^6, x^6)"}
        family, *_ = load_family(doc)
        assert family.entries[0][1].du_part.is_zero

    def test_trunc_x_defaults_to_trunc(self):
        doc = json.loads(json.dumps(GOLDEN_FAMILY))
        doc["trunc_x"] = 3
        doc["connection"][0][1]["dx"] = "1 - x + O(t^6, x^3)"
        family, trunc, trunc_x, _ = load_family(doc)
        assert (trunc, trunc_x) == (6, 3)

    def test_unknown_entry_keys_rejected(self):
        doc = json.loads(json.dumps(GOLDEN_FAMILY))
        doc["connection"][0][1] = {"dy": "x + O(t^6, x^6)"}
        with pytest.raises(ParseError):
            load_family(doc)

    def test_fiber_var_must_differ_from_base(self):
        doc = json.loads(json.dumps(GOLDEN_FAMILY))
        doc["fiber_var"] = "t"
        with pytest.raises(ParseError):
            load_family(doc)

    def test_lower_entries_rejected(self):
        doc = json.loads(json.dumps(GOLDEN_FAMILY))
        doc["connection"] = [["0", "0"],
                             [{"du": "1 + O(t^6, x^6)"}, "0"]]
        with pytest.raises(NotFramedError):
            load_family(doc)
