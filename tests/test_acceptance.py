"""Acceptance gate: thirteen criteria, one test and one report line each.

Run with `pytest -v tests/test_acceptance.py`; each criterion also prints
an explicit "ACCEPTANCE criterion-NN PASS/FAIL" line (visible with -s).
All randomness is seeded, so the gate is deterministic.
"""

import contextlib
import functools
import io
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from lineint.cli import main as cli_main
from lineint.coeff import PAdic
from lineint.errors import (
    CannotDetermineDegreeError,
    DisjointWindowsError,
    IntegralObstructionError,
    NotIntegralError,
)
from lineint.nabla import (
    ConnectionMatrix,
    FramedNablaModule,
    Signature,
    horizontal_basis,
    is_identity_series_matrix,
    matrix_residual,
    series_matrix_product,
    trivialize,
)
from lineint.parsing import (
    dump_series_matrix,
    parse_biseries,
    parse_series,
    parse_series_matrix,
    print_biseries,
    print_series,
)
from lineint.scheme import (
    BiForm,
    FramedFamily,
    biseries_from_map,
    curvature,
    line_integral,
    zero_biseries,
)
from lineint.series import (
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    antiderive,
    degree_of_unit,
    derive,
    dlog,
    formal_log,
    padic_log_dagger,
    padic_log_one_minus_py,
    residue,
    series_from_coeffs,
    unboundedness_witness,
    valuation_profile,
    zero_series,
)

F = RingLabel.FORMAL
E = RingLabel.E
GP = RingLabel.GAMMA_PLUS
G = RingLabel.GAMMA
RP = RingLabel.ROBBA_PLUS
R = RingLabel.ROBBA


def criterion(n):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE criterion-{n:02d} FAIL")
                raise
            print(f"ACCEPTANCE criterion-{n:02d} PASS")
        return run
    return wrap


# -- helpers ---------------------------------------------------------------


def form_over(ring, min_degree, values, prime=None, abs_prec=12):
    return DifferentialForm(series_from_coeffs(ring, min_degree, values,
                                               prime, abs_prec))


def sparse_rationals(rng, length, nonzero=8, hi=6):
    vals = [Fraction(0)] * length
    for _ in range(nonzero):
        i = rng.randrange(length)
        vals[i] = Fraction(rng.randint(-hi, hi), rng.randint(1, 4))
    return vals


def run_cli(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def geometric_family(ring, tu, tx, prime=None, abs_prec=12):
    """One superdiagonal entry, dx-part 1 - x + x^2 - ... (= 1/(1+x))."""
    alternating = biseries_from_map(
        ring, {(0, j): Fraction((-1) ** j) for j in range(tx)},
        tu, tx, prime, abs_prec)
    zero = zero_biseries(ring, tu, tx, prime, abs_prec)
    z = BiForm(zero, zero)
    top = BiForm(zero, alternating)
    return FramedFamily(Signature((1, 1)), ring,
                        ((z, top), (z, z)), prime)


# -- criteria ---------------------------------------------------------------


@criterion(1)
def test_criterion_01_formal_log_golden():
    one_minus_t = series_from_coeffs(F, 0, [1, -1] + [0] * 62)
    out = formal_log(one_minus_t)
    assert (out.min_degree, out.trunc_order) == (0, 64)
    assert out.coefficient(0) == 0
    for n in range(1, 64):
        assert out.coefficient(n) == Fraction(-1, n)


@criterion(2)
def test_criterion_02_log_homomorphism():
    rng = random.Random(2026_02)
    T = 32

    def random_unit():
        vals = sparse_rationals(rng, T)
        while vals[0] == 0:
            vals[0] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return series_from_coeffs(F, 0, vals)

    for _ in range(200):
        a, b = random_unit(), random_unit()
        left = formal_log(a * b)
        right = formal_log(a) + formal_log(b)
        assert left.min_degree == right.min_degree
        assert left.trunc_order == right.trunc_order == T
        assert left.coeffs == right.coeffs
    constant = series_from_coeffs(F, 0, [Fraction(7, 3)] + [0] * (T - 1))
    assert formal_log(constant).is_zero


@criterion(3)
def test_criterion_03_residue_degree_diagram():
    rng = random.Random(2026_03)

    def coprime(p, lo=1, hi=9):
        n = rng.randint(lo, hi)
        while n % p == 0:
            n = rng.randint(lo, hi)
        return n

    checked = 0
    for p in (2, 3, 5):
        for _ in range(34):
            if checked == 100:
                break
            m = rng.randint(-8, 7)
            length = 24 - m
            vals = [Fraction(0)] * length
            vals[0] = Fraction(rng.choice([-1, 1]) * coprime(p), coprime(p))
            for _ in range(6):
                i = rng.randrange(1, length)
                vals[i] = Fraction(rng.randint(-9, 9), coprime(p))
            x = series_from_coeffs(E, m, vals, prime=p, abs_prec=14)
            assert degree_of_unit(x) == m
            res = residue(dlog(x))
            assert res == PAdic.from_rational(Fraction(m), p, res.abs_prec)
            checked += 1
    assert checked == 100


@criterion(4)
def test_criterion_04_exactness():
    rng = random.Random(2026_04)
    for k in range(100):
        p = (2, 3, 5)[k % 3]
        lo = rng.randint(-6, 0)
        trunc = rng.randint(1, 10)  # window spans degree -1
        vals = [Fraction(rng.randint(-20, 20)) for _ in range(trunc - lo)]
        s = series_from_coeffs(E, lo, vals, prime=p, abs_prec=12)
        ds = derive(s)
        assert residue(ds).is_zero
        back = antiderive(ds, R)
        assert back.agrees_with(s.without_constant_term().relabeled(R))


@criterion(5)
def test_criterion_05_obstruction_sweep():
    for p in (2, 3):
        choices = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, p))
        hits = 0
        for combo in itertools.product(choices, repeat=7):
            f = form_over(E, -3, list(combo), prime=p, abs_prec=8)
            c = combo[2]  # degree -1 coefficient
            if c == 0:
                out = antiderive(f, R)
                assert out.coefficient(0) == 0
            else:
                with pytest.raises(IntegralObstructionError) as exc:
                    antiderive(f, R)
                assert exc.value.residue == PAdic.from_rational(c, p, 8)
                hits += 1
        assert hits == 3 * 4 ** 6


@criterion(6)
def test_criterion_06_valuation_pattern():
    for p in (2, 3, 5):
        T = p ** 3 + 1
        v = series_from_coeffs(GP, 0, [1, -1] + [0] * (T - 2),
                               prime=p, abs_prec=12)
        log = padic_log_dagger(v)
        for i in (1, 2, 3):
            assert log.coefficient(p ** i).valuation == -i
        assert unboundedness_witness(log, 1)


@criterion(7)
def test_criterion_07_log_integrality():
    rng = random.Random(2026_07)
    for k in range(50):
        p = (2, 3)[k % 2]
        if k % 4 < 2:
            ring, lo = GP, 0
        else:
            ring, lo = G, -3
        vals = [Fraction(rng.randint(-50, 50)) for _ in range(16 - lo)]
        y = series_from_coeffs(ring, lo, vals, prime=p, abs_prec=12)
        z = padic_log_one_minus_py(y)
        assert z.ring.integral
        for c in z.coeffs:
            assert c.valuation_floor >= 0


@criterion(8)
def test_criterion_08_recurrence_vs_integration():
    rng = random.Random(2026_08)
    T = 24
    signatures = (Signature((1, 1)), Signature((2, 1)),
                  Signature((1, 1, 1)))

    def random_form():
        return form_over(F, 0, sparse_rationals(rng, T, nonzero=5, hi=4))

    zero = DifferentialForm(zero_series(F, 0, T))
    for k in range(50):
        sig = signatures[k % 3]
        r = sig.total
        entries = [[zero] * r for _ in range(r)]
        for a in range(r):
            for b in range(r):
                if sig.block_of(a) < sig.block_of(b):
                    entries[a][b] = random_form()
        module = FramedNablaModule(
            sig, ConnectionMatrix(F, tuple(tuple(row) for row in entries)))
        v = trivialize(module, T)
        s = horizontal_basis(module, T)
        assert is_identity_series_matrix(
            series_matrix_product(v.entries, s))
        assert matrix_residual(module, v)


@criterion(9)
def test_criterion_09_formal_chain_golden():
    family = geometric_family(F, 16, 16)
    section = series_from_coeffs(F, 0, [1, -1] + [0] * 14)
    rep = line_integral(family, section)
    v12 = rep.matrix.entries[0][1]
    assert v12.trunc_order == 16
    for k in range(1, 16):
        assert v12.coefficient(k) == Fraction(-1, k)
    assert v12.agrees_with(formal_log(section))


@criterion(10)
def test_criterion_10_padic_chain_golden():
    family = geometric_family(GP, 9, 9, prime=2, abs_prec=12)
    section = series_from_coeffs(GP, 0, [1, -1] + [0] * 7, prime=2,
                                 abs_prec=12)
    rep = line_integral(family, section)
    v12 = rep.matrix.entries[0][1]
    log = padic_log_dagger(section)
    assert v12.trunc_order == log.trunc_order == 9
    for k in range(1, 9):
        a, b = v12.coefficient(k), log.coefficient(k)
        assert a == b
        assert a.abs_prec == b.abs_prec
    profile = valuation_profile(v12)
    for pair in ((2, -1), (4, -2), (8, -3)):
        assert pair in profile


@criterion(11)
def test_criterion_11_iterated_integral_shape():
    p, prec, T = 2, 12, 8

    def constant_form(vals):
        return form_over(RP, 0, vals + [0] * (T - len(vals)),
                         prime=p, abs_prec=prec)

    def chain_module(c12_vals, c23_vals):
        z = DifferentialForm(zero_series(RP, 0, T, p, prec))
        c12 = constant_form(c12_vals)
        c23 = constant_form(c23_vals)
        conn = ConnectionMatrix(RP, ((z, c12, z), (z, z, c23), (z, z, z)),
                                prime=p)
        return FramedNablaModule(Signature((1, 1, 1)), conn)

    def oracle_v13(c12_vals, c23_vals):
        """Brute force: integrate termwise, multiply, integrate again."""
        def integ(poly):
            return [Fraction(0)] + [c / (i + 1)
                                    for i, c in enumerate(poly)]

        def pmul(a, b):
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return out

        v12 = integ([Fraction(v) for v in c12_vals])
        return integ(pmul(v12, [Fraction(v) for v in c23_vals]))

    def check(c12_vals, c23_vals):
        v = trivialize(chain_module(c12_vals, c23_vals), T)
        v13 = v.entries[0][2]
        expected = oracle_v13(c12_vals, c23_vals)
        for d in range(v13.min_degree, v13.trunc_order):
            want = expected[d] if d < len(expected) else Fraction(0)
            assert v13.coefficient(d) == PAdic.from_rational(want, p, prec)
        return v13

    v13 = check([1], [1])
    assert v13.coefficient(2) == PAdic.from_rational(Fraction(1, 2), p, prec)
    assert all(v13.coefficient(d).is_zero
               for d in range(v13.min_degree, T) if d != 2)

    v13 = check([1], [0, 1])
    assert v13.coefficient(3) == PAdic.from_rational(Fraction(1, 3), p, prec)
    assert all(v13.coefficient(d).is_zero
               for d in range(v13.min_degree, T) if d != 3)

    rng = random.Random(2026_11)
    for _ in range(5):
        c12 = [rng.randint(-4, 4) for _ in range(4)]
        c23 = [rng.randint(-4, 4) for _ in range(4)]
        check(c12, c23)


@criterion(12)
def test_criterion_12_curvature():
    family = geometric_family(GP, 12, 12, prime=2, abs_prec=12)
    assert all(b.is_zero for row in curvature(family) for b in row)

    planted_top = BiForm(
        biseries_from_map(F, {(0, 1): 1}, 12, 12),  # x du
        zero_biseries(F, 12, 12))
    z = BiForm(zero_biseries(F, 12, 12), zero_biseries(F, 12, 12))
    planted = FramedFamily(Signature((1, 1)), F,
                           ((z, planted_top), (z, z)))
    forms = curvature(planted)
    assert not forms[0][1].is_zero
    assert forms[0][1].coefficient(0, 0) == -1


@criterion(13)
def test_criterion_13_round_trip_and_errors():
    rng = random.Random(2026_13)
    rationals = [Fraction(n, d) for n in range(-9, 10)
                 for d in (1, 2, 3, 5, 7)]

    def random_formal(width=8):
        length = rng.randint(1, width)
        return series_from_coeffs(
            F, 0, [rng.choice(rationals) for _ in range(length)])

    def random_laurent(p):
        lo = rng.randint(-4, 0)
        length = rng.randint(1, 8)
        return series_from_coeffs(
            E, lo, [rng.choice(rationals) for _ in range(length)],
            prime=p, abs_prec=rng.randint(4, 14))

    def random_integral(p):
        length = rng.randint(1, 8)
        return series_from_coeffs(
            GP, 0, [Fraction(rng.randint(-40, 40)) for _ in range(length)],
            prime=p, abs_prec=10)

    checked = 0

    for _ in range(180):
        s = random_formal()
        text = print_series(s)
        assert print_series(parse_series(text)) == text
        checked += 1

    for k in range(180):
        p = (2, 3, 5)[k % 3]
        s = random_laurent(p)
        text = print_series(s)
        back = parse_series(text, E, prime=p, abs_prec=20)
        assert print_series(back) == text
        checked += 1

    for k in range(60):
        p = (2, 3, 5)[k % 3]
        s = random_integral(p)
        text = print_series(s)
        back = parse_series(text, GP, prime=p, abs_prec=12)
        assert print_series(back) == text
        checked += 1

    for k in range(40):
        mapping = {(rng.randrange(4), rng.randrange(4)):
                   rng.choice(rationals) for _ in range(5)}
        b = biseries_from_map(F, mapping, 4, 4)
        text = print_biseries(b)
        assert print_biseries(parse_biseries(text, F)) == text
        checked += 1

    for k in range(40):
        p = (2, 3, 5)[k % 3]
        if k % 2:
            entries = ((random_laurent(p), random_laurent(p)),
                       (random_laurent(p), random_laurent(p)))
        else:
            entries = ((random_formal(4), random_formal(4)),
                       (random_formal(4), random_formal(4)))
        doc = dump_series_matrix(entries)
        first = json.dumps(doc, sort_keys=True)
        parsed, ring, prime, sig = parse_series_matrix(doc)
        second = json.dumps(dump_series_matrix(parsed, sig), sort_keys=True)
        assert first == second
        checked += 1

    assert checked == 500

    # every documented command line error code, by crafted input
    code, _, err = run_cli(["log", "1 - t"])
    assert code == 2 and json.loads(err)["error"] == "parse-error"

    code, _, err = run_cli(["log", "t + O(t^3)"])
    assert code == 1 and json.loads(err)["error"] == "non-unit"

    code, _, err = run_cli(["log", "--trunc", "9", "1 - t + O(t^4)"])
    assert code == 1 and json.loads(err)["error"] == "insufficient-window"

    code, _, err = run_cli(["parse-check", "--ring", "gamma+", "--p", "2",
                            "1/2 + O(u^2)"])
    assert code == 1 and json.loads(err)["error"] == "integrality"

    framed_doc = json.dumps({
        "signature": [1, 1], "ring": "formal", "trunc": 4,
        "connection": [["0", "0"], ["1 + O(t^4)", "0"]]})
    code, _, err = run_cli(["trivialize", "--file", "-"], stdin=framed_doc)
    assert code == 1 and json.loads(err)["error"] == "not-framed"

    pole_doc = json.dumps({
        "signature": [1, 1], "ring": "robba", "p": 2, "abs_prec": 8,
        "trunc": 3, "connection": [["0", "u^-1 + O(u^2)"], ["0", "0"]]})
    code, _, err = run_cli(["trivialize", "--file", "-"], stdin=pole_doc)
    payload = json.loads(err)
    assert code == 1 and payload["error"] == "integral-obstruction"
    assert "residue" in payload

    padic_doc = json.dumps({
        "ring": "gamma+", "p": 2, "trunc": 4,
        "connection": [["1 + O(u^3)"]]})
    code, _, err = run_cli(["fundsol", "--file", "-"], stdin=padic_doc)
    assert code == 1 and json.loads(err)["error"] == "invalid-input"

    code, _, err = run_cli(["plog", "1 + O(u^2)"])
    assert code == 2  # usage: missing --p

    # library-only error codes, by direct calls
    with pytest.raises(NotIntegralError):
        degree_of_unit(series_from_coeffs(E, 0, [Fraction(1, 2), 1],
                                          prime=2, abs_prec=8))
    with pytest.raises(CannotDetermineDegreeError):
        degree_of_unit(series_from_coeffs(E, 0, [2, 4], prime=2,
                                          abs_prec=8))
    with pytest.raises(DisjointWindowsError):
        a = series_from_coeffs(F, 0, [1, 2])
        b = series_from_coeffs(F, 5, [1, 2])
        a.agrees_with(b)
