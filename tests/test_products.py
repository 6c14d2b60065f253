"""The product kernels against the coefficient loops they replaced.

``TruncatedSeries.__mul__``, ``inverse`` and ``BiSeries.__mul__`` each wrote
their own sum of products, and ``curvature`` its own matrix product; now a
p-adic ``*`` and ``inverse`` are lift and reduce (``series._padic_product``,
``series._padic_inverse``), the rational ``*`` sums through ``series._dot``,
the rational ``inverse`` and ``dlog`` are one long division on integers
each (``series._rational_quotient``), and ``BiSeries.__mul__`` is a
convolution of its columns' series products.  Those loops are kept here as
test-only oracles: the kernels must give the same ring, window,
coefficient type and text, and error class, on every ring label, with
mixed precisions, negative valuations, Laurent windows, empty windows,
zeros of every kind, windows of up to 64 coefficients (256 for the
rational quotient) and a prime of 61 bits.  The two-variable loop reads
coefficients through ``coefficient(i, j)`` and builds its result from a
full map, so it does not depend on how a ``BiSeries`` stores them.  ``TestLiftRule`` checks the
rule the p-adic kernels rest on against exact ``Fraction`` arithmetic.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lineint.coeff import PAdic
from lineint.errors import (
    CalculusError,
    InsufficientWindowError,
    InvalidInputError,
    NonUnitError,
)
from lineint.nabla import Signature
from lineint.scheme import (
    BiForm,
    BiSeries,
    FramedFamily,
    biseries_from_map,
    curvature,
    partial_u,
    partial_x,
    zero_biseries,
)
from lineint.series import (
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    derive,
    dlog,
    inverse,
)

# 2^61 - 1 makes a lift span several machine words.
PRIMES = (2, 3, 5, 101, 2**61 - 1)
POWER_SERIES_RINGS = tuple(r for r in RingLabel if not r.laurent)
PADIC_RINGS = tuple(r for r in RingLabel if r.padic)
# Power-series rings over Q_p, where every nonzero constant is invertible.
FIELD_CONSTANT_RINGS = (RingLabel.E_PLUS, RingLabel.ROBBA_PLUS)


# -- the loops the kernel replaced ------------------------------------------


def loop_mul(a, b):
    lo = a.min_degree + b.min_degree
    hi = max(min(a.trunc_order + b.min_degree,
                 b.trunc_order + a.min_degree), lo)
    rational = not a.ring.padic
    out = []
    for d in range(lo, hi):
        acc = None
        i_lo = max(a.min_degree, d - b.trunc_order + 1)
        i_hi = min(a.trunc_order - 1, d - b.min_degree)
        for i in range(i_lo, i_hi + 1):
            x, y = a._at(i), b._at(d - i)
            if rational and (x == 0 or y == 0):
                continue
            acc = x * y if acc is None else acc + x * y
        out.append(a._zero_coeff() if acc is None else acc)
    return TruncatedSeries(a.ring, lo, tuple(out), hi, a.prime)


def loop_inverse(s):
    if len(s.coeffs) == 0:
        raise InsufficientWindowError("cannot invert: empty window")
    if not s.ring.laurent:
        if s.min_degree > 0 or (s.coeffs[0].is_zero if s.ring.padic
                                else s.coeffs[0] == 0):
            raise NonUnitError("constant term vanishes")
        if s.min_degree < 0:
            raise InvalidInputError("negative degree in a power-series ring")
    else:
        pivot = s.coeffs[0]
        if pivot.is_zero or pivot.valuation != 0:
            raise NonUnitError("lowest known coefficient must be a unit")
    if s.ring.integral and s.coeffs[0].valuation != 0:
        raise NonUnitError("constant term is not a unit")
    m = s.min_degree
    n = len(s.coeffs)
    inv0 = s.coeffs[0].inverse() if s.ring.padic else 1 / s.coeffs[0]
    out = [inv0]
    rational = not s.ring.padic
    for k in range(1, n):
        acc = None
        for j in range(1, k + 1):
            aj, bk = s.coeffs[j], out[k - j]
            if rational and (aj == 0 or bk == 0):
                continue
            acc = aj * bk if acc is None else acc + aj * bk
        out.append(s._zero_coeff() if acc is None else -(acc * inv0))
    return TruncatedSeries(s.ring, -m, tuple(out), -m + n, s.prime)


def loop_bimul(s, o):
    tu = min(s.trunc_u, o.trunc_u)
    tx = min(s.trunc_x, o.trunc_x)
    rational = not s.ring.padic
    cells = {}
    for i in range(tu):
        for j in range(tx):
            acc = None
            for a in range(i + 1):
                for b in range(j + 1):
                    x, y = s.coefficient(a, b), o.coefficient(i - a, j - b)
                    if rational and (x == 0 or y == 0):
                        continue
                    prod = x * y
                    acc = prod if acc is None else acc + prod
            cells[i, j] = s._zero_coeff() if acc is None else acc
    return biseries_from_map(s.ring, cells, tu, tx, s.prime)


def loop_curvature(family):
    r = family.size
    cu = [[family.entries[a][b].du_part for b in range(r)] for a in range(r)]
    cx = [[family.entries[a][b].dx_part for b in range(r)] for a in range(r)]
    out = []
    for a in range(r):
        row = []
        for b in range(r):
            acc = partial_u(cx[a][b]) - partial_x(cu[a][b])
            for c in range(r):
                acc = (acc + loop_bimul(cu[a][c], cx[c][b])
                       - loop_bimul(cx[a][c], cu[c][b]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


# -- inputs ----------------------------------------------------------------


def shown(r):
    """What a result shows: ring, prime, windows and coefficient texts."""
    if isinstance(r, DifferentialForm):
        r = r.series
    texts = [(type(c).__name__, str(c)) for c in r._flat_coeffs()]
    if isinstance(r, BiSeries):
        return r.ring, r.prime, r.trunc_u, r.trunc_x, texts
    return r.ring, r.prime, r.min_degree, r.trunc_order, texts


def outcome(compute):
    """shown() of the result, or the class of the error it raised."""
    try:
        return shown(compute())
    except CalculusError as e:
        return type(e)


# One coefficient is drawn as one integer and decoded by coefficient() into
# (zero?, abs_prec, valuation, unit) of a valid coefficient of the ring; a
# single integer draw per coefficient keeps the examples cheap.
RAW = st.integers(0, 2**80)
SERIES = st.tuples(st.integers(-3, 3), st.lists(RAW, max_size=7))
UNIT_SERIES = st.tuples(st.integers(-3, 3), st.lists(RAW, min_size=1,
                                                     max_size=7))
# Windows long enough to widen the packed slots of the p-adic kernel.
LONG_SERIES = st.tuples(st.integers(-3, 3), st.integers(8, 64).flatmap(
    lambda n: st.lists(RAW, min_size=n, max_size=n)))
WINDOW = st.integers(0, 4)
RINGS = st.tuples(st.sampled_from(tuple(RingLabel)), st.sampled_from(PRIMES))
POWER_RINGS = st.tuples(st.sampled_from(POWER_SERIES_RINGS),
                        st.sampled_from(PRIMES))
P_RINGS = st.tuples(st.sampled_from(PADIC_RINGS), st.sampled_from(PRIMES))


def coefficient(ring, p, raw, unit=False):
    """Exact rationals with a third zeros; p-adics with zeros at every
    precision, negative valuations off the integral rings, and each
    coefficient at its own abs_prec.  unit asks for a lowest coefficient
    that inverse accepts: of valuation 0, or of any valuation from -3 to 3
    over e+ and robba+."""
    zero, n, v, u = raw % 3, raw // 3 % 11 - 3, raw // 33 % 11, raw // 363
    if not ring.padic:
        num = u % 9 + 1 if unit else (u % 19 - 9) * (zero != 0)
        return Fraction(num, v % 6 + 1)
    if unit:
        v = raw // 33 % 7 - 3 if ring in FIELD_CONSTANT_RINGS else 0
        n = max(n, v + 1)
    else:
        low = 0 if ring.integral else -3
        n = max(n, low)
        if n == low or zero == 0:
            return PAdic.zero(p, n)
        v = low + v % (n - low)
    u = 1 + u % (p ** (n - v) - 1)
    return PAdic(p, v, u + (u % p == 0), n)


def make_series(ring, p, drawn, unit_lead=False):
    m, raws = drawn
    m = m if ring.laurent else abs(m)
    coeffs = tuple(coefficient(ring, p, raw, unit=unit_lead and i == 0)
                   for i, raw in enumerate(raws))
    return TruncatedSeries(ring, m, coeffs, m + len(coeffs),
                           p if ring.padic else None)


def make_biseries(ring, p, tu, tx, raws):
    cells = {(i, j): coefficient(ring, p, raws[i * tx + j])
             for i in range(tu) for j in range(tx)}
    return biseries_from_map(ring, cells, tu, tx, p if ring.padic else None)


# Rational units by coefficient of degree d: a non-integer constant term,
# denominators 1 to 7 mixed in one window, runs of zero coefficients, a
# window with two nonzero coefficients past the constant, and exp(t), whose
# denominators d! each divide the next.
RATIONAL_UNITS = {
    "exp": lambda d: Fraction(1, factorial(d)),
    "fraction constant": lambda d: Fraction(3, 5) if d == 0
    else Fraction(d % 9 - 4, d % 7 + 1),
    "zero runs": lambda d: Fraction(-2) if d == 0
    else Fraction(d, d % 5 + 1) * (d // 8 % 3 == 0),
    "sparse": lambda d: Fraction({0: 1, 5: 1, 37: -7}.get(d, 0)),
}


def drawn_ring(data, rings=RINGS):
    ring, p = data.draw(rings)
    return ring, p if ring.padic else None


# -- the kernel against the loops -------------------------------------------


class TestKernelMatchesLoops:
    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_series_product(self, data):
        ring, p = drawn_ring(data)
        a = make_series(ring, p, data.draw(SERIES))
        b = make_series(ring, p, data.draw(SERIES))
        assert outcome(lambda: a * b) == outcome(lambda: loop_mul(a, b)), \
            (a, b)

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_inverse_and_dlog(self, data):
        ring, p = drawn_ring(data)
        if data.draw(st.booleans()):
            a = make_series(ring, p, data.draw(UNIT_SERIES), unit_lead=True)
        else:
            a = make_series(ring, p, data.draw(SERIES))
        assert outcome(lambda: inverse(a)) == \
            outcome(lambda: loop_inverse(a)), a
        assert outcome(lambda: dlog(a)) == outcome(
            lambda: loop_mul(derive(a).series, loop_inverse(a))), a

    @pytest.mark.parametrize("p", PRIMES)
    @given(data=st.data())
    @settings(max_examples=8, derandomize=True, deadline=None)
    def test_long_windows(self, p, data):
        ring = data.draw(st.sampled_from(PADIC_RINGS))
        a = make_series(ring, p, data.draw(LONG_SERIES), unit_lead=True)
        b = make_series(ring, p, data.draw(LONG_SERIES))
        assert outcome(lambda: a * b) == outcome(lambda: loop_mul(a, b)), \
            (a, b)
        assert outcome(lambda: inverse(a)) == \
            outcome(lambda: loop_inverse(a)), a

    @pytest.mark.parametrize("n", [0, 1, 64, 128, 256])
    @pytest.mark.parametrize("shape", sorted(RATIONAL_UNITS))
    def test_rational_long_windows(self, shape, n):
        a = TruncatedSeries(RingLabel.FORMAL, 0,
                            tuple(RATIONAL_UNITS[shape](d) for d in range(n)),
                            n)
        assert outcome(lambda: inverse(a)) == \
            outcome(lambda: loop_inverse(a)), a
        assert outcome(lambda: dlog(a)) == outcome(
            lambda: loop_mul(derive(a).series, loop_inverse(a))), a

    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_two_variable_product(self, data):
        ring, p = drawn_ring(data, POWER_RINGS)
        raws = data.draw(st.lists(RAW, min_size=32, max_size=32))
        x = make_biseries(ring, p, data.draw(WINDOW), data.draw(WINDOW),
                          raws[:16])
        y = make_biseries(ring, p, data.draw(WINDOW), data.draw(WINDOW),
                          raws[16:])
        assert outcome(lambda: x * y) == outcome(lambda: loop_bimul(x, y)), \
            (x, y)

    @given(st.data())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_curvature(self, data):
        # Both partials shrink a window by one, so 2 is the least window
        # whose curvature shows a coefficient.
        ring, p = drawn_ring(data, POWER_RINGS)
        tu, tx = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
        raws = data.draw(st.lists(RAW, min_size=54, max_size=54))
        zero = zero_biseries(ring, tu, tx, p, 7)
        entries = [[BiForm(zero, zero)] * 3 for _ in range(3)]
        for k, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
            entries[a][b] = BiForm(
                make_biseries(ring, p, tu, tx, raws[18 * k:]),
                make_biseries(ring, p, tu, tx, raws[18 * k + 9:]))
        family = FramedFamily(Signature((1, 1, 1)), ring, entries, p)
        assert [[shown(f) for f in row] for row in curvature(family)] == \
            [[shown(f) for f in row] for row in loop_curvature(family)]


# -- all-zero factors -------------------------------------------------------


def zeroed(ring, p, drawn):
    """A series shaped like make_series(ring, p, drawn) whose coefficients
    are all zero, each at its own abs_prec (raw % 3 == 0 decodes to one)."""
    m, raws = drawn
    return make_series(ring, p, (m, [raw - raw % 3 for raw in raws]))


def zeroed_columns(ring, p, tu, tx, raws, mask):
    """make_biseries with the columns x^j, j in mask, all zero."""
    cells = {(i, j): coefficient(ring, p, raws[i * tx + j]
                                 - raws[i * tx + j] % 3 * (j in mask))
             for i in range(tu) for j in range(tx)}
    return biseries_from_map(ring, cells, tu, tx, p if ring.padic else None)


class TestZeroFactors:
    """A product with an all-zero factor multiplies no coefficients; its
    zeros must still carry what the loop's sum of products carries."""

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_series_product(self, data):
        ring, p = drawn_ring(data)
        zero_a, zero_b = data.draw(st.sampled_from(
            ((True, False), (False, True), (True, True))))
        a, b = data.draw(SERIES), data.draw(SERIES)
        a = zeroed(ring, p, a) if zero_a else make_series(ring, p, a)
        b = zeroed(ring, p, b) if zero_b else make_series(ring, p, b)
        assert a.is_zero or b.is_zero
        assert outcome(lambda: a * b) == outcome(lambda: loop_mul(a, b)), \
            (a, b)

    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_two_variable_product_with_zero_columns(self, data):
        ring, p = drawn_ring(data, POWER_RINGS)
        raws = data.draw(st.lists(RAW, min_size=32, max_size=32))
        masks = st.sets(st.integers(0, 3))
        x = zeroed_columns(ring, p, data.draw(WINDOW), data.draw(WINDOW),
                           raws[:16], data.draw(masks))
        y = zeroed_columns(ring, p, data.draw(WINDOW), data.draw(WINDOW),
                           raws[16:], data.draw(masks))
        assert outcome(lambda: x * y) == outcome(lambda: loop_bimul(x, y)), \
            (x, y)


# -- the lift rule ----------------------------------------------------------


def lifts(s):
    return [c.to_fraction() for c in s.coeffs]


def exact_product(a, b):
    """The coefficients of the product of the lifts, as far as a * b shows."""
    x, y = lifts(a), lifts(b)
    return [sum(x[i] * y[k - i] for i in range(k + 1))
            for k in range(min(len(x), len(y)))]


def exact_inverse(a):
    """The coefficients of the inverse of the lifts, with p-unit
    denominators after the power of p."""
    x = lifts(a)
    out = [1 / x[0]]
    for k in range(1, len(x)):
        out.append(-sum(x[j] * out[k - j] for j in range(1, k + 1)) / x[0])
    return out


def fields(c):
    return c.valuation, c.unit, c.abs_prec


class TestLiftRule:
    """Each coefficient of a p-adic * and inverse is the exact result on
    the operands' lifts (to_fraction) reduced modulo p^abs_prec, at the
    abs_prec the coefficient loops prove."""

    def check(self, got, loop, exact, p):
        assert [c.abs_prec for c in got.coeffs] == \
            [c.abs_prec for c in loop.coeffs]
        assert [fields(c) for c in got.coeffs] == \
            [fields(PAdic.from_rational(x, p, c.abs_prec))
             for c, x in zip(got.coeffs, exact)]

    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_product(self, data):
        ring, p = data.draw(P_RINGS)
        windows = st.one_of(SERIES, LONG_SERIES)
        a = make_series(ring, p, data.draw(windows))
        b = make_series(ring, p, data.draw(windows))
        self.check(a * b, loop_mul(a, b), exact_product(a, b), p)

    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_inverse(self, data):
        ring, p = data.draw(P_RINGS)
        m, raws = data.draw(UNIT_SERIES)
        a = make_series(ring, p, (m if ring.laurent else 0, raws),
                        unit_lead=True)
        self.check(inverse(a), loop_inverse(a), exact_inverse(a), p)
