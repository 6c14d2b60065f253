"""The sum-of-products kernel against the coefficient loops it replaced.

``TruncatedSeries.__mul__``, ``__add__``, ``inverse`` and
``BiSeries.__mul__`` each wrote their own loop, ``curvature`` its own
matrix product and ``padic_log_one_minus_py`` its own accumulator of
``PAdic`` sums; now every sum of windows is one call of
``series._sum_of_products(pairs, *firsts)``: ``+`` is its case of two
first terms, ``*`` of one pair, the log one call over its terms.  Over the
p-adics it and ``inverse`` are lift and reduce (``inverse`` reduces the
integers of ``series._padic_inverse``); over the rationals it adds exact
``series._dot`` sums in the same loop, the rational ``inverse``,
``dlog`` and ``formal_log`` are one long division on integers each
(``series._rational_quotient``; ``TestRationalLogMatchesRoute`` keeps
formal_log's old route, the antiderivative of the loops' dlog, as its
oracle, and ``TestRationalQuotientMatchesLcm`` keeps the quotient's old
per-degree lcm, ``lcm_rational_quotient``, as the oracle of its one
running denominator), and ``BiSeries.__mul__`` is a convolution
of its columns' series products.  Those loops are kept here as test-only
oracles, ``loop_add`` for every sum, so no oracle runs the kernel: the
kernels must give the same ring, window, coefficient type and text, and
error class, on every ring label, with mixed precisions, negative
valuations, Laurent windows, empty windows, zeros of every kind, windows
of up to 64 coefficients (256 for the rational quotient) and a prime of
61 bits.  The two-variable loop reads coefficients through
``coefficient(i, j)`` and builds its result from a full map, so it does
not depend on how a ``BiSeries`` stores them.  ``TestLiftRule`` checks the
rule the p-adic kernels (``*``, ``inverse``, ``dlog``) rest on against
exact ``Fraction`` arithmetic.
The kernels build their results unchecked: ``TestTrustedResults`` rebuilds
them through the public constructors, ``TestTrustedDerivedSeries`` does the
same for the logs, ``unit_decompose`` and ``fundamental_solution``, and
``BOUNDARY_REFUSALS`` lists what those constructors must still refuse.
``TestSumOfProducts`` checks ``series._sum_of_products`` against the chain
of ``loop_add`` over the loop products, and that it reduces each output
coefficient once; ``TestTwoVariableSumOfProducts`` does the same for
``scheme._bi_sum_of_products``.  ``TestOneSumOfWindows`` checks that no
p-adic sum of windows adds two ``PAdic``, that a rational sum of products
makes no series ``*`` or ``+`` and that a p-adic ``+`` reduces each output
coefficient once.  A p-adic ``dlog`` multiplies the lifts of
da by the unreduced integers of ``_padic_inverse`` without building either
window; the chain ``derive(a) * inverse(a)`` through the loops stays here
as its oracle, and a count checks it reduces each output coefficient once
and calls no ``derive``, ``inverse`` or series ``*``.
The precision passes decide a degree from prefix-minimum bounds and scan
only where a bound cannot settle it; ``TestPrecisionBounds`` checks them
against the passes that scan every degree, ``loop_pair_precisions`` and
``loop_inverse_precisions``.
``TestPerturbationSoundness`` moves every operand coefficient within its
claimed precision and checks that no result coefficient moves within its
own: a slice, for ``inverse``, ``dlog``, ``padic_log_dagger``, ``+``,
``-``, ``*``, a sum of products with two first terms and
``padic_log_one_minus_py``, of the soundness oracle every claim is to get.
"""

import random
from fractions import Fraction
from functools import cache, reduce
from itertools import compress, repeat
from math import factorial, gcd, lcm
from operator import add, floordiv, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

import lineint.coeff
import lineint.series
from lineint.coeff import PAdic, vp_int
from lineint.errors import (
    CalculusError,
    InsufficientWindowError,
    IntegralityError,
    InvalidInputError,
    NonUnitError,
)
from lineint.nabla import (
    ConnectionMatrix,
    FramedNablaModule,
    Signature,
    fundamental_solution,
    invariant,
)
from lineint.parsing import load_connection_matrix, parse_series
from lineint.scheme import (
    BiForm,
    BiSeries,
    FramedFamily,
    _bi_sum_of_products,
    biseries_from_map,
    curvature,
    line_integral,
    partial_u,
    partial_x,
    section_pullback,
    substitute_fiber,
    zero_biseries,
)
from lineint.series import (
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    _floor_log,
    _padic_inverse,
    _pair_precisions,
    _rational_quotient,
    _sum_of_products,
    _unit_constant_term,
    antiderive,
    derive,
    dlog,
    formal_log,
    inverse,
    padic_log_dagger,
    padic_log_one_minus_py,
    series_from_coeffs,
    unit_decompose,
    zero_series,
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


def loop_add(a, b):
    """a + b of one- or two-variable windows, one coefficient + per degree;
    the exact zero below a window passes the other operand through."""
    if isinstance(a, BiSeries):
        return BiSeries(a.ring, tuple(map(loop_add, a.cols, b.cols)),
                        min(a.trunc_u, b.trunc_u), a.prime)
    lo = min(a.min_degree, b.min_degree)
    hi = max(min(a.trunc_order, b.trunc_order), lo)
    out = []
    for d in range(lo, hi):
        x, y = a._at(d), b._at(d)
        out.append(y if x is None else x if y is None else x + y)
    return TruncatedSeries(a.ring, lo, tuple(out), hi, a.prime)


def loop_log_one_minus_py(y):
    """-sum((p*y)^n / n) in a dict of coefficients by degree: each term is
    added where its window is known and caps the precision at n - v_p(n),
    its valuation, where its window has ended."""
    p = y.prime
    if len(y.coeffs) == 0:
        return y
    n_work = max(c.abs_prec for c in y.coeffs)
    n_max = 1
    while n_max - _floor_log(n_max, p) < n_work:
        n_max += 1
    n_terms = n_max - 1
    m, t = y.min_degree, y.trunc_order
    lo = min(m, n_terms * m)
    acc = {d: PAdic.zero(p, n_work) for d in range(lo, t)}
    if n_terms >= 1:
        py = y.scale(p)
        power = py
        for n in range(1, n_terms + 1):
            term = power.scale(Fraction(-1, n))
            bound = n - (vp_int(n, p) if n % p == 0 else 0)
            for d in range(lo, t):
                if d < term.min_degree:
                    continue
                if d >= term.trunc_order:
                    acc[d] = acc[d].truncated(bound)
                else:
                    acc[d] = acc[d] + term._at(d)
            if n < n_terms:
                power = loop_mul(power, py)
    return TruncatedSeries(y.ring, lo, tuple(acc[d] for d in range(lo, t)),
                           t, p)


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


def loop_formal_log(a, loop_dlog):
    """formal_log as windows: the zero-constant antiderivative of
    loop_dlog(), derive(a) * inverse(a) through the loops, an exact zero
    prepended."""
    _unit_constant_term(a)
    s = antiderive(DifferentialForm(loop_dlog()), RingLabel.FORMAL)
    return TruncatedSeries(RingLabel.FORMAL, 0, (Fraction(0),) + s.coeffs,
                           s.trunc_order)


def lcm_rational_quotient(num, den):
    """_rational_quotient with each Q_k kept as q_k/d_k in lowest terms:
    over m, the lcm of the b_j * d_(k-j) of the nonzero ratios and, if y
    is nonzero, of z*u, m * Q_k = y*w * (m/(z*u)) - sum_j a_j *
    (m/(b_j * d_(k-j))) * q_(k-j), and one gcd reduces it."""
    n = min(len(num), len(den))
    u, w = den[0].numerator, den[0].denominator
    if u < 0:
        u, w = -u, -w
    nonzero = [bool(x) for x in den[1:n]]
    a, b = [], []
    for x in compress(den[1:n], nonzero):
        s, m = x.numerator * w, x.denominator * u
        g = gcd(s, m)
        a.append(s // g)
        b.append(m // g)
    q, d = [], []
    for y, z in num[:n]:
        bd = list(map(mul, b, compress(reversed(d), nonzero)))
        v = z * u
        m = lcm(v, *bd) if y else lcm(*bd)
        s = -sum(map(mul, map(mul, a, map(floordiv, repeat(m), bd)),
                     compress(reversed(q), nonzero)))
        if y:
            s += y * w * (m // v)
        g = gcd(s, m)
        if g > 1:
            s, m = s // g, m // g
        q.append(s)
        d.append(m)
        yield s, m


def loop_pair_precisions(na, va, nb, vb):
    """The min-plus pass of a p-adic product with both halves scanned at
    every degree: min_(i<=k) min(na[i] + vb[k-i], nb[k-i] + va[i])."""
    nb, vb = nb[::-1], vb[::-1]
    top = len(na) - 1
    return [min(min(map(add, na, vb[top - k:])),
                min(map(add, nb[top - k:], va)))
            for k in range(len(na))]


def loop_inverse_precisions(a):
    """The abs_prec of each coefficient of 1/a from the recurrence
    N(out_k) = min(N(a_k) - v_0, min_j N(out_(k-j)) + vf(a_j)) - v_0,
    scanned at every degree."""
    v0 = a[0].valuation
    vf = [x.valuation_floor for x in a]
    ns = [a[0].inverse().abs_prec]
    for k in range(1, len(a)):
        ns.append(min(a[k].abs_prec - v0,
                      min(map(add, ns[k - 1::-1], vf[1:k + 1]))) - v0)
    return ns


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
            acc = loop_add(partial_u(cx[a][b]), -partial_x(cu[a][b]))
            for c in range(r):
                acc = loop_add(acc, loop_bimul(cu[a][c], cx[c][b]))
                acc = loop_add(acc, -loop_bimul(cx[a][c], cu[c][b]))
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
    def test_series_sum(self, data):
        ring, p = drawn_ring(data)
        a = make_series(ring, p, data.draw(SERIES))
        b = make_series(ring, p, data.draw(SERIES))
        assert outcome(lambda: a + b) == outcome(lambda: loop_add(a, b)), \
            (a, b)
        assert outcome(lambda: a - b) == outcome(lambda: loop_add(a, -b)), \
            (a, b)

    # Over gamma a term's window ends before y's, where the tail bound
    # binds; over gamma+ it never does.
    @pytest.mark.parametrize("ring,degrees", [
        (RingLabel.GAMMA, st.integers(-3, -1)),
        (RingLabel.GAMMA_PLUS, st.integers(0, 3))], ids=["gamma", "gamma+"])
    @given(data=st.data())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_log_one_minus_py(self, ring, degrees, data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        y = make_series(ring, p, (data.draw(degrees), data.draw(SERIES)[1]))
        assert outcome(lambda: padic_log_one_minus_py(y)) == \
            outcome(lambda: loop_log_one_minus_py(y)), y

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


class TestRationalLogMatchesRoute:
    """The rational inverse, dlog and formal_log are one integer quotient
    each; the windows they replaced, the loops' inverse, derive(a) times
    it and formal_log's antiderivative of that, are their oracles."""

    @staticmethod
    def assert_same(a):
        # The three routes share one loop inverse and one loop product.
        loop_inv = cache(lambda: loop_inverse(a))
        loop_dlog = cache(lambda: loop_mul(derive(a).series, loop_inv()))
        assert outcome(lambda: inverse(a)) == outcome(loop_inv), a
        assert outcome(lambda: dlog(a)) == outcome(loop_dlog), a
        assert outcome(lambda: formal_log(a)) == \
            outcome(lambda: loop_formal_log(a, loop_dlog)), a

    @pytest.mark.parametrize("n", [0, 1, 64, 128, 256])
    @pytest.mark.parametrize("shape", sorted(RATIONAL_UNITS))
    def test_long_windows(self, shape, n):
        self.assert_same(TruncatedSeries(
            RingLabel.FORMAL, 0,
            tuple(RATIONAL_UNITS[shape](d) for d in range(n)), n))

    # Units, and windows that may be none: a zero constant term, a window
    # from degree 1 or more, an empty window.
    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_drawn_windows(self, data):
        unit = data.draw(st.booleans())
        drawn = data.draw(UNIT_SERIES if unit else SERIES)
        self.assert_same(make_series(RingLabel.FORMAL, None, drawn,
                                     unit_lead=unit))


def fractions_to(top):
    return st.builds(Fraction, st.integers(-top, top), st.integers(1, top))


SMALL_PRIMES = [q for q in range(2, 300) if all(q % f for f in range(2, q))]
# Rational divisors den by shape, den[0] nonzero, up to 48 terms: digits,
# denominators to 30 and to 1,000, one distinct prime denominator per
# degree, and zero ratios, sparse or at every even degree past the first.
QUOTIENT_LENGTHS = st.integers(1, 48)
DIGIT = st.integers(0, 9).map(Fraction)
ZERO = st.just(Fraction(0))
SPARSE = st.tuples(st.integers(0, 3), fractions_to(30)).map(
    lambda t: t[1] * (t[0] == 0))
QUOTIENT_DIVISORS = {
    "dense digits": (DIGIT.filter(bool), lambda j: DIGIT),
    "denominators to 30": (fractions_to(30).filter(bool),
                           lambda j: fractions_to(30)),
    "denominators to 1000": (fractions_to(1000).filter(bool),
                             lambda j: fractions_to(1000)),
    "distinct primes": (fractions_to(9).filter(bool),
                        lambda j: st.integers(-9, 9).map(
                            lambda c, q=SMALL_PRIMES[j]: Fraction(c, q))),
    "sparse zeros": (fractions_to(30).filter(bool), lambda j: SPARSE),
    "odd only": (fractions_to(30).filter(bool),
                 lambda j: fractions_to(30) if j % 2 else ZERO),
}
# Numerator pairs (y, z) with their own denominators, zeros among them.
OWN_NUMERATORS = st.lists(st.tuples(
    st.integers(-1000, 1000).map(lambda y: y * (y % 3 != 0)),
    st.integers(1, 1000)), max_size=50)


def drawn_divisor(data, shape):
    lead, rest = QUOTIENT_DIVISORS[shape]
    n = data.draw(QUOTIENT_LENGTHS)
    return [data.draw(lead)] + [data.draw(rest(j)) for j in range(1, n)]


def quotient_numerators(den):
    """The numerators the library divides by den: 1 (inverse) and da
    (dlog)."""
    return {"inverse": [(1, 1)] + [(0, 1)] * (len(den) - 1),
            "dlog": [(k * x.numerator, x.denominator)
                     for k, x in enumerate(den[1:], 1)]}


def quotient_pairs(quotient, num, den):
    """The pairs (q_k, d_k) quotient yields, or the class of its error."""
    try:
        return list(quotient(num, den))
    except Exception as e:
        return type(e)


class TestRationalQuotientMatchesLcm:
    """_rational_quotient holds the earlier coefficients over one running
    denominator; the per-degree lcm it replaced, lcm_rational_quotient, is
    its oracle, pair by pair: numerators, denominators and error classes."""

    @staticmethod
    def assert_same(num, den):
        assert quotient_pairs(_rational_quotient, num, den) == \
            quotient_pairs(lcm_rational_quotient, num, den), (num, den)

    @given(st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    @pytest.mark.parametrize("shape", sorted(QUOTIENT_DIVISORS))
    def test_drawn(self, shape, data):
        den = drawn_divisor(data, shape)
        for num in quotient_numerators(den).values():
            self.assert_same(num, den)
        self.assert_same(data.draw(OWN_NUMERATORS), den)

    @pytest.mark.parametrize("n", [128, 256])
    def test_exp(self, n):
        den = [Fraction(1, factorial(d)) for d in range(n)]
        for num in quotient_numerators(den).values():
            self.assert_same(num, den)


# D, the lcm of the d_k, exceeds the longest d_k by at most this many bits
# on every divisor drawn below, as inverse and as dlog; the draws reach 27,
# a few cancelled primes below 300.  A power of one integer as the scale
# would be thousands of bits longer (127! for exp(t) at 128 terms).
RUNNING_DENOMINATOR_MARGIN = 48


@given(st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
@pytest.mark.parametrize("shape", sorted(QUOTIENT_DIVISORS))
def test_running_denominator_stays_small(shape, data):
    den = drawn_divisor(data, shape)
    for name, num in quotient_numerators(den).items():
        d = [d for _, d in _rational_quotient(num, den)] or [1]
        excess = lcm(*d).bit_length() - max(d).bit_length()
        assert excess <= RUNNING_DENOMINATOR_MARGIN, (name, den)


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


# -- the precision passes -------------------------------------------------


def precision_lists(n):
    """n precisions or valuation floors: one run, all distinct, or a few
    values repeated; negative values too."""
    return st.one_of(
        st.integers(-6, 40).map(lambda c: [c] * n),
        st.lists(st.integers(-60, 60), min_size=n, max_size=n, unique=True),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n))


PADIC_UNIT_SERIES = st.tuples(st.integers(-3, 3),
                              st.lists(RAW, min_size=1, max_size=40))


class TestPrecisionBounds:
    """The min-plus passes settle a degree from prefix-minimum bounds and
    scan only where the bound cannot: they give the loops' precisions on
    empty lists, one-run sides, all-distinct values and negative floors,
    and ``_padic_inverse`` gives the loop recurrence's on every p-adic
    ring."""

    @given(st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_pair_precisions(self, data):
        n = data.draw(st.integers(0, 40))
        lists = [data.draw(precision_lists(n)) for _ in range(4)]
        assert _pair_precisions(*lists) == loop_pair_precisions(*lists), \
            lists

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_inverse_precisions(self, data):
        ring = data.draw(st.sampled_from(PADIC_RINGS))
        p = data.draw(st.sampled_from((2, 3, 5, 101)))
        if data.draw(st.booleans()):  # a parsed window: one abs_prec
            values = data.draw(st.lists(st.integers(-99, 99), min_size=1,
                                        max_size=40))
            values[0] += values[0] % p == 0
            a = series_from_coeffs(ring, 0, values, p,
                                   data.draw(st.integers(1, 30)))
        else:
            a = make_series(ring, p, data.draw(PADIC_UNIT_SERIES),
                            unit_lead=True)
        assert _padic_inverse(a.coeffs, p)[2] == \
            loop_inverse_precisions(a.coeffs), a

    def test_empty_windows(self):
        gp = RingLabel.GAMMA_PLUS
        assert _pair_precisions([], [], [], []) == []
        empty = zero_series(gp, 0, 0, 3)
        a = series_from_coeffs(gp, 0, [1, 2, 3], 3)
        for product in (a * empty, empty * a, empty * empty):
            assert shown(product) == (gp, 3, 0, 0, [])
        # A one-coefficient unit: its dlog multiplies empty windows.
        assert shown(dlog(series_from_coeffs(gp, 0, [1], 3))) == \
            (gp, 3, 0, 0, [])


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


def exact_dlog(a):
    """The coefficients of da/a on the lifts, as far as dlog shows: from
    degree -1 on a Laurent window, from degree 0 on a power series."""
    x = lifts(a)
    dx = [d * y for d, y in enumerate(x, a.min_degree)][not a.ring.laurent:]
    out = []
    for k in range(len(dx)):
        out.append((dx[k] - sum(x[j] * out[k - j]
                                for j in range(1, k + 1))) / x[0])
    return out


def fields(c):
    return c.valuation, c.unit, c.abs_prec


class TestLiftRule:
    """Each coefficient of a p-adic *, inverse and dlog is the exact
    result on the operands' lifts (to_fraction) reduced modulo p^abs_prec,
    at the abs_prec the coefficient loops prove; for dlog the exact
    quotient da/a of the lifts, against derive(a) * inverse(a)."""

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

    @given(st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_dlog(self, data):
        ring, p = data.draw(P_RINGS)
        m, raws = data.draw(st.one_of(UNIT_SERIES, LONG_SERIES))
        a = make_series(ring, p, (m if ring.laurent else 0, raws),
                        unit_lead=True)
        self.check(dlog(a).series,
                   loop_mul(derive(a).series, loop_inverse(a)),
                   exact_dlog(a), p)


# The windows of the pinned p-adic dlog documents of tests/test_cli.py:
# (ring, min_degree, values, p, abs_prec).
DLOG_WINDOWS = {
    "gamma from u^-2": (RingLabel.GAMMA, -2, [1, 2, -5, 7, 0, 4, -1, 0], 3,
                        9),
    "robba with 1/3 and 1/9": (RingLabel.ROBBA, -1, [
        1, Fraction(1, 3), 2, Fraction(-1, 9), 0, 5, 0], 3, 8),
    "robba+ with constant 3": (RingLabel.ROBBA_PLUS, 0,
                               [3, 1, -4, 9, 0, 1, 0], 3, 10),
    "e+ at p = 2": (RingLabel.E_PLUS, 0, [
        1, Fraction(1, 2), 3, Fraction(-1, 4), 0, 6, 0, 0], 2, 12),
}


@pytest.mark.parametrize("ring,lo,values,p,prec", DLOG_WINDOWS.values(),
                         ids=list(DLOG_WINDOWS))
def test_dlog_reduces_each_output_coefficient_once(monkeypatch, ring, lo,
                                                   values, p, prec):
    """A p-adic dlog builds no derivative or inverse window and makes no
    series product: it calls _reduce once per output coefficient."""
    a = series_from_coeffs(ring, lo, values, p, prec)
    calls = []
    for module in (lineint.coeff, lineint.series):
        def counted(*args, reduce_=module._reduce):
            calls.append(args)
            return reduce_(*args)
        monkeypatch.setattr(module, "_reduce", counted)

    def refused(*args):
        raise AssertionError("dlog built a window only to multiply it")

    monkeypatch.setattr(lineint.series, "derive", refused)
    monkeypatch.setattr(lineint.series, "inverse", refused)
    monkeypatch.setattr(TruncatedSeries, "__mul__", refused)
    result = dlog(a).series
    assert len(result.coeffs) > 0
    assert len(calls) == len(result.coeffs)


# -- soundness under perturbation -------------------------------------------

SOUND_RINGS = st.tuples(st.sampled_from(PADIC_RINGS),
                        st.sampled_from((2, 3, 5)))
SOUND_SERIES = st.tuples(st.integers(-3, 3),
                         st.lists(RAW, min_size=1, max_size=12))


def perturbed(a, rs):
    """a with each coefficient c moved by p^N * r, N its abs_prec and r the
    next of rs, and known modulo p^(N + 4): an input a's claims allow."""
    p = a.prime
    return TruncatedSeries(a.ring, a.min_degree, tuple(
        PAdic.from_rational(c.to_fraction() + Fraction(p) ** c.abs_prec * r,
                            p, c.abs_prec + 4)
        for c, r in zip(a.coeffs, rs)), a.trunc_order, p)


def assert_sound(op, a, b, windows=lambda r: (r,)):
    """op(*b) for the operands b perturbed from a: the same refusal as
    op(*a), or as many windows as op(*a)'s, each on the same window as the
    one it pairs with and each coefficient claimed at least as precisely
    and agreeing modulo op(*a)'s abs_prec.  windows lists the one-variable
    windows, or forms, of a result."""
    try:
        want = op(*a)
    except CalculusError as e:
        with pytest.raises(CalculusError) as info:
            op(*b)
        assert type(info.value) is type(e), (a, b)
        return
    for want, got in zip(windows(want), windows(op(*b)), strict=True):
        want, got = (r.series if isinstance(r, DifferentialForm) else r
                     for r in (want, got))
        assert (got.min_degree, got.trunc_order) == \
            (want.min_degree, want.trunc_order), (a, b)
        for x, y in zip(want.coeffs, got.coeffs):
            assert y.abs_prec >= x.abs_prec and (y - x).is_zero, (a, b)


def drawn_perturbation(data, *operands):
    """Each operand perturbed by drawn integers, as a tuple."""
    out = []
    for a in operands:
        p = a.prime
        rs = data.draw(st.lists(st.integers(-p ** 6, p ** 6),
                                min_size=len(a.coeffs),
                                max_size=len(a.coeffs)))
        out.append(perturbed(a, rs))
    return tuple(out)


# Operations on several windows of one ring, by name: (op, arity).
SOUND_OPERATIONS = {
    "+": (add, 2),
    "-": (sub, 2),
    "*": (mul, 2),
    "two pairs and two firsts": (
        lambda a, b, c, d, e, f: _sum_of_products([(a, b), (c, d)], e, f), 6),
}


# What a perturbation leaves unmoved, a section's degree-0 term (w(0) = 0
# or v(0) = 1) and a family's zero parts, is known past every perturbed
# coefficient (abs_prec at most 7, re-read at 11).  A moved w(0) has order
# 0 and is refused; a moved zero part no longer frames the family.
UNMOVED_PREC = 15


def drawn_section(data, p, constant):
    """A gamma+ section and the same section perturbed, each with the
    constant at degree 0 and a unit at degree 1, so that every section
    has order 1 once its constant is taken away."""
    tail = make_series(RingLabel.GAMMA_PLUS, p, (1, data.draw(
        st.lists(RAW, min_size=1, max_size=5))), unit_lead=True)
    return tuple(TruncatedSeries(s.ring, 0, (constant,) + s.coeffs,
                                 s.trunc_order, p)
                 for s in (tail, drawn_perturbation(data, tail)[0]))


def drawn_biseries(data, p):
    """A gamma+ window whose u-window is no longer than its x-window, so
    that an order-1 section refuses none, and the same window perturbed."""
    tx = data.draw(st.integers(1, 4))
    tu = data.draw(st.integers(1, tx))
    b = make_biseries(RingLabel.GAMMA_PLUS, p, tu, tx, data.draw(
        st.lists(RAW, min_size=tu * tx, max_size=tu * tx)))
    return b, BiSeries(b.ring, drawn_perturbation(data, *b.cols), tu, p)


def drawn_family(data, p, sig):
    """A gamma+ family with drawn parts above the block diagonal and the
    frame's zero parts, and the same family with the drawn parts
    perturbed."""
    z = zero_biseries(RingLabel.GAMMA_PLUS, 4, 4, p, UNMOVED_PREC)
    r, blocks = sig.total, sig.blocks
    rows, moved = ([[BiForm(z, z)] * r for _ in range(r)] for _ in range(2))
    for a in range(r):
        for b in range(r):
            if blocks[a] < blocks[b]:
                (du, du_moved), (dx, dx_moved) = (drawn_biseries(data, p)
                                                  for _ in range(2))
                rows[a][b] = BiForm(du, dx)
                moved[a][b] = BiForm(du_moved, dx_moved)
    return tuple(FramedFamily(sig, RingLabel.GAMMA_PLUS, tuple(map(
        tuple, m)), p) for m in (rows, moved))


def without_residue(a):
    """a with its degree -1 coefficient, if it has one, a zero at that
    coefficient's abs_prec."""
    k = -1 - a.min_degree
    if not 0 <= k < len(a.coeffs):
        return a
    coeffs = list(a.coeffs)
    coeffs[k] = PAdic.zero(a.prime, coeffs[k].abs_prec)
    return TruncatedSeries(a.ring, a.min_degree, tuple(coeffs), a.trunc_order,
                           a.prime)


class TestPerturbationSoundness:
    """No claim of inverse, dlog, padic_log_dagger, the sums and products
    of windows, padic_log_one_minus_py, derive, antiderive, invariant,
    substitute_fiber, line_integral or curvature is stronger than its
    operands allow: moving each operand coefficient within its abs_prec
    moves no result coefficient within its own."""

    @pytest.mark.parametrize("op", [inverse, dlog], ids=["inverse", "dlog"])
    @given(data=st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_unit_windows(self, op, data):
        ring, p = data.draw(SOUND_RINGS)
        m, raws = data.draw(SOUND_SERIES)
        a = make_series(ring, p, (m if ring.laurent else 0, raws),
                        unit_lead=True)
        assert_sound(op, (a,), drawn_perturbation(data, a))

    @given(data=st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_padic_log_dagger(self, data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        a = make_series(RingLabel.GAMMA_PLUS, p, (0, data.draw(
            SOUND_SERIES)[1]), unit_lead=True)
        assert_sound(padic_log_dagger, (a,), drawn_perturbation(data, a))

    @pytest.mark.parametrize("op,arity", SOUND_OPERATIONS.values(),
                             ids=list(SOUND_OPERATIONS))
    @given(data=st.data())
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_sums_and_products(self, op, arity, data):
        ring, p = data.draw(SOUND_RINGS)
        operands = tuple(make_series(ring, p, data.draw(SOUND_SERIES))
                         for _ in range(arity))
        assert_sound(op, operands, drawn_perturbation(data, *operands))

    # The window of a log starts at n_terms * min_degree, or at 0 when no
    # term is summed, and n_terms grows with the precision a perturbation
    # re-reads: a window from degree 0 on stays where it is.
    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_padic_log_one_minus_py(self, data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        y = make_series(RingLabel.GAMMA_PLUS, p, (0, data.draw(
            SOUND_SERIES)[1]))
        assert_sound(padic_log_one_minus_py, (y,),
                     drawn_perturbation(data, y))

    @given(data=st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_derive(self, data):
        ring, p = data.draw(SOUND_RINGS)
        a = make_series(ring, p, data.draw(SOUND_SERIES))
        assert_sound(derive, (a,), drawn_perturbation(data, a))

    # The residue stays a zero, so that every perturbed form integrates.  A
    # refusal to leave the integer ring claims nothing, and a more precise
    # operand may settle it, so only an antiderivative is compared.
    @given(data=st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_antiderive(self, data):
        ring, p = data.draw(SOUND_RINGS)
        target = data.draw(st.sampled_from(ring.antiderive_targets))
        a = without_residue(make_series(ring, p, data.draw(SOUND_SERIES)))
        b = without_residue(drawn_perturbation(data, a)[0])

        def op(s):
            return antiderive(DifferentialForm(s), target)

        try:
            op(a)
        except IntegralityError:
            return
        assert_sound(op, (a,), (b,))

    # The frame's zeros below the block diagonal stay as they are: moved,
    # they would no longer be zero.  Every entry above it is moved, and
    # reaches degree p, where the antiderivative divides by p.
    @given(data=st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_invariant(self, data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        sig = Signature(data.draw(st.sampled_from([(1, 1, 1), (1, 2),
                                                    (2, 1)])))
        blocks = sig.blocks
        above = [(a, b) for a in range(3) for b in range(3)
                 if blocks[a] < blocks[b]]
        rows = [[zero_series(RingLabel.GAMMA_PLUS, 0, 8, p, 6)] * 3
                for _ in range(3)]
        for a, b in above:
            rows[a][b] = make_series(RingLabel.GAMMA_PLUS, p, (0, data.draw(
                st.lists(RAW, min_size=p, max_size=8))))
        moved = [list(row) for row in rows]
        for (a, b), m in zip(above, drawn_perturbation(
                data, *(rows[a][b] for a, b in above))):
            moved[a][b] = m

        def op(rows):
            return invariant(FramedNablaModule(sig, ConnectionMatrix(
                RingLabel.GAMMA_PLUS, tuple(tuple(map(DifferentialForm, row))
                                            for row in rows), p)), 9)

        want, got = op(rows), op(moved)
        for a in range(3):
            for b in range(3):
                assert_sound(lambda v: v.matrix.entries[a][b], (want,),
                             (got,))

    @given(data=st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_substitute_fiber(self, data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        b, b_moved = drawn_biseries(data, p)
        w, w_moved = drawn_section(data, p, PAdic.zero(p, UNMOVED_PREC))
        assert_sound(substitute_fiber, (b, w), (b_moved, w_moved))

    @pytest.mark.parametrize("parts", [(1, 1), (1, 1, 1)], ids=str)
    @given(data=st.data())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_line_integral(self, parts, data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        family, family_moved = drawn_family(data, p, Signature(parts))
        v, v_moved = drawn_section(data, p, PAdic(p, 0, 1, UNMOVED_PREC))
        assert_sound(line_integral, (family, v), (family_moved, v_moved),
                     lambda r: [e for row in r.matrix.entries for e in row])

    # Each entry of the curvature is a two-variable window: its columns are
    # compared one by one.
    @pytest.mark.parametrize("parts", [(1, 1), (1, 1, 1)], ids=str)
    @given(data=st.data())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_curvature(self, parts, data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        family, family_moved = drawn_family(data, p, Signature(parts))
        assert_sound(curvature, (family,), (family_moved,), lambda m: [
            col for row in m for e in row for col in e.cols])


# Read at abs_prec N, text claims every coefficient modulo p^N.  A literal
# moved by p^N * r is what those claims allow: read at N + 4, every
# coefficient must agree with the first reading modulo its claim.
READ_TERMS = st.lists(st.tuples(st.integers(0, 4), st.integers(-60, 60),
                                st.integers(1, 6)), min_size=1, max_size=6)


def literal_text(var, terms, trunc):
    """Series text with one literal per (degree, value) term, in order."""
    chunks = []
    for k, (d, c) in enumerate(terms):
        body = f"{abs(c)}*{var}^{d}"
        chunks.append(("-" if c < 0 else "") + body if k == 0
                      else (" - " if c < 0 else " + ") + body)
    return "".join(chunks) + f" + O({var}^{trunc})"


def drawn_texts(data, ring, p, n):
    """Series text over ring, and the same text with one literal moved by
    p^n * r."""
    low = -2 if ring.laurent else 0
    terms = [(d + low, Fraction(a, b)) for d, a, b in data.draw(READ_TERMS)]
    trunc = max(d for d, _ in terms) + data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, len(terms) - 1))
    r = data.draw(st.integers(-p ** 6, p ** 6))
    moved = list(terms)
    moved[k] = (terms[k][0], terms[k][1] + Fraction(p) ** n * r)
    return (literal_text(ring.variable, terms, trunc),
            literal_text(ring.variable, moved, trunc))


class TestReaderSoundness:
    """No coefficient the text and document readers make claims more than
    the literals they read allow."""

    @given(data=st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_series_text(self, data):
        ring, p = data.draw(SOUND_RINGS)
        n = data.draw(st.integers(1, 8))
        text, moved = drawn_texts(data, ring, p, n)

        def read(text, abs_prec):
            return parse_series(text, ring, p, abs_prec)

        assert_sound(read, (text, n), (moved, n + 4))

    @given(data=st.data())
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_connection_document(self, data):
        ring, p = data.draw(SOUND_RINGS)
        n = data.draw(st.integers(1, 8))
        text, moved = drawn_texts(data, ring, p, n)
        other = literal_text(ring.variable, [(0, 1), (1, -p)], 2)

        def read(cell, abs_prec, i, j):
            doc = {"ring": ring.value, "p": p, "abs_prec": abs_prec,
                   "trunc": 2, "connection": [["0", cell], [other, "0"]]}
            matrix, _, _ = load_connection_matrix(doc)
            return matrix.entries[i][j]

        for i in range(2):
            for j in range(2):
                assert_sound(read, (text, n, i, j), (moved, n + 4, i, j))


# -- sums of products ------------------------------------------------------

SUM_RINGS = st.tuples(
    st.sampled_from((RingLabel.FORMAL, RingLabel.GAMMA_PLUS, RingLabel.GAMMA,
                     RingLabel.ROBBA_PLUS, RingLabel.ROBBA)),
    st.sampled_from((2, 3, 5)))


def chain(pairs, *firsts):
    """The sum of firsts and of a * b over pairs as the chain of + it
    replaced, each product from a coefficient loop and each sum from
    ``loop_add``; one- or two-variable windows."""
    return reduce(loop_add, [*firsts, *(loop_bimul(a, b) if isinstance(
        a, BiSeries) else loop_mul(a, b) for a, b in pairs)])


class TestSumOfProducts:
    """The fused kernel gives the chain's window, values and per-coefficient
    abs_prec, on windows with zeros, negative valuations, mixed precisions,
    negative and offset min_degree and empty windows."""

    @given(st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_matches_the_chain(self, data):
        ring, p = drawn_ring(data, SUM_RINGS)
        pairs = [tuple(make_series(ring, p, data.draw(SERIES))
                       for _ in range(2))
                 for _ in range(data.draw(st.integers(1, 4)))]
        first = (make_series(ring, p, data.draw(SERIES))
                 if data.draw(st.booleans()) else None)
        firsts = [] if first is None else [first]
        got, want = _sum_of_products(pairs, *firsts), chain(pairs, *firsts)
        assert shown(got) == shown(want), (pairs, first)
        if ring.padic:
            assert list(map(fields, got.coeffs)) == \
                list(map(fields, want.coeffs)), (pairs, first)

    @pytest.mark.parametrize("with_first", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reduces_each_output_coefficient_once(self, monkeypatch, k,
                                                  with_first):
        rng = random.Random(f"sum-of-products/{k}/{with_first}")

        def window(lo):
            return series_from_coeffs(
                RingLabel.ROBBA, lo, [rng.randint(-80, 80) for _ in range(9)],
                3, rng.randint(4, 12))

        pairs = [(window(rng.randint(-2, 2)), window(rng.randint(-2, 2)))
                 for _ in range(k)]
        first = window(rng.randint(-3, 3)) if with_first else None
        calls = []
        for module in (lineint.coeff, lineint.series):
            def counted(*args, reduce_=module._reduce):
                calls.append(args)
                return reduce_(*args)
            monkeypatch.setattr(module, "_reduce", counted)
        result = _sum_of_products(pairs, *([] if first is None else [first]))
        assert len(result.coeffs) > 0
        assert len(calls) == len(result.coeffs)


# -- two-variable sums of products ------------------------------------------

BI_SUM_RINGS = st.tuples(
    st.sampled_from((RingLabel.FORMAL, RingLabel.GAMMA_PLUS,
                     RingLabel.ROBBA_PLUS)),
    st.sampled_from((2, 3, 5)))


class TestTwoVariableSumOfProducts:
    """``scheme._bi_sum_of_products``, through which ``BiSeries.__mul__``,
    ``curvature`` and so every product of two-variable windows go, gives
    the window, values and per-coefficient abs_prec of the chain of
    ``loop_add`` over the loop products, and reduces each output
    coefficient once."""

    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_the_chain(self, data):
        ring, p = drawn_ring(data, BI_SUM_RINGS)

        def drawn():
            x = make_biseries(ring, p, data.draw(WINDOW), data.draw(WINDOW),
                              data.draw(st.lists(RAW, min_size=16,
                                                 max_size=16)))
            return -x if data.draw(st.booleans()) else x

        pairs = [(drawn(), drawn())
                 for _ in range(data.draw(st.integers(1, 4)))]
        first = drawn() if data.draw(st.booleans()) else None
        firsts = [] if first is None else [first]
        want = chain(pairs, *firsts)
        got = _bi_sum_of_products(pairs, *firsts)
        assert shown(got) == shown(want), (pairs, first)
        if ring.padic:
            assert list(map(fields, got._flat_coeffs())) == \
                list(map(fields, want._flat_coeffs())), (pairs, first)

    @pytest.mark.parametrize("with_first", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reduces_each_output_coefficient_once(self, monkeypatch, k,
                                                  with_first):
        rng = random.Random(f"two-variable-sum/{k}/{with_first}")

        def window():
            tu, tx = rng.randint(2, 4), rng.randint(2, 4)
            return biseries_from_map(
                RingLabel.ROBBA_PLUS, {(i, j): rng.randint(-80, 80)
                                       for i in range(tu) for j in range(tx)},
                tu, tx, 3, rng.randint(4, 12))

        pairs = [(window(), window()) for _ in range(k)]
        first = window() if with_first else None
        calls = []
        for module in (lineint.coeff, lineint.series):
            def counted(*args, reduce_=module._reduce):
                calls.append(args)
                return reduce_(*args)
            monkeypatch.setattr(module, "_reduce", counted)
        result = _bi_sum_of_products(pairs,
                                     *([] if first is None else [first]))
        assert result.trunc_u * result.trunc_x > 0
        assert len(calls) == result.trunc_u * result.trunc_x


def test_section_pullback_adds_no_series(monkeypatch):
    """Each pulled form is one sum of products and w = v - 1 changes only
    the constant coefficient, so a p-adic pullback makes no series +."""
    gp = RingLabel.GAMMA_PLUS
    raws = list(range(10**6, 10**6 + 6 * 16 * 97, 97))
    parts = [make_biseries(gp, 3, 4, 4, raws[16 * k:]) for k in range(6)]
    zero = zero_biseries(gp, 4, 4, 3, 7)
    family = FramedFamily(Signature((1, 1, 1)), gp, (
        (BiForm(zero, zero), BiForm(parts[0], parts[1]),
         BiForm(parts[2], parts[3])),
        (BiForm(zero, zero), BiForm(zero, zero), BiForm(parts[4], parts[5])),
        (BiForm(zero, zero),) * 3), 3)
    v = series_from_coeffs(gp, 0, [1, 3, -2, 5, 1], 3, 9)
    calls = []
    add_ = TruncatedSeries.__add__

    def counted(self, other):
        calls.append(other)
        return add_(self, other)

    monkeypatch.setattr(TruncatedSeries, "__add__", counted)
    module = section_pullback(family, v)
    assert not module.connection.entries[0][1].is_zero
    assert calls == []


def left_the_kernel(*args):
    raise AssertionError("a sum of windows left _sum_of_products")


class TestOneSumOfWindows:
    """Every sum of windows is one ``_sum_of_products``: no p-adic sum adds
    two ``PAdic``, a rational sum of products makes no series * or +, and
    a p-adic + reduces each output coefficient once."""

    def test_padic_sums_add_no_coefficients(self, monkeypatch):
        rng = random.Random("one-sum/padic")

        def values(n):
            return [rng.randint(-80, 80) for _ in range(n)]

        a = series_from_coeffs(RingLabel.ROBBA, -2, values(8), 3, 9)
        b = series_from_coeffs(RingLabel.ROBBA, 0, values(5), 3, 6)
        # From degree -1 on, a term's window ends before y's.
        y = series_from_coeffs(RingLabel.GAMMA, -1, values(6), 3, 7)
        rp = RingLabel.ROBBA_PLUS
        parts = [biseries_from_map(rp, {(i, j): v for (i, j), v in zip(
            [(i, j) for i in range(3) for j in range(3)], values(9))},
            3, 3, 3, 8) for _ in range(4)]
        zero = zero_biseries(rp, 3, 3, 3, 8)
        family = FramedFamily(Signature((1, 1, 1)), rp, (
            (BiForm(zero, zero), BiForm(parts[0], parts[1]),
             BiForm(zero, zero)),
            (BiForm(zero, zero), BiForm(zero, zero),
             BiForm(parts[2], parts[3])),
            (BiForm(zero, zero),) * 3), 3)

        def results():
            return [shown(a + b), shown(a - b),
                    shown(padic_log_one_minus_py(y)),
                    [[shown(f) for f in row] for row in curvature(family)]]

        want = results()
        monkeypatch.setattr(PAdic, "__add__", left_the_kernel)
        monkeypatch.setattr(PAdic, "__radd__", left_the_kernel)
        assert results() == want

    def test_rational_sum_of_products_makes_no_series_operation(
            self, monkeypatch):
        rng = random.Random("one-sum/rational")

        def window(lo):
            return series_from_coeffs(RingLabel.FORMAL, lo, [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(6)])

        pairs = [(window(0), window(1)), (window(2), window(0))]
        first = window(1)
        want = chain(pairs, first)
        monkeypatch.setattr(TruncatedSeries, "__mul__", left_the_kernel)
        monkeypatch.setattr(TruncatedSeries, "__add__", left_the_kernel)
        assert shown(_sum_of_products(pairs, first)) == shown(want)

    def test_padic_sum_reduces_each_output_coefficient_once(self,
                                                            monkeypatch):
        # Degrees -2 and -1 lie below b's window; a + b reduces them too.
        a = series_from_coeffs(RingLabel.ROBBA, -2,
                               [5, -7, 11, 2, 0, 9, -4, 3], 3, 9)
        b = series_from_coeffs(RingLabel.ROBBA, 0, [8, 1, 0, -6, 13], 3, 6)
        calls = []
        for module in (lineint.coeff, lineint.series):
            def counted(*args, reduce_=module._reduce):
                calls.append(args)
                return reduce_(*args)
            monkeypatch.setattr(module, "_reduce", counted)
        result = a + b
        assert len(result.coeffs) == 7
        assert len(calls) == len(result.coeffs)


# -- trusted results --------------------------------------------------------

# The rings of the trusted-result test: exact rationals, an integral power
# series ring, an integral Laurent ring and a ring with denominators.
TRUSTED_RINGS = st.tuples(
    st.sampled_from((RingLabel.FORMAL, RingLabel.GAMMA_PLUS, RingLabel.GAMMA,
                     RingLabel.ROBBA_PLUS)),
    st.sampled_from(PRIMES))


def public(c):
    """A coefficient rebuilt through its public, checking constructor."""
    if isinstance(c, PAdic):
        return PAdic(c.prime, c.valuation, c.unit, c.abs_prec)
    return c


def rebuilt(s):
    """A kernel result rebuilt through the public constructors."""
    return TruncatedSeries(s.ring, s.min_degree,
                           tuple(map(public, s.coeffs)), s.trunc_order,
                           s.prime)


class TestTrustedResults:
    """Kernels build their results with unchecked constructors.  Each such
    result must pass every check of the public constructors, unchanged."""

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_series_operations(self, data):
        ring, p = drawn_ring(data, TRUSTED_RINGS)
        a = make_series(ring, p, data.draw(SERIES))
        b = make_series(ring, p, data.draw(SERIES))
        m, raws = data.draw(UNIT_SERIES)
        unit = make_series(ring, p, (m if ring.laurent else 0, raws),
                           unit_lead=True)
        lo, hi = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 8))
        for result in (a + b, a - b, -a, a * b, derive(a).series,
                       a.clipped(lo, hi), a.clipped(trunc_order=hi),
                       inverse(unit), dlog(unit).series):
            assert rebuilt(result) == result, (a, b, unit)

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_coefficient_operations(self, data):
        ring, p = data.draw(P_RINGS)
        x, y = (coefficient(ring, p, data.draw(RAW)) for _ in range(2))
        results = [x + y, x - y, -x, x * y]
        if not y.is_zero:
            results += [x / y, y.inverse()]
        for result in results:
            assert public(result) == result, (x, y)


def random_unit_values(rng, n, p):
    """n values whose first is a unit: of the integers mod p, or a nonzero
    rational when p is None."""
    first = rng.randint(1, 50) * rng.choice((-1, 1))
    if p is None:
        first = Fraction(first, rng.randint(1, 9))
    elif first % p == 0:
        first += 1
    return [first] + [rng.randint(-50, 50) if p else
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(n - 1)]


class TestTrustedDerivedSeries:
    """formal_log, unit_decompose, padic_log_one_minus_py and
    fundamental_solution build their windows unchecked, on seeded random
    inputs; rebuilt through TruncatedSeries(...), each comes back
    unchanged."""

    def test_formal_log_and_unit_decompose(self):
        rng = random.Random("trusted-series/formal")
        for _ in range(60):
            a = series_from_coeffs(RingLabel.FORMAL, 0, random_unit_values(
                rng, rng.randint(1, 12), None))
            for result in (formal_log(a), unit_decompose(a)[1]):
                assert rebuilt(result) == result, a

    def test_unit_decompose_over_gamma_plus(self):
        rng = random.Random("trusted-series/gamma+")
        for _ in range(60):
            p = rng.choice(PRIMES[:4])
            values = random_unit_values(rng, rng.randint(1, 12), p)
            a = series_from_coeffs(RingLabel.GAMMA_PLUS, 0, values, p,
                                   rng.randint(1, 12))
            w = unit_decompose(a)[1]
            assert rebuilt(w) == w, a

    @pytest.mark.parametrize("ring", [RingLabel.GAMMA_PLUS, RingLabel.GAMMA],
                             ids=lambda r: r.value)
    def test_padic_log_one_minus_py(self, ring):
        rng = random.Random(f"trusted-series/log/{ring.value}")
        for _ in range(40):
            p = rng.choice((2, 3, 5))
            lo = rng.randint(-2, 1) if ring.laurent else rng.randint(0, 1)
            y = series_from_coeffs(ring, lo, [
                rng.randint(-50, 50) for _ in range(rng.randint(0, 8))], p,
                rng.randint(1, 10))
            result = padic_log_one_minus_py(y)
            assert rebuilt(result) == result, y

    def test_fundamental_solution(self):
        rng = random.Random("trusted-series/fundsol")
        for _ in range(30):
            r, n = rng.randint(1, 3), rng.randint(1, 6)
            rows = tuple(tuple(DifferentialForm(series_from_coeffs(
                RingLabel.FORMAL, 0, [Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 9))
                                      for _ in range(n)]))
                for _ in range(r)) for _ in range(r))
            solution = fundamental_solution(
                ConnectionMatrix(RingLabel.FORMAL, rows), rng.randint(1, 8))
            for s in (s for row in solution for s in row):
                assert rebuilt(s) == s, rows


GP, G, RP = RingLabel.GAMMA_PLUS, RingLabel.GAMMA, RingLabel.ROBBA_PLUS

# What the public constructors and the operations whose check can fail must
# still refuse: the input and the error class.
BOUNDARY_REFUSALS = {
    "scale out of gamma+": (
        lambda: series_from_coeffs(GP, 0, [1, 1], 3).scale(Fraction(1, 3)),
        IntegralityError),
    "relabel 3^-1 into gamma+": (
        lambda: series_from_coeffs(RP, 0, [Fraction(1, 3)], 3).relabeled(GP),
        IntegralityError),
    "relabel degree -1 into gamma+": (
        lambda: series_from_coeffs(G, -1, [1, 1], 3).relabeled(GP),
        InvalidInputError),
    "zero_series below precision 0 in gamma+": (
        lambda: zero_series(GP, 0, 3, 3, -1), IntegralityError),
    "p-adic unit divisible by p": (
        lambda: PAdic(3, 0, 3, 5), InvalidInputError),
    "column on the wrong window": (
        lambda: BiSeries(GP, (zero_series(GP, 0, 2, 3),), 3, 3),
        InvalidInputError),
}


@pytest.mark.parametrize("build,error", BOUNDARY_REFUSALS.values(),
                         ids=list(BOUNDARY_REFUSALS))
def test_boundary_refuses(build, error):
    with pytest.raises(CalculusError) as info:
        build()
    assert type(info.value) is error
