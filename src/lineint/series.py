"""Truncated series windows over a family of coefficient rings.

A :class:`TruncatedSeries` stores the coefficients of degrees
``min_degree <= d < trunc_order``.  Below ``min_degree`` the series is
exactly zero (finitely supported Laurent window); from ``trunc_order``
upward nothing is known.  Operations propagate the window so that every
stored coefficient is provably correct:

    add:    [min(m_a, m_b), min(T_a, T_b))
    mul:    [m_a + m_b,     min(T_a + m_b, T_b + m_a))
    derive: trunc drops by one

Every sum of windows is one kernel over runs (a window's values from its
first degree, p-adic ones integers at one base), ``_sum_of_runs``:
``_sum_of_products`` reads windows into runs for ``+``, ``*``,
``padic_log_one_minus_py``, the ``trivialize`` integrand, each entry of
``series_matrix_product``, each pulled form of ``section_pullback`` and
each column of a two-variable sum of products; ``substitute_fiber`` sums
runs of the powers of w.  Over the p-adics it and ``inverse`` are lift and
reduce: every coefficient is the exact result on the operands' lifts
``p^v * unit`` (``PAdic.to_fraction``), reduced once modulo the power of p
it can prove.  The values of a product come from one multiply of the lifts
packed into one integer each (Kronecker substitution), those of
``inverse`` from long division on integers modulo one power of p; the
precisions from a min-plus pass over ``abs_prec`` and ``valuation_floor``
from what the sum's first terms claim.  Each degree of a pass is first
bounded below by prefix minima, its value when one side is one run, as a
parsed window's precisions are; only a degree the bound cannot settle
below the claim is scanned.
A p-adic ``dlog`` is derive(a) * inverse(a) on integers, building neither
window: da's lifts read off a's, the inverse's unreduced, one Kronecker
product.  Zeros lift to 0, so a zero coefficient costs only its precision.
Over the rationals the kernel adds exact ``_dot`` sums in the same loop,
and ``inverse``, ``dlog`` and ``formal_log`` are one integer quotient
each: the earlier coefficients held as integers over one running
denominator, the lcm of their reduced ones, each new one reduced by one
gcd, made into one ``Fraction`` and refused as ``coeff_text`` refuses it
before the next degree is computed.

Validation happens at the boundary, and values meet through one check,
``_check_member``: the kind, then one ring and prime, for the operands of
``+`` and ``*``, matrix entries, columns and sections.  Every dataclass that
checks itself in ``__post_init__`` (the windows here, the matrices, framed
modules and representatives of ``nabla`` and ``scheme``) inherits
``_Checked._trusted``, which builds it from fields known valid and skips the
check.
Coefficients meet through ``_check_coeffs``: kind, then prime, then
integrality, refused at the lowest degree.  ``TruncatedSeries(...)`` runs
it (on the results of ``scale`` and of a ``relabeled`` into a ring that may
refuse one); ``series_from_coeffs``, the one way from a value to a
coefficient for ``zero_series``, ``monomial``, ``biseries_from_map`` and
the text reader, only when a value can fail it, after converting ints and
Fractions; ``antiderive`` only into an integral ring.  These two, ``+``,
``-``, ``*``, ``clipped``, ``without_constant_term``, ``derive``,
``inverse``, ``dlog``, the logs, ``unit_decompose`` and the other relabels
build through ``_trusted`` and skip every other check.

Ring labels say which coefficient ring applies (exact rationals in
characteristic zero, p-adics otherwise), whether negative degrees are
allowed, whether coefficients must stay in the integer ring, and where
forms integrate (``antiderive_targets``, ``trivialize`` in the first).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from math import gcd, inf, lcm
from operator import add, eq, lt, mul, neg, sub

from .coeff import PAdic, _reduce, check_prime, vp_int
from .errors import (
    CannotDetermineDegreeError,
    DisjointWindowsError,
    InsufficientWindowError,
    IntegralityError,
    IntegralObstructionError,
    InvalidInputError,
    NonUnitError,
    NotIntegralError,
    _named,
)

DEFAULT_ABS_PREC = 20


class RingLabel(Enum):
    """Which series ring a window of coefficients lives in."""

    FORMAL = "formal"          # power series, exact rational coefficients
    GAMMA_PLUS = "gamma+"      # integral p-adic power series
    E_PLUS = "e+"              # p-adic power series, bounded denominators
    GAMMA = "gamma"            # integral p-adic Laurent series
    E = "e"                    # p-adic Laurent series, bounded denominators
    DAGGER = "dagger"          # overconvergent p-adic Laurent series
    ROBBA_PLUS = "robba+"      # p-adic power series, unbounded denominators
    ROBBA = "robba"            # p-adic Laurent series, Robba growth

    @property
    def laurent(self) -> bool:
        return self in (RingLabel.GAMMA, RingLabel.E, RingLabel.DAGGER,
                        RingLabel.ROBBA)

    @property
    def integral(self) -> bool:
        return self in (RingLabel.GAMMA_PLUS, RingLabel.GAMMA)

    @property
    def padic(self) -> bool:
        return self is not RingLabel.FORMAL

    @property
    def variable(self) -> str:
        return "t" if self is RingLabel.FORMAL else "u"

    @property
    def antiderive_targets(self) -> tuple:
        """The rings ``antiderive`` takes a form over this ring into: first
        where every form without residue integrates, then the integral one."""
        if not self.padic:
            return (self,)
        if self.laurent:
            return (RingLabel.ROBBA, RingLabel.GAMMA)
        return (RingLabel.ROBBA_PLUS, RingLabel.GAMMA_PLUS)


def _check_coeffs(ring: RingLabel, prime, min_degree: int, coeffs):
    """Refuse, at the lowest degree, a value from min_degree on that is not
    a coefficient of ring: not of its kind, then of another prime, then
    outside an integral ring.  The one check on a window's coefficients."""
    kind = PAdic if ring.padic else Fraction
    integral = ring.integral
    for d, c in enumerate(coeffs, min_degree):
        if not isinstance(c, kind):
            raise InvalidInputError(
                f"{_named('coefficient', c, repr)} at degree {d} is not a "
                f"value of ring {ring.value}")
        if kind is PAdic and c.prime != prime:
            raise InvalidInputError(
                f"coefficient at degree {d} has prime {c.prime}, "
                f"series has prime {prime}"
            )
        if integral and c.valuation_floor < 0:
            raise IntegralityError(
                f"{_named('coefficient', c)} at degree {d} is not integral, "
                f"required by ring {ring.value}"
            )


def _check_window(ring: RingLabel, min_degree: int, trunc_order: int,
                  prime):
    """What a one-variable window needs before it has any coefficient."""
    if trunc_order < min_degree:
        raise InvalidInputError(
            f"window [{min_degree}, {trunc_order}) is reversed")
    _check_ring_prime(ring, prime)
    if not ring.laurent and min_degree < 0:
        raise InvalidInputError(
            f"ring {ring.value} does not allow degree {min_degree}")


def _check_ring_prime(ring: RingLabel, prime):
    if ring.padic:
        if prime is None:
            raise InvalidInputError(f"ring {ring.value} needs a prime")
        check_prime(prime)
    elif prime is not None:
        raise InvalidInputError("rational ring takes no prime")


def _check_member(x, kind, ring, prime):
    """Refuse x unless it is a kind over ring and prime: see the module."""
    if not isinstance(x, kind):
        raise InvalidInputError(f"expected a {kind.__name__}, "
                                + _named("got", x, repr, ends=True))
    if x.ring is not ring or x.prime != prime:
        raise InvalidInputError(
            f"expected a {kind.__name__} over "
            f"{getattr(ring, 'value', repr(ring))} (p={prime}), got one over "
            f"{x.ring.value} (p={x.prime})")


def _dot(pairs):
    """The sum of x*y over pairs of rationals, exact zeros skipped: the
    rational kernel behind the series ``*`` and the layers of
    ``fundamental_solution``."""
    acc = Fraction(0)
    for x, y in pairs:
        if x and y:
            acc += x * y
    return acc


def _rational_quotient(num, den):
    """Yield (q_k, d_k), d_k > 0, in lowest terms for k below
    min(len(num), len(den)): Q_k = q_k/d_k of num/den, num integer pairs
    (y, z) for y/z, z > 0, den rationals with den[0] nonzero, by long
    division on integers.

    With 1/den[0] = w/u (u > 0), num[k] = y/z and r_j = den[j]/den[0] =
    a_j/b_j, Q_k = y*w/(z*u) - sum_(j=1..k) r_j * Q_(k-j).  For
    den[j] = y_j/z_j, r_j is y_j*w/(z_j*u) reduced by one gcd, so b_j > 0.
    The ratios share one denominator B, the lcm of the b_j, as integers
    R_j = a_j * (B/b_j), and the earlier Q_i share one running D, the lcm
    of d_0 ... d_(k-1), as integers P_i = Q_i * D.  Then
    B*D * Q_k = y*w * (B*D/(z*u)) - sum_j R_j * P_(k-j): k products,
    the y term brought onto lcm(z*u, B*D) by one gcd, and one gcd reduces
    it.  When d_k does not divide D, D and every P_i take the missing
    factor d_k/gcd(D, d_k).
    D stays small because it is an lcm of reduced denominators: at each
    prime it holds the largest power that any d_i holds.  Each Q_i enters
    the later Q_k through the ratios, so the longest d_i lacks such a
    power only where a numerator cancelled it, by chance: on drawn
    inverses and dlogs D is at most 27 bits longer than the longest d_i.
    Scaling every Q_k by a power of one integer instead, den[0] times the
    lcm of den's denominators, would not keep it small: for the inverse
    of exp(t) to 128 terms that integer is 127!, and Q_127 = -1/127! of
    710 bits would be held as an integer of 90,000 bits, where D is 126!
    and no P_i is longer."""
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
    lcm_b = lcm(*b)
    r = [x * (lcm_b // y) for x, y in zip(a, b)]
    p, lcm_d = [], 1
    for y, z in num[:n]:
        m = lcm_b * lcm_d
        s = -sum(map(mul, r, compress(reversed(p), nonzero)))
        if y:
            v = z * u
            g = gcd(v, m)
            s, m = s * (v // g) + y * w * (m // g), m * (v // g)
        g = gcd(s, m)
        if g > 1:
            s, m = s // g, m // g
        yield s, m
        f = m // gcd(lcm_d, m)
        if f > 1:
            lcm_d *= f
            p = [x * f for x in p]
        p.append(s * (lcm_d // m))


def _rational_dlog(a):
    """The quotient da/a for a rational unit a on [0, T), da's pairs
    (k*y_k, z_k) read off a's coefficients y_k/z_k."""
    return _rational_quotient([(k * x.numerator, x.denominator)
                               for k, x in enumerate(a.coeffs[1:], 1)],
                              a.coeffs)


def _rational_coeffs(pairs, first):
    """Fraction(q, d) for the integer pairs (q, d), d > 0, of the degrees
    from first on, each refused as ``coeff_text`` refuses it before the next
    pair is drawn.  Below 2^(3.32 * limit) <= 10^limit a number has at
    most limit digits, so only q or d of more bits is written out."""
    limit = sys.get_int_max_str_digits()
    bits = 3.32 * limit if limit else inf
    for degree, (q, d) in enumerate(pairs, first):
        c = Fraction(q, d)
        if (abs(q) | d).bit_length() > bits:
            coeff_text(c, degree)
        yield c


def coeff_text(c, degree) -> str:
    """str(c) for the coefficient of degree (an int, or a pair for two
    variables); invalid-input when a rational in it has more digits than
    Python writes out (sys.get_int_max_str_digits())."""
    try:
        return str(c)
    except ValueError:
        raise InvalidInputError(
            f"the coefficient of degree {degree} has more than "
            f"{sys.get_int_max_str_digits()} digits and cannot be printed"
        ) from None


def _pair_precisions(na, va, nb, vb, out):
    """out lowered, for every k below len(na), to the abs_prec
    min_(i<=k) min(na[i] + vb[k-i], nb[k-i] + va[i]) that the sum of the
    products a_i * b_(k-i) proves, from the abs_prec (n) and
    valuation_floor (v) lists of two windows of that length: the min-plus
    pass behind every p-adic product.  out holds what the rest of a sum
    already claims at each degree (inf for none) and is returned.

    Each half, min_(i+j=k) x_i + y_j, is at least its bound, the sum of
    the prefix minima min(x_0..k) + min(y_0..k), and equals it when x or y
    is one run (all its values equal): the least value of the other side
    then meets that run.  Every bound is at least min(x) + min(y), so a
    half whose min(x) + min(y) is at or above max(out) lowers nothing and
    is skipped.  A degree takes an exact half's bound, and a half is
    scanned there only when it is not exact and its bound is below out.
    So the pass is linear when one side of each half is one run, as for
    parsed and empty windows, and otherwise scans each degree at most
    twice, as a plain pass does."""
    n, cap, scans = len(na), max(out, default=-inf), []
    for x, y in ((na, vb), (nb, va)):
        if not n or min(x) + min(y) >= cap:  # the half lowers nothing
            continue
        bound = list(map(add, accumulate(x, min), accumulate(y, min)))
        if x.count(x[0]) == n or y.count(y[0]) == n:
            out = list(map(min, out, bound))
        else:
            scans.append((bound, x, y[::-1]))
    for bound, x, y in scans:
        # Reversed, y[n - 1 - k + i] is the floor of b[k - i] for x[i].
        for k in compress(range(n), map(lt, bound, out)):
            out[k] = min(out[k], min(map(add, x, y[n - 1 - k:])))
    return out


def _kronecker(xs, ys):
    """The first len(xs) coefficients of the product of two polynomials of
    that length with nonnegative integer coefficients: each is packed into
    one integer, slots wide enough that no coefficient carries into the
    next, and one multiply gives them all.  A product with an all-zero
    factor is all zero and skips the multiply."""
    n = len(xs)
    if not any(xs) or not any(ys):
        return [0] * n
    width = (max(xs).bit_length() + max(ys).bit_length()
             + n.bit_length() + 7) // 8

    def pack(zs):
        return int.from_bytes(b"".join([z.to_bytes(width, "little")
                                        for z in zs]), "little")

    prod = (pack(xs) * pack(ys)).to_bytes(2 * n * width, "little")
    return [int.from_bytes(prod[i:i + width], "little")
            for i in range(0, n * width, width)]


def _run(s):
    """A window as a run (first degree, end, base, values, abs_precs,
    valuation floors): over the p-adics the lifts p^v * unit as integers
    unit * p^(v - base) at their least valuation (0 if all vanish), a zero
    as 0; over the rationals the Fractions, exact, at base 0."""
    cs, p = s.coeffs, s.prime
    if p is None:
        return s.min_degree, s.trunc_order, 0, cs, repeat(inf), None
    w = min((c.valuation for c in cs if c.valuation is not None), default=0)
    return (s.min_degree, s.trunc_order, w,
            [0 if c.valuation is None else c.unit * p ** (c.valuation - w)
             for c in cs],
            [c.abs_prec for c in cs], [c.valuation_floor for c in cs])


def _sum_of_runs(p, pairs, firsts, end=inf):
    """The sum of the runs firsts and of the products of the pairs of runs
    on the window a chain of + gives, cut at end: an unreduced run (lo, hi,
    base, values, precisions), p None over the rationals.  A pair's term is
    the Kronecker product of its values at the sum of the bases, or exact
    ``_dot`` sums; the terms are summed at the least base, each value
    claiming the least precision of the terms whose window covers its
    degree: below a term's window it is an exact zero and caps nothing.
    The firsts' claims come first and each pair's pass only lowers the
    claims on its window, skipping what it cannot lower: min is exact in
    any order."""
    lo = min([a[0] + b[0] for a, b in pairs] + [f[0] for f in firsts])
    hi = max(min([min(a[1] + b[0], b[1] + a[0]) for a, b in pairs]
                 + [f[1] for f in firsts] + [end]), lo)
    terms = [(m, w, xs[:max(hi - m, 0)]) for m, _, w, xs, _, _ in firsts]
    precs = [inf] * (hi - lo)
    for m, _, _, _, ns, _ in firsts:
        precs[m - lo:hi - lo] = map(min, precs[m - lo:hi - lo], ns)
    for (ma, ea, wa, xa, na, va), (mb, eb, wb, xb, nb, vb) in pairs:
        m = ma + mb
        n = max(min(ea - ma, eb - mb, hi - m), 0)
        if p is None:
            terms.append((m, 0, [_dot(zip(xa[:k + 1], xb[k::-1]))
                                 for k in range(n)]))
        else:
            precs[m - lo:m - lo + n] = _pair_precisions(
                na[:n], va[:n], nb[:n], vb[:n], precs[m - lo:m - lo + n])
            terms.append((m, wa + wb, _kronecker(xa[:n], xb[:n])))
    if len(terms) == 1:  # one term spans the window: nothing to sum
        _, base, values = terms[0]
    else:
        base = min(w for _, w, _ in terms)
        values = [0] * (hi - lo)
        for m, w, xs in terms:
            i, j = m - lo, m - lo + len(xs)
            if w > base:
                xs = map(mul, xs, repeat(p ** (w - base)))
            values[i:j] = map(add, values[i:j], xs)
    return lo, hi, base, values, precs


def _window(ring, p, lo, hi, base, values, precs):
    """The window of an unreduced run, each p-adic value reduced once."""
    if p is not None:
        values = map(_reduce, repeat(p), repeat(base), values, precs)
    return TruncatedSeries._trusted(ring, lo, tuple(values), hi, p)


def _normalized(p, bases, values, precs):
    """(values, precs, floors) for p^base * value known modulo p^N, as
    ``_reduce`` then ``_run`` leave it: the value modulo p^(N - base), the
    floor base + v_p of that value (below N), N for a zero.  Rationals (p
    None) are exact and stay."""
    if p is None:
        return values, precs, None
    values = [x % p ** (n - e) if n > e else 0
              for e, x, n in zip(bases, values, precs)]
    floors = [e + vp_int(x, p) if x else n
              for e, x, n in zip(bases, values, precs)]
    return values, precs, floors


def _sum_of_products(pairs, *firsts):
    """The sum of the windows firsts and of a * b over the pairs (a, b), all
    of one ring: their runs summed, each p-adic coefficient reduced once."""
    head = pairs[0][0] if pairs else firsts[0]
    if not pairs and len(firsts) == 1:
        return head
    return _window(head.ring, head.prime, *_sum_of_runs(
        head.prime, [(_run(a), _run(b)) for a, b in pairs],
        list(map(_run, firsts))))


def _padic_inverse(a, p):
    """1/a for the coefficients a of a p-adic window whose first is nonzero,
    as a run of bases: (bases, values, precisions, floors), out_k being
    p^bases[k] * values[k], known modulo p^precisions[k], its value and
    floor ``_normalized``.  Reduced, each out_k is the exact inverse of the
    lifts modulo p^abs_prec.

    The precision is that of long division,
    out_k = -(sum_(j=1..k) a_j * out_(k-j)) * (1/a_0), with the pair
    precisions of ``*`` (N the abs_prec, vf the valuation_floor).  By
    induction on k two of its terms never bind: N(1/a_0) + vf(sum), and
    N(a_j) + vf(out_(k-j)) for j < k, as vf(out_i) >= vf(a_l) +
    vf(out_(i-l)) - v_0 for some l.  What is left is
    N(out_k) = min(N(a_k) - v_0, min_j N(out_(k-j)) + vf(a_j)) - v_0.
    As in ``_pair_precisions``, the inner minimum is at least a bound of
    prefix minima, min N(out_0..k-1) + min vf(a_1..k); when N(a_k) - v_0
    is at or below it, it is the minimum and degree k needs no scan.  So
    the precisions of one-run N(a) with vf(a_j) >= v_0, as for a parsed
    unit, take linear time.

    The values come from long division modulo one power of p after the
    substitution u -> p^c u, with c the least shift that leaves every
    a_i * p^(c*i - v_0) integral: out_k is p^(-v_0 - c*k) times the k-th
    coefficient b_k of that inverse.  Degree 0 is the unit of
    a_0.inverse(), known to more digits than the modulus covers when a
    has one coefficient."""
    v0 = a[0].valuation
    c = max([0] + [(v0 - x.valuation + i - 1) // i
                   for i, x in enumerate(a) if i and x.valuation is not None])
    # out_k needs b_k modulo p^(N(out_k) + v_0 + c*k), at most this.
    q = p ** max([1] + [x.abs_prec - v0 + c * i for i, x in enumerate(a)][1:])
    scaled = [0 if x.valuation is None
              else x.unit * p ** (x.valuation + c * i - v0) % q
              for i, x in enumerate(a)]
    vf = [x.valuation_floor for x in a]
    vf_least = list(accumulate(vf[1:], min))  # least vf(a_1..k) at k - 1
    inv0 = a[0].inverse()
    b, ns = [pow(scaled[0], -1, q)], [inv0.abs_prec]
    least = ns[0]  # the least N(out_0..k-1)
    for k in range(1, len(a)):
        b.append(sum(map(mul, scaled[1:k + 1], b[k - 1::-1])) * -b[0] % q)
        n_k = a[k].abs_prec - v0
        if n_k > least + vf_least[k - 1]:  # the bound does not settle k
            n_k = min(n_k, min(map(add, ns[k - 1::-1], vf[1:k + 1])))
        ns.append(n_k - v0)
        least = min(least, ns[k])
    b[0] = inv0.unit
    bases = [-v0 - c * k for k in range(len(a))]
    return (bases, *_normalized(p, bases, b, ns))


def _max_abs_prec(coeffs) -> int:
    """The largest abs_prec among p-adic coefficients; the default if none."""
    return max((c.abs_prec for c in coeffs if isinstance(c, PAdic)),
               default=DEFAULT_ABS_PREC)


class _Checked:
    """A dataclass that checks itself in __post_init__."""

    @classmethod
    def _trusted(cls, *fields):
        """An instance of these fields in order, unchecked: see the module."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls.__dataclass_fields__, fields))
        return obj


class _CoeffWindow(_Checked):
    """What one- and two-variable windows share: zeros at working precision,
    the zero test and subtraction.  A window is a dataclass with ring,
    prime, _flat_coeffs() (every stored coefficient), + and unary -."""

    def _zero_coeff(self):
        return _materialize_zero(self.ring, self.prime, self._working_prec())

    def _working_prec(self) -> int:
        return _max_abs_prec(self._flat_coeffs())

    @property
    def is_zero(self) -> bool:
        """All stored coefficients vanish (at their precision, for p-adics)."""
        return all(map(_coeff_is_zero, self._flat_coeffs()))

    def __sub__(self, other):
        return self + (-other)


@dataclass(frozen=True, eq=False)
class TruncatedSeries(_CoeffWindow):
    """Coefficients of degrees [min_degree, trunc_order) over a labeled ring."""

    ring: RingLabel
    min_degree: int
    coeffs: tuple
    trunc_order: int
    prime: int | None = None

    def __post_init__(self):
        _check_window(self.ring, self.min_degree, self.trunc_order,
                      self.prime)
        if len(self.coeffs) != self.trunc_order - self.min_degree:
            raise InvalidInputError(
                f"{len(self.coeffs)} coefficients do not fill window "
                f"[{self.min_degree}, {self.trunc_order})"
            )
        _check_coeffs(self.ring, self.prime, self.min_degree, self.coeffs)

    # -- basic views -------------------------------------------------------

    def _at(self, d: int):
        """Stored coefficient, or None for the exact zero below the window."""
        if d < self.min_degree:
            return None
        if d >= self.trunc_order:
            raise InsufficientWindowError(
                f"degree {d} is beyond the known window "
                f"[{self.min_degree}, {self.trunc_order})"
            )
        return self.coeffs[d - self.min_degree]

    def coefficient(self, d: int):
        """The coefficient of degree d; exact zero below the window."""
        c = self._at(d)
        return self._zero_coeff() if c is None else c

    def constant_term(self):
        return self.coefficient(0)

    def _flat_coeffs(self):
        return self.coeffs

    def order(self) -> int | None:
        """Lowest degree with a nonvanishing stored coefficient."""
        for i, c in enumerate(self.coeffs):
            if not _coeff_is_zero(c):
                return self.min_degree + i
        return None

    # -- shape adjustments ---------------------------------------------------

    def clipped(self, min_degree=None, trunc_order=None) -> "TruncatedSeries":
        """Restrict to a narrower window (never widens)."""
        lo = self.min_degree if min_degree is None else max(min_degree,
                                                            self.min_degree)
        hi = self.trunc_order if trunc_order is None else min(trunc_order,
                                                              self.trunc_order)
        hi = max(hi, lo)
        return TruncatedSeries._trusted(
            self.ring, lo,
            self.coeffs[lo - self.min_degree:hi - self.min_degree],
            hi, self.prime,
        )

    def relabeled(self, ring: RingLabel) -> "TruncatedSeries":
        """The same window of coefficients viewed in another ring, checked
        only where the target may refuse one: an integral ring, another
        coefficient kind or a negative degree in a power-series ring."""
        make = (TruncatedSeries._trusted if ring.padic == self.ring.padic
                and not ring.integral
                and (ring.laurent or self.min_degree >= 0)
                else TruncatedSeries)
        return make(ring, self.min_degree, self.coeffs, self.trunc_order,
                    self.prime)

    def without_constant_term(self) -> "TruncatedSeries":
        if 0 < self.min_degree or 0 >= self.trunc_order:
            return self
        coeffs = list(self.coeffs)
        coeffs[-self.min_degree] = self._zero_coeff()
        return TruncatedSeries._trusted(self.ring, self.min_degree,
                                        tuple(coeffs), self.trunc_order,
                                        self.prime)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        _check_member(other, TruncatedSeries, self.ring, self.prime)
        return _sum_of_products([], self, other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(self.ring, self.min_degree,
                                        tuple(-c for c in self.coeffs),
                                        self.trunc_order, self.prime)

    def __mul__(self, other):
        if isinstance(other, DifferentialForm):
            return DifferentialForm(self * other.series)
        _check_member(other, TruncatedSeries, self.ring, self.prime)
        return _sum_of_products([(self, other)])

    def scale(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by the same scalar."""
        return TruncatedSeries(self.ring, self.min_degree,
                               tuple(x * c for x in self.coeffs),
                               self.trunc_order, self.prime)

    # -- comparison ----------------------------------------------------------

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficientwise agreement on the overlap of the known windows.

        Ring labels may differ; coefficient kind and prime must match.
        Raises when the windows have no common degree.
        """
        if self.ring.padic != other.ring.padic or self.prime != other.prime:
            raise InvalidInputError("cannot compare across coefficient rings")
        lo = max(self.min_degree, other.min_degree)
        hi = min(self.trunc_order, other.trunc_order)
        if hi <= lo:
            raise DisjointWindowsError(
                f"windows [{self.min_degree}, {self.trunc_order}) and "
                f"[{other.min_degree}, {other.trunc_order}) share no degree"
            )
        return all(self._at(d) == other._at(d) for d in range(lo, hi))

    def __eq__(self, other) -> bool:
        """Structural equality: same label, same window, same coefficients."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring is other.ring and self.prime == other.prime
                and self.min_degree == other.min_degree
                and self.trunc_order == other.trunc_order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs)
        return (f"TruncatedSeries({self.ring.value}, "
                f"[{self.min_degree}, {self.trunc_order}), [{inner}])")


def _coeff_is_zero(c) -> bool:
    return c.is_zero if isinstance(c, PAdic) else c == 0


class _Form:
    """What one- and two-variable one-forms share.  A form is a dataclass
    whose fields are its component windows, all over one ring and prime;
    the first field carries them, and the algebra acts field by field."""

    def _parts(self):
        return [getattr(self, f) for f in self.__match_args__]

    def _map(self, op, *others):
        for o in others:
            _check_member(o, type(self), self.ring, self.prime)
        return type(self)(*map(op, self._parts(),
                               *(o._parts() for o in others)))

    @property
    def ring(self) -> RingLabel:
        return getattr(self, self.__match_args__[0]).ring

    @property
    def prime(self) -> int | None:
        return getattr(self, self.__match_args__[0]).prime

    @property
    def is_zero(self) -> bool:
        return all(w.is_zero for w in self._parts())

    def __add__(self, other):
        return self._map(add, other)

    def __neg__(self):
        return self._map(neg)

    def __sub__(self, other):
        return self._map(sub, other)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(map(eq, self._parts(), other._parts()))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class DifferentialForm(_Form):
    """A one-form (series) * d(variable) on the punctured formal disk."""

    series: TruncatedSeries

    def __post_init__(self):
        s = self.series
        _check_member(s, TruncatedSeries, getattr(s, "ring", None),
                      getattr(s, "prime", None))

    def agrees_with(self, other: "DifferentialForm") -> bool:
        return self.series.agrees_with(other.series)

    def __repr__(self):
        return f"DifferentialForm({self.series!r} d{self.ring.variable})"


# -- constructors -----------------------------------------------------------


def _materialize_zero(ring: RingLabel, prime, abs_prec):
    if ring.padic:
        return PAdic.zero(prime, abs_prec)
    return Fraction(0)


def zero_series(ring: RingLabel, min_degree: int, trunc_order: int,
                prime: int | None = None,
                abs_prec: int = DEFAULT_ABS_PREC) -> TruncatedSeries:
    _check_window(ring, min_degree, trunc_order, prime)
    return series_from_coeffs(ring, min_degree,
                              [0] * (trunc_order - min_degree), prime,
                              abs_prec)


def one_series(ring: RingLabel, trunc_order: int, prime: int | None = None,
               abs_prec: int = DEFAULT_ABS_PREC) -> TruncatedSeries:
    return monomial(ring, 1, 0, trunc_order, prime, abs_prec)


def monomial(ring: RingLabel, value, degree: int, trunc_order: int,
             prime: int | None = None,
             abs_prec: int = DEFAULT_ABS_PREC) -> TruncatedSeries:
    """value * x^degree + O(x^trunc_order)."""
    if degree >= trunc_order:
        raise InvalidInputError(
            f"monomial degree {degree} not inside window ending {trunc_order}"
        )
    return series_from_coeffs(ring, degree,
                              [value] + [0] * (trunc_order - degree - 1),
                              prime, abs_prec)


def series_from_coeffs(ring: RingLabel, min_degree: int, values,
                       prime: int | None = None,
                       abs_prec: int = DEFAULT_ABS_PREC) -> TruncatedSeries:
    """The window of values from min_degree on: the one way from a value to
    a coefficient.  A value is an int (not a bool), a Fraction or, over a
    p-adic ring, a PAdic of its prime, kept as it is.  Over the p-adics an
    int is p^0 * n mod p^abs_prec and a Fraction goes through
    PAdic.from_rational; each 0 is one shared zero.  The converted window
    goes through ``_check_coeffs`` only where it can fail: for a value of
    another kind, a Fraction in an integral ring or an abs_prec below 0."""
    _check_window(ring, min_degree, min_degree, prime)
    padic = ring.padic
    zero = _materialize_zero(ring, prime, abs_prec)
    coeffs, check, integral = [], abs_prec < 0, ring.integral
    for v in values:
        if type(v) is int:
            c = zero if not v else _reduce(prime, 0, v, abs_prec) if padic \
                else Fraction(v)
        elif isinstance(v, Fraction):
            c = PAdic.from_rational(v, prime, abs_prec) if padic else v
            check |= integral
        else:
            c, check = v, True
        coeffs.append(c)
    if check:
        _check_coeffs(ring, prime, min_degree, coeffs)
    return TruncatedSeries._trusted(ring, min_degree, tuple(coeffs),
                                    min_degree + len(coeffs), prime)


# -- calculus -----------------------------------------------------------------


def derive(s: TruncatedSeries) -> DifferentialForm:
    """Termwise derivative d(sum x_j u^j) = (sum j x_j u^(j-1)) du."""
    lo = s.min_degree - 1
    if not s.ring.laurent:
        lo = max(lo, 0)
    hi = max(s.trunc_order - 1, lo)
    coeffs = tuple(s._at(d + 1) * (d + 1) for d in range(lo, hi))
    return DifferentialForm(
        TruncatedSeries._trusted(s.ring, lo, coeffs, hi, s.prime))


def antiderive(f: DifferentialForm, target: RingLabel) -> TruncatedSeries:
    """The antiderivative with zero constant term, in the target ring.

    A coefficient in degree -1 that is not (provably) zero has no series
    antiderivative; the error carries that residue.
    """
    s = f.series
    allowed = s.ring.antiderive_targets
    if target not in allowed:
        raise InvalidInputError(
            f"cannot integrate a form over {s.ring.value} into {target.value}; "
            f"allowed targets: {', '.join(r.value for r in allowed)}"
        )
    if s.min_degree <= -1 < s.trunc_order:
        res = s._at(-1)
        if not _coeff_is_zero(res):
            raise IntegralObstructionError(
                "form has nonzero residue, no series antiderivative exists",
                res,
            )
    lo = s.min_degree + 1
    hi = s.trunc_order + 1
    coeffs = []
    for d in range(lo, hi):
        if d == 0:
            coeffs.append(_materialize_zero(target, s.prime, s._working_prec()))
        else:
            coeffs.append(s._at(d - 1) / d)
    if target.integral:
        try:
            _check_coeffs(target, s.prime, lo, coeffs)
        except IntegralityError as exc:
            raise IntegralityError(
                f"antiderivative leaves the integer ring: {exc}"
            ) from None
    return TruncatedSeries._trusted(target, lo, tuple(coeffs), hi, s.prime)


def residue(f: DifferentialForm):
    """The coefficient of degree -1 of a one-form."""
    s = f.series
    if not s.ring.laurent:
        return s._zero_coeff()
    if s.trunc_order <= -1:
        raise InsufficientWindowError(
            f"window [{s.min_degree}, {s.trunc_order}) does not determine "
            "the degree -1 coefficient"
        )
    return s.coefficient(-1)


def inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a unit, by long division.

    Power-series rings need an invertible constant term; Laurent rings need
    the lowest known coefficient to be a unit of the integer ring, otherwise
    the inverse is not a finitely supported Laurent window at all.
    """
    _check_invertible(a)
    m, n = a.min_degree, len(a.coeffs)
    if a.ring.padic:
        bases, values, ns, _ = _padic_inverse(a.coeffs, a.prime)
        out = map(_reduce, repeat(a.prime), bases, values, ns)
    else:
        out = _rational_coeffs(_rational_quotient(
            [(1, 1)] + [(0, 1)] * (n - 1), a.coeffs), -m)
    return TruncatedSeries._trusted(a.ring, -m, tuple(out), -m + n, a.prime)


def _check_invertible(a: TruncatedSeries):
    """Raise unless inverse accepts a."""
    if len(a.coeffs) == 0:
        raise InsufficientWindowError("cannot invert: empty window")
    if not a.ring.laurent:
        _unit_constant_term(a)
    elif a.coeffs[0].valuation != 0:
        raise NonUnitError(
            f"lowest known coefficient (degree {a.min_degree}) must be a "
            "unit of the integer ring, "
            + _named("got", a.coeffs[0], ends=True))


def dlog(a: TruncatedSeries) -> DifferentialForm:
    """The logarithmic derivative da/a as a one-form.  Over the rationals it
    is one quotient, ``_rational_dlog``.  Over the p-adics it is
    derive(a) * inverse(a) made on integers, with one ``_reduce`` per output
    coefficient: the lifts of da are d * lift(a_d), known modulo
    p^(N + v_p(d)) (an exact zero at N for d = 0), the inverse's are the
    unreduced values of ``_padic_inverse``, and one Kronecker product and
    one min-plus pass give the rest.  A lift congruent to the reduced one
    moves each term by at least N_x + vf_y, at or above the claim, so every
    coefficient is that product's."""
    _check_invertible(a)
    if not a.ring.padic:  # a power series: a window [0, T)
        out = tuple(_rational_coeffs(_rational_dlog(a), 0))
        return DifferentialForm(
            TruncatedSeries._trusted(a.ring, 0, out, len(out), None))
    p, n = a.prime, len(a.coeffs)
    s = 0 if a.ring.laurent else 1  # a power series' constant term drops
    _, _, w, lifts, na, va = _run(a)
    # The inverse's first k coefficients need only a's first k.
    bases, ys, nb, vb = _padic_inverse(a.coeffs[:max(n - s, 1)], p)
    xs, nx, vx = [], [], []
    for d, x, n_d, v_d in zip(range(a.min_degree + s, a.trunc_order),
                              lifts[s:], na[s:], va[s:]):
        k = vp_int(d, p) if d else 0
        x *= d
        # A Kronecker slot takes a nonnegative representative.
        xs.append(x % p ** (n_d + k - w) if x < 0 else x)
        nx.append(n_d + k)
        vx.append(v_d + k if d else n_d)
    if bases[0] != bases[-1]:  # u -> p^c u: put da on the inverse's bases
        xs = [x * p ** (bases[0] - e) for x, e in zip(xs, bases)]
    m = n - s
    out = map(_reduce, repeat(p), [w + e for e in bases[:m]],
              _kronecker(xs, ys[:m]),
              _pair_precisions(nx, vx, nb[:m], vb[:m], [inf] * m))
    return DifferentialForm(
        TruncatedSeries._trusted(a.ring, s - 1, tuple(out), n - 1, p))


def degree_of_unit(x: TruncatedSeries) -> int:
    """Lowest degree whose coefficient is a unit of the integer ring."""
    if not x.ring.padic:
        raise InvalidInputError("degree_of_unit needs p-adic coefficients")
    for i, c in enumerate(x.coeffs):
        if c.is_zero:
            continue
        if c.valuation < 0:
            raise NotIntegralError(
                f"{_named('coefficient', c)} at degree {x.min_degree + i} "
                "is not integral")
        if c.valuation == 0:
            return x.min_degree + i
    raise CannotDetermineDegreeError(
        "reduction mod p vanishes on the whole known window "
        f"[{x.min_degree}, {x.trunc_order})"
    )


def _unit_constant_term(a: TruncatedSeries):
    """The constant term of a power-series unit; raises if a is none."""
    if a.trunc_order <= 0:
        raise InsufficientWindowError("window does not show the constant term")
    if a.min_degree > 0 or _coeff_is_zero(a.coeffs[0]):
        raise NonUnitError("constant term vanishes")
    c = a.coeffs[0]
    if a.ring.integral and c.valuation != 0:
        raise NonUnitError(
            f"{_named('constant term', c)} is not a unit of the integer ring"
        )
    return c


def unit_decompose(a: TruncatedSeries):
    """Split a power-series unit as c * (1 - w) with w of positive order.

    Returns the pair (c, w)."""
    if a.ring not in (RingLabel.FORMAL, RingLabel.GAMMA_PLUS):
        raise InvalidInputError(
            f"unit_decompose is defined over {RingLabel.FORMAL.value} and "
            f"{RingLabel.GAMMA_PLUS.value}, not {a.ring.value}"
        )
    c = _unit_constant_term(a)
    w = -a.scale(c.inverse() if a.ring.padic else 1 / c)
    one = PAdic.one(a.prime, c.rel_prec) if a.ring.padic else Fraction(1)
    # w starts at degree 0 as the unit does; integral terms sum integrally.
    return c, TruncatedSeries._trusted(w.ring, 0, (w.coeffs[0] + one,)
                                       + w.coeffs[1:], w.trunc_order, w.prime)


def formal_log(a: TruncatedSeries) -> TruncatedSeries:
    """Logarithm of a power-series unit, up to the kernel of constants.

    The result is the antiderivative of dlog(a) = da/a with zero constant
    term, on the window [0, T) of a: the exact zero of degree 0 is stored,
    so the window starts at 0 as the input's does.  With a = c * (1 - w)
    this equals -sum(w^n / n) truncated at T.  No window is built between:
    degree k is Fraction(q, k * d) for the dlog quotient's (q, d) at k - 1."""
    if a.ring is not RingLabel.FORMAL:
        raise InvalidInputError(
            f"formal_log works over {RingLabel.FORMAL.value}; "
            "use the p-adic logarithms for p-adic rings"
        )
    _unit_constant_term(a)
    out = _rational_coeffs(((q, k * d) for k, (q, d)
                            in enumerate(_rational_dlog(a), 1)), 1)
    return TruncatedSeries._trusted(a.ring, 0, (Fraction(0), *out),
                                    a.trunc_order, None)


def padic_log_one_minus_py(y: TruncatedSeries) -> TruncatedSeries:
    """The p-adic logarithm of 1 - p*y for integral y, as -sum((p*y)^n / n).

    The sum is truncated at the first n with n - floor(log_p(n)) at or above
    the working precision; beyond it every term vanishes modulo p^prec.  It
    is one ``_sum_of_products`` of the terms and the zero window at that
    precision, each term padded to the end of y's window with zeros at
    n - v_p(n), the valuation it is known to have where its own window
    ends.  The output is integral."""
    if not y.ring.integral:
        raise InvalidInputError(
            f"padic_log_one_minus_py needs an integral ring, got {y.ring.value}"
        )
    p = y.prime
    if len(y.coeffs) == 0:
        return y
    n_work = y._working_prec()
    n_terms = next(n for n in count(1) if n - _floor_log(n, p) >= n_work) - 1
    m, t = y.min_degree, y.trunc_order
    terms = [zero_series(y.ring, min(m, n_terms * m), t, p, n_work)]
    py = power = y.scale(p)
    for n in range(1, n_terms + 1):
        term = power.scale(Fraction(-1, n))
        tail = (PAdic.zero(p, n - vp_int(n, p)),) * (t - term.trunc_order)
        # scale checked the term's integrality, and a zero tail is integral.
        terms.append(TruncatedSeries._trusted(
            y.ring, term.min_degree, term.coeffs + tail,
            max(term.trunc_order, t), p))
        if n < n_terms:
            power = power * py
    return _sum_of_products([], *terms)


def _floor_log(n: int, p: int) -> int:
    k, q = 0, p
    while q <= n:
        k += 1
        q *= p
    return k


def padic_log_dagger(v: TruncatedSeries) -> TruncatedSeries:
    """The overconvergent logarithm: the zero-constant antiderivative of dv/v."""
    if v.ring is not RingLabel.GAMMA_PLUS:
        raise InvalidInputError(
            f"padic_log_dagger takes a unit over {RingLabel.GAMMA_PLUS.value}, "
            f"got {v.ring.value}"
        )
    return antiderive(dlog(v), RingLabel.ROBBA_PLUS)


def valuation_profile(s: TruncatedSeries) -> list[tuple[int, int]]:
    """(degree, valuation) for every nonvanishing stored coefficient."""
    if not s.ring.padic:
        raise InvalidInputError("valuation profile needs p-adic coefficients")
    return [
        (s.min_degree + i, c.valuation)
        for i, c in enumerate(s.coeffs)
        if not c.is_zero
    ]


def unboundedness_witness(s: TruncatedSeries, m: int) -> bool:
    """Check the valuation pattern v_p(coefficient at m*p^i) = -i.

    True when the pattern holds for every i >= 1 with m*p^i inside the
    window; at least two such degrees must be visible."""
    if not s.ring.padic:
        raise InvalidInputError("unboundedness witness needs p-adic coefficients")
    if m < 1:
        raise InvalidInputError(f"base degree must be positive, got {m}")
    p = s.prime
    checks = []
    i, deg = 1, m * p
    while deg < s.trunc_order:
        checks.append((i, deg))
        i += 1
        deg *= p
    if len(checks) < 2:
        raise InsufficientWindowError(
            f"window ends at {s.trunc_order}, needs to reach degree "
            f"{m * p * p} to see two probe degrees"
        )
    for i, deg in checks:
        c = s._at(deg)
        if c is None or c.valuation != -i:
            return False
    return True
