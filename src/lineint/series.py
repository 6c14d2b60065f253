"""Truncated series windows over a family of coefficient rings.

A :class:`TruncatedSeries` stores the coefficients of degrees
``min_degree <= d < trunc_order``.  Below ``min_degree`` the series is
exactly zero (finitely supported Laurent window); from ``trunc_order``
upward nothing is known.  Operations propagate the window so that every
stored coefficient is provably correct:

    add:    [min(m_a, m_b), min(T_a, T_b))
    mul:    [m_a + m_b,     min(T_a + m_b, T_b + m_a))
    derive: trunc drops by one

A p-adic ``*`` or ``inverse`` is lift and reduce.  Every coefficient it
returns equals the exact result on the operands' lifts ``p^v * unit``
(``PAdic.to_fraction``), reduced modulo the power of p it can prove, so
values and precisions are computed apart.  The values of ``*`` come from
one multiply of the lifts packed into one integer each (Kronecker
substitution), those of ``inverse`` from long division on integers modulo
one power of p; the precisions come from a min-plus pass over the
operands' ``abs_prec`` and ``valuation_floor``.  Zeros lift to 0, so a
zero coefficient costs only its precision.  Over the rationals ``*`` sums
exact products, and ``inverse`` and ``dlog`` are one quotient each: long
division on integers, each coefficient a numerator over its own reduced
denominator, with one ``Fraction`` built per output coefficient.

Ring labels say which coefficient ring applies (exact rationals in
characteristic zero, p-adics otherwise), whether negative degrees are
allowed, and whether coefficients must stay in the integer ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, floordiv, mul

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


def _check_coeff(ring: RingLabel, prime, c, degree: int):
    if ring.padic:
        if not isinstance(c, PAdic):
            raise InvalidInputError(
                f"ring {ring.value} needs p-adic coefficients, got {c!r}"
            )
        if c.prime != prime:
            raise InvalidInputError(
                f"coefficient at degree {degree} has prime {c.prime}, "
                f"series has prime {prime}"
            )
        if ring.integral and c.valuation_floor < 0:
            raise IntegralityError(
                f"coefficient {c} at degree {degree} is not integral, "
                f"required by ring {ring.value}"
            )
    else:
        if not isinstance(c, Fraction):
            raise InvalidInputError(
                f"ring {ring.value} needs rational coefficients, got {c!r}"
            )


def _check_ring_prime(ring: RingLabel, prime):
    if ring.padic:
        if prime is None:
            raise InvalidInputError(f"ring {ring.value} needs a prime")
        check_prime(prime)
    elif prime is not None:
        raise InvalidInputError("rational ring takes no prime")


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
    """The first min(len(num), len(den)) coefficients of num/den for two
    windows of rationals with den[0] nonzero, by long division on integers.

    With 1/den[0] = w/u, num[k] = y/z and r_j = den[j]/den[0] = a_j/b_j
    in lowest terms, Q_k = y*w/(z*u) - sum_(j=1..k) r_j * Q_(k-j).
    Each Q_k is kept as q_k/d_k in lowest terms: with m the lcm of the
    b_j * d_(k-j) over the nonzero r_j and, if y is nonzero, of z*u,
    m * Q_k = y*w * (m/(z*u)) - sum_j a_j * (m/(b_j * d_(k-j))) * q_(k-j),
    and one gcd reduces it.  Reduced denominators keep each integer the
    size of its coefficient.  Scaling every Q_k by a power of one integer
    instead, den[0] times the lcm of den's denominators, would not: for
    the inverse of exp(t) to 128 terms that integer is 127!, and Q_127 =
    -1/127! of 710 bits would be held as an integer of 90,000 bits."""
    n = min(len(num), len(den))
    u, w = den[0].numerator, den[0].denominator
    nonzero = [bool(y) for y in den[1:n]]
    r = [y / den[0] for y in compress(den[1:n], nonzero)]
    a, b = [y.numerator for y in r], [y.denominator for y in r]
    q, d = [], []
    for x in num[:n]:
        bd = list(map(mul, b, compress(reversed(d), nonzero)))
        v = x.denominator * u
        m = lcm(v, *bd) if x else lcm(*bd)
        s = -sum(map(mul, map(mul, a, map(floordiv, repeat(m), bd)),
                     compress(reversed(q), nonzero)))
        if x:
            s += x.numerator * w * (m // v)
        g = gcd(s, m)
        if g > 1:
            s, m = s // g, m // g
        q.append(s)
        d.append(m)
    return tuple(map(Fraction, q, d))


def _pair_precisions(a, b):
    """For every k below len(a) == len(b), the abs_prec
    min_(i<=k) min(N_a[i] + vf_b[k-i], N_b[k-i] + vf_a[i]) that the sum of
    the products a_i * b_(k-i) proves, N the abs_prec and vf the
    valuation_floor: the min-plus pass behind every p-adic ``*``."""
    na, va = [x.abs_prec for x in a], [x.valuation_floor for x in a]
    nb, vb = ([y.abs_prec for y in b[::-1]],
              [y.valuation_floor for y in b[::-1]])
    top = len(a) - 1
    # map stops at the shorter list: na[i] meets vb[top - k + i], the
    # valuation_floor of b[k - i], for i <= k.
    return [min(min(map(add, na, vb[top - k:])),
                min(map(add, nb[top - k:], va)))
            for k in range(len(a))]


def _lifts(coeffs, p):
    """(w, lifts): each lift p^v * unit of the p-adic coefficients as the
    integer unit * p^(v - w), w their least valuation (0 if all vanish);
    a zero lifts to 0."""
    w = min((c.valuation for c in coeffs if c.valuation is not None),
            default=0)
    return w, [0 if c.valuation is None else c.unit * p ** (c.valuation - w)
               for c in coeffs]


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


def _padic_product(a, b, p):
    """The coefficients of degrees < min(len(a), len(b)) of the product of
    two p-adic coefficient windows, each the exact product of the lifts
    reduced modulo p^abs_prec."""
    n = min(len(a), len(b))
    if n == 0:
        return ()
    a, b = a[:n], b[:n]
    (wa, xs), (wb, ys) = _lifts(a, p), _lifts(b, p)
    return tuple(_reduce(p, wa + wb, x, prec)
                 for x, prec in zip(_kronecker(xs, ys),
                                    _pair_precisions(a, b)))


def _padic_inverse(a, p):
    """The coefficients of 1/a for a p-adic window a whose first coefficient
    is nonzero, each the exact inverse of the lifts reduced modulo
    p^abs_prec.

    The precision is that of long division,
    out_k = -(sum_(j=1..k) a_j * out_(k-j)) * (1/a_0), with the pair
    precisions of ``*`` (N the abs_prec, vf the valuation_floor).  By
    induction on k two of its terms never bind: N(1/a_0) + vf(sum), and
    N(a_j) + vf(out_(k-j)) for j < k, as vf(out_i) >= vf(a_l) +
    vf(out_(i-l)) - v_0 for some l.  What is left is
    N(out_k) = min(N(a_k) - v_0, min_j N(out_(k-j)) + vf(a_j)) - v_0.

    The values come from long division modulo one power of p after the
    substitution u -> p^c u, with c the least shift that leaves every
    a_i * p^(c*i - v_0) integral: out_k is p^(-v_0 - c*k) times the k-th
    coefficient b_k of that inverse."""
    v0 = a[0].valuation
    c = max([0] + [(v0 - x.valuation + i - 1) // i
                   for i, x in enumerate(a) if i and x.valuation is not None])
    # out_k needs b_k modulo p^(N(out_k) + v_0 + c*k), at most this.
    q = p ** max([1] + [x.abs_prec - v0 + c * i for i, x in enumerate(a)][1:])
    scaled = [0 if x.valuation is None
              else x.unit * p ** (x.valuation + c * i - v0) % q
              for i, x in enumerate(a)]
    vf = [x.valuation_floor for x in a]
    inv0 = a[0].inverse()
    out, b, ns = [inv0], [pow(scaled[0], -1, q)], [inv0.abs_prec]
    for k in range(1, len(a)):
        b.append(sum(map(mul, scaled[1:k + 1], b[k - 1::-1])) * -b[0] % q)
        ns.append(min(a[k].abs_prec - v0,
                      min(map(add, ns[k - 1::-1], vf[1:k + 1]))) - v0)
        out.append(_reduce(p, -v0 - c * k, b[k], ns[k]))
    return out


def _max_abs_prec(coeffs) -> int:
    """The largest abs_prec among p-adic coefficients; the default if none."""
    return max((c.abs_prec for c in coeffs if isinstance(c, PAdic)),
               default=DEFAULT_ABS_PREC)


class _CoeffWindow:
    """What one- and two-variable windows share: zeros at working
    precision, the check that two windows may be combined, and subtraction.
    A window has ring, prime, _flat_coeffs() (every stored coefficient),
    + and unary -."""

    def _zero_coeff(self):
        return _materialize_zero(self.ring, self.prime, self._working_prec())

    def _working_prec(self) -> int:
        return _max_abs_prec(self._flat_coeffs())

    def _binary_check(self, other):
        if not isinstance(other, type(self)):
            raise InvalidInputError(
                f"expected a {type(self).__name__}, got {other!r}")
        if other.ring is not self.ring or other.prime != self.prime:
            raise InvalidInputError(
                f"cannot combine windows over {self.ring.value} "
                f"(p={self.prime}) and {other.ring.value} (p={other.prime})"
            )

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
        if self.trunc_order < self.min_degree:
            raise InvalidInputError(
                f"window [{self.min_degree}, {self.trunc_order}) is reversed"
            )
        if len(self.coeffs) != self.trunc_order - self.min_degree:
            raise InvalidInputError(
                f"{len(self.coeffs)} coefficients do not fill window "
                f"[{self.min_degree}, {self.trunc_order})"
            )
        _check_ring_prime(self.ring, self.prime)
        if not self.ring.laurent and self.min_degree < 0:
            raise InvalidInputError(
                f"ring {self.ring.value} does not allow degree {self.min_degree}"
            )
        for i, c in enumerate(self.coeffs):
            _check_coeff(self.ring, self.prime, c, self.min_degree + i)

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

    @property
    def is_zero(self) -> bool:
        """All stored coefficients vanish (at their precision, for p-adics)."""
        return all(_coeff_is_zero(c) for c in self.coeffs)

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
        return TruncatedSeries(
            self.ring, lo,
            self.coeffs[lo - self.min_degree:hi - self.min_degree],
            hi, self.prime,
        )

    def relabeled(self, ring: RingLabel) -> "TruncatedSeries":
        """The same window of coefficients viewed in another ring."""
        return TruncatedSeries(ring, self.min_degree, self.coeffs,
                               self.trunc_order, self.prime)

    def without_constant_term(self) -> "TruncatedSeries":
        if 0 < self.min_degree or 0 >= self.trunc_order:
            return self
        coeffs = list(self.coeffs)
        coeffs[-self.min_degree] = self._zero_coeff()
        return TruncatedSeries(self.ring, self.min_degree, tuple(coeffs),
                               self.trunc_order, self.prime)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        self._binary_check(other)
        lo = min(self.min_degree, other.min_degree)
        hi = max(min(self.trunc_order, other.trunc_order), lo)
        coeffs = tuple(
            _add_opt(self._at(d), other._at(d)) for d in range(lo, hi)
        )
        return TruncatedSeries(self.ring, lo, coeffs, hi, self.prime)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, self.min_degree,
                               tuple(-c for c in self.coeffs),
                               self.trunc_order, self.prime)

    def __mul__(self, other):
        if isinstance(other, DifferentialForm):
            return DifferentialForm(self * other.series)
        self._binary_check(other)
        lo = self.min_degree + other.min_degree
        a, b = self.coeffs, other.coeffs
        if self.ring.padic:
            out = _padic_product(a, b, self.prime)
        else:
            out = tuple(_dot(zip(a[:k + 1], b[k::-1]))
                        for k in range(min(len(a), len(b))))
        return TruncatedSeries(self.ring, lo, out, lo + len(out), self.prime)

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


def _add_opt(a, b):
    # None stands for the exact zero below a window: it is absorbing for
    # precision, so the other operand passes through untouched.
    if a is None:
        return b
    if b is None:
        return a
    return a + b


@dataclass(frozen=True, eq=False)
class DifferentialForm:
    """A one-form (series) * d(variable) on the punctured formal disk."""

    series: TruncatedSeries

    @property
    def ring(self) -> RingLabel:
        return self.series.ring

    @property
    def prime(self) -> int | None:
        return self.series.prime

    @property
    def is_zero(self) -> bool:
        return self.series.is_zero

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        return DifferentialForm(self.series + other.series)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return DifferentialForm(self.series - other.series)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(-self.series)

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self.series == other.series

    __hash__ = None

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
    n = trunc_order - min_degree
    z = _materialize_zero(ring, prime, abs_prec)
    return TruncatedSeries(ring, min_degree, (z,) * n, trunc_order, prime)


def one_series(ring: RingLabel, trunc_order: int, prime: int | None = None,
               abs_prec: int = DEFAULT_ABS_PREC) -> TruncatedSeries:
    return monomial(ring, Fraction(1), 0, trunc_order, prime, abs_prec)


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
    """Build a series from rational (or already p-adic) coefficient values."""
    out = []
    for v in values:
        if ring.padic and not isinstance(v, PAdic):
            v = PAdic.from_rational(Fraction(v), prime, abs_prec)
        elif not ring.padic:
            v = Fraction(v)
        out.append(v)
    return TruncatedSeries(ring, min_degree, tuple(out),
                           min_degree + len(out), prime)


# -- calculus -----------------------------------------------------------------


def derive(s: TruncatedSeries) -> DifferentialForm:
    """Termwise derivative d(sum x_j u^j) = (sum j x_j u^(j-1)) du."""
    lo = s.min_degree - 1
    if not s.ring.laurent:
        lo = max(lo, 0)
    hi = max(s.trunc_order - 1, lo)
    coeffs = tuple(s._at(d + 1) * (d + 1) for d in range(lo, hi))
    return DifferentialForm(
        TruncatedSeries(s.ring, lo, coeffs, hi, s.prime))


_ANTIDERIVE_TARGETS = {
    RingLabel.FORMAL: (RingLabel.FORMAL,),
    RingLabel.GAMMA_PLUS: (RingLabel.ROBBA_PLUS, RingLabel.GAMMA_PLUS),
    RingLabel.E_PLUS: (RingLabel.ROBBA_PLUS, RingLabel.GAMMA_PLUS),
    RingLabel.ROBBA_PLUS: (RingLabel.ROBBA_PLUS, RingLabel.GAMMA_PLUS),
    RingLabel.GAMMA: (RingLabel.ROBBA, RingLabel.GAMMA),
    RingLabel.E: (RingLabel.ROBBA, RingLabel.GAMMA),
    RingLabel.DAGGER: (RingLabel.ROBBA, RingLabel.GAMMA),
    RingLabel.ROBBA: (RingLabel.ROBBA, RingLabel.GAMMA),
}


def antiderive(f: DifferentialForm, target: RingLabel) -> TruncatedSeries:
    """The antiderivative with zero constant term, in the target ring.

    A coefficient in degree -1 that is not (provably) zero has no series
    antiderivative; the error carries that residue.
    """
    s = f.series
    allowed = _ANTIDERIVE_TARGETS[s.ring]
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
    try:
        return TruncatedSeries(target, lo, tuple(coeffs), hi, s.prime)
    except IntegralityError as exc:
        raise IntegralityError(
            f"antiderivative leaves the integer ring: {exc}"
        ) from None


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
        out = _padic_inverse(a.coeffs, a.prime)
    else:
        out = _rational_quotient((1,) + (0,) * (n - 1), a.coeffs)
    return TruncatedSeries(a.ring, -m, tuple(out), -m + n, a.prime)


def _check_invertible(a: TruncatedSeries):
    """Raise unless inverse accepts a."""
    if len(a.coeffs) == 0:
        raise InsufficientWindowError("cannot invert: empty window")
    if not a.ring.laurent:
        _unit_constant_term(a)
    elif _coeff_is_zero(a.coeffs[0]) or a.coeffs[0].valuation != 0:
        raise NonUnitError(
            f"lowest known coefficient (degree {a.min_degree}) must be a "
            f"unit of the integer ring, got {a.coeffs[0]}"
        )


def dlog(a: TruncatedSeries) -> DifferentialForm:
    """The logarithmic derivative da/a as a one-form: over the rationals
    one quotient, over the p-adics derive(a) * inverse(a)."""
    da = derive(a).series
    if a.ring.padic:
        return DifferentialForm(da * inverse(a))
    _check_invertible(a)
    lo = da.min_degree - a.min_degree
    out = _rational_quotient(da.coeffs, a.coeffs)
    return DifferentialForm(
        TruncatedSeries(a.ring, lo, out, lo + len(out), a.prime))


def degree_of_unit(x: TruncatedSeries) -> int:
    """Lowest degree whose coefficient is a unit of the integer ring."""
    if not x.ring.padic:
        raise InvalidInputError("degree_of_unit needs p-adic coefficients")
    for i, c in enumerate(x.coeffs):
        if c.is_zero:
            continue
        if c.valuation < 0:
            raise NotIntegralError(
                f"coefficient {c} at degree {x.min_degree + i} is not integral"
            )
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
            f"constant term {c} is not a unit of the integer ring"
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
    scaled = a.scale(c.inverse() if a.ring.padic else 1 / c)
    w = -scaled
    coeffs = list(w.coeffs)
    one = PAdic.one(a.prime, c.rel_prec) if a.ring.padic else Fraction(1)
    coeffs[0] = coeffs[0] + one
    w = TruncatedSeries(w.ring, w.min_degree, tuple(coeffs), w.trunc_order,
                        w.prime)
    return c, w


def formal_log(a: TruncatedSeries) -> TruncatedSeries:
    """Logarithm of a power-series unit, up to the kernel of constants.

    The result is the antiderivative of dlog(a) = da/a with zero constant
    term, on the window [0, T) of a: the exact zero of degree 0 is stored,
    so the window starts at 0 as the input's does.  With a = c * (1 - w)
    this equals -sum(w^n / n) truncated at T."""
    if a.ring is not RingLabel.FORMAL:
        raise InvalidInputError(
            f"formal_log works over {RingLabel.FORMAL.value}; "
            "use the p-adic logarithms for p-adic rings"
        )
    _unit_constant_term(a)
    s = antiderive(dlog(a), RingLabel.FORMAL)
    return TruncatedSeries(RingLabel.FORMAL, 0, (Fraction(0),) + s.coeffs,
                           s.trunc_order)


def padic_log_one_minus_py(y: TruncatedSeries) -> TruncatedSeries:
    """The p-adic logarithm of 1 - p*y for integral y, as -sum((p*y)^n / n).

    The sum is truncated at the first n with n - floor(log_p(n)) at or above
    the working precision; beyond it every term vanishes modulo p^prec.  The
    output is integral."""
    if y.ring not in (RingLabel.GAMMA, RingLabel.GAMMA_PLUS):
        raise InvalidInputError(
            f"padic_log_one_minus_py needs an integral ring, got {y.ring.value}"
        )
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
                power = power * py
    return TruncatedSeries(y.ring, lo, tuple(acc[d] for d in range(lo, t)),
                           t, p)


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
        if c is None or c.is_zero or c.valuation != -i:
            return False
    return True
