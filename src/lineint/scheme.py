"""Two-variable series windows and framed families over them.

A :class:`BiSeries` is a tuple of one-variable columns: column j is the
coefficient of x^j, a power series in the base variable on the window
[0, trunc_u), so the window holds u^i x^j for 0 <= i < trunc_u and
0 <= j < trunc_x.  Its arithmetic and partial derivatives act column by
column through the one-variable code: a sum of products, of which ``+``,
``*`` and each ``curvature`` entry are one call, is one sum of products
per output column.  One-forms gain a second component ``dx``; the total
differential, curvature of a framed family, pullback along a section
x := v - 1 with v(0) = 1, and the line integral live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat

from .errors import InsufficientWindowError, InvalidInputError
from .nabla import (
    ConnectionMatrix,
    FramedNablaModule,
    InvariantRepresentative,
    Signature,
    _SquareMatrix,
    _check_framed,
    _check_square,
    invariant,
)
from .series import (
    DEFAULT_ABS_PREC,
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    _CoeffWindow,
    _Form,
    _check_member,
    _check_ring_prime,
    _sum_of_products,
    _unit_constant_term,
    derive,
    series_from_coeffs,
    zero_series,
)


def _check_header(ring: RingLabel, prime, trunc_u: int, trunc_x: int):
    """What a two-variable window needs before it has any column."""
    if ring.laurent:
        raise InvalidInputError(
            f"two-variable windows are power series; ring "
            f"{ring.value} allows poles"
        )
    if trunc_u < 0 or trunc_x < 0:
        raise InvalidInputError(f"negative window ({trunc_u}, {trunc_x})")
    _check_ring_prime(ring, prime)


@dataclass(frozen=True, eq=False)
class BiSeries(_CoeffWindow):
    """Coefficients of u^i x^j for 0 <= i < trunc_u, 0 <= j < trunc_x,
    stored as columns: cols[j] is the series on [0, trunc_u) that
    multiplies x^j."""

    ring: RingLabel
    cols: tuple
    trunc_u: int
    prime: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "cols", tuple(self.cols))
        _check_header(self.ring, self.prime, self.trunc_u, self.trunc_x)
        for j, col in enumerate(self.cols):
            _check_member(col, TruncatedSeries, self.ring, self.prime)
            if col.min_degree != 0 or col.trunc_order != self.trunc_u:
                raise InvalidInputError(
                    f"column {j} is not on [0, {self.trunc_u})")

    @property
    def trunc_x(self) -> int:
        return len(self.cols)

    def _flat_coeffs(self):
        return (c for col in self.cols for c in col.coeffs)

    def coefficient(self, i: int, j: int):
        """The coefficient of u^i x^j; exact zero at negative degrees."""
        if i < 0 or j < 0:
            return self._zero_coeff()
        if i >= self.trunc_u or j >= self.trunc_x:
            raise InsufficientWindowError(
                f"degree ({i}, {j}) is beyond the known window "
                f"({self.trunc_u}, {self.trunc_x})"
            )
        return self.cols[j].coeffs[i]

    def _with(self, cols, trunc_u=None) -> "BiSeries":
        return BiSeries._trusted(self.ring, cols,
                                 self.trunc_u if trunc_u is None else trunc_u,
                                 self.prime)

    def clipped(self, trunc_u=None, trunc_x=None) -> "BiSeries":
        """Restrict to a narrower window; the window itself if nothing is
        cut, so windows shared before stay shared."""
        tu = self.trunc_u if trunc_u is None else max(min(trunc_u,
                                                          self.trunc_u), 0)
        cols = self.cols if trunc_x is None else self.cols[:max(trunc_x, 0)]
        if tu == self.trunc_u and len(cols) == self.trunc_x:
            return self
        return self._with(tuple(c.clipped(trunc_order=tu) for c in cols), tu)

    def __add__(self, other) -> "BiSeries":
        _check_member(other, BiSeries, self.ring, self.prime)
        return _bi_sum_of_products([], self, other)

    def __neg__(self) -> "BiSeries":
        return self._with(tuple(-c for c in self.cols))

    def __mul__(self, other) -> "BiSeries":
        _check_member(other, BiSeries, self.ring, self.prime)
        return _bi_sum_of_products([(self, other)])

    def scale(self, c) -> "BiSeries":
        return self._with(tuple(col.scale(c) for col in self.cols))

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.ring is other.ring and self.prime == other.prime
                and self.trunc_u == other.trunc_u and self.cols == other.cols)

    __hash__ = None

    def __repr__(self):
        return (f"BiSeries({self.ring.value}, "
                f"({self.trunc_u}, {self.trunc_x}), {self.cols!r})")


def _bi_sum_of_products(pairs, *firsts) -> BiSeries:
    """The sum of the windows firsts and of a * b over pairs of two-variable
    windows of one ring, on the window of the chain of +: column k is one
    sum of products over the column pairs (i, k - i) of every pair and
    column k of every first."""
    windows = [w for pair in pairs for w in pair] + list(firsts)
    tx = min(w.trunc_x for w in windows)
    cols = (_sum_of_products(
        [q for a, b in pairs for q in zip(a.cols[:k + 1], b.cols[k::-1])],
        *(f.cols[k] for f in firsts)) for k in range(tx))
    return windows[0]._with(tuple(cols), min(w.trunc_u for w in windows))


def biseries_from_map(ring: RingLabel, mapping, trunc_u: int, trunc_x: int,
                      prime: int | None = None,
                      abs_prec: int = DEFAULT_ABS_PREC) -> BiSeries:
    """Build a window from a sparse {(i, j): value} map; absent means zero.
    Columns come from series_from_coeffs; unmapped ones share one zero."""
    _check_header(ring, prime, trunc_u, trunc_x)
    zero = zero_series(ring, 0, trunc_u, prime, abs_prec)
    cols = {}
    for (i, j), v in mapping.items():
        if not (0 <= i < trunc_u and 0 <= j < trunc_x):
            raise InvalidInputError(
                f"degree ({i}, {j}) outside window ({trunc_u}, {trunc_x})"
            )
        cols.setdefault(j, [0] * trunc_u)[i] = v
    return BiSeries._trusted(ring, tuple(
        series_from_coeffs(ring, 0, cols[j], prime, abs_prec) if j in cols
        else zero for j in range(trunc_x)), trunc_u, prime)


def zero_biseries(ring: RingLabel, trunc_u: int, trunc_x: int,
                  prime: int | None = None,
                  abs_prec: int = DEFAULT_ABS_PREC) -> BiSeries:
    return biseries_from_map(ring, {}, trunc_u, trunc_x, prime, abs_prec)


def partial_u(s: BiSeries) -> BiSeries:
    """Termwise derivative in u; the u-window shrinks by one."""
    return s._with(tuple(derive(c).series for c in s.cols),
                   max(s.trunc_u - 1, 0))


def partial_x(s: BiSeries) -> BiSeries:
    """Termwise derivative in x; the x-window shrinks by one."""
    return s._with(tuple(c.scale(j) for j, c in enumerate(s.cols[1:], 1)))


@dataclass(frozen=True, eq=False)
class BiForm(_Form):
    """A one-form A du + B dx; both components on one shared window."""

    du_part: BiSeries
    dx_part: BiSeries

    def __post_init__(self):
        a, b = self.du_part, self.dx_part
        # The du part sets the ring and prime once it is a BiSeries.
        _check_member(a, BiSeries, getattr(a, "ring", None),
                      getattr(a, "prime", None))
        _check_member(b, BiSeries, a.ring, a.prime)
        tu = min(a.trunc_u, b.trunc_u)
        tx = min(a.trunc_x, b.trunc_x)
        object.__setattr__(self, "du_part", a.clipped(tu, tx))
        object.__setattr__(self, "dx_part", b.clipped(tu, tx))


def total_d(s: BiSeries) -> BiForm:
    """The differential (d/du) du + (d/dx) dx of a two-variable window."""
    return BiForm(partial_u(s), partial_x(s))


@dataclass(frozen=True, eq=False)
class FramedFamily(_SquareMatrix):
    """A family of framed connections over the two-variable window."""

    signature: Signature
    ring: RingLabel
    entries: tuple           # r x r matrix of BiForm
    prime: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _check_square(
            self.entries, self.signature.total, BiForm, self.ring,
            self.prime))
        _check_framed(self.signature, self.entries, "family connection")


def curvature(family: FramedFamily) -> tuple:
    """The du^dx coefficient of d(C) + C^C, entrywise; zero iff integrable.

    With C = C_u du + C_x dx this is
    partial_u(C_x) - partial_x(C_u) + C_u C_x - C_x C_u, one sum of
    products per entry with its two partials as first terms."""
    cu = [[f.du_part for f in row] for row in family.entries]
    cx = [[f.dx_part for f in row] for row in family.entries]
    minus_cx = [[-x for x in row] for row in cx]
    r = range(family.size)
    return tuple(
        tuple(_bi_sum_of_products(
            [(cu[a][c], cx[c][b]) for c in r]
            + [(minus_cx[a][c], cu[c][b]) for c in r],
            partial_u(cx[a][b]), -partial_x(cu[a][b])) for b in r)
        for a in r)


def _fiber_powers(w: TruncatedSeries, count: int, trunc_u: int) -> list:
    """w, w^2, ..., w^count, each clipped to u-degrees below trunc_u."""
    return list(accumulate(repeat(w.clipped(trunc_order=trunc_u), count),
                           lambda q, _: (q * w).clipped(trunc_order=trunc_u)))


def substitute_fiber(b: BiSeries, w: TruncatedSeries, *,
                     powers=None) -> TruncatedSeries:
    """Evaluate a two-variable window at x := w, a one-variable series.

    w must vanish at u = 0: of order e >= 1, or zero.  The result is the
    sum of col_j * w^j over every stored j < trunc_x, one sum of products
    reduced once per coefficient, so powers of w that vanish only at a
    finite precision still bound the result's.  It ends where the window
    of w ends, past which the unknown x^trunc_x * w^trunc_x is not known to
    vanish.  It needs trunc_x * e >= trunc_u, otherwise
    unknown x-coefficients could reach visible u-degrees; a w of order 0
    reaches every u-degree and is refused.  powers, if given, holds
    w^1 .. w^(trunc_x - 1) clipped to a u-window of at least trunc_u."""
    _check_member(w, TruncatedSeries, b.ring, b.prime)
    tu, tx, cols = b.trunc_u, b.trunc_x, b.cols
    if tx == 0:
        return zero_series(b.ring, 0, 0, b.prime, b._working_prec())
    e = w.order()
    if e is not None and tx * e < tu:
        raise InsufficientWindowError(
            f"x-window {tx} with a section of order {e} only fills "
            f"u-degrees below {tx * e}, u-window needs {tu}"
        )
    if powers is None:
        powers = _fiber_powers(w, tx - 1, tu)
    total = _sum_of_products(list(zip(cols[1:], powers)), cols[0])
    return total.clipped(trunc_order=min(tu, w.trunc_order))


def section_pullback(family: FramedFamily,
                     v: TruncatedSeries) -> FramedNablaModule:
    """Restrict the family to the section sending 1 + x to the unit v,
    which must have v(0) = 1 (substitute_fiber refuses w = v - 1 of order
    0).  Substitutes x := w everywhere; the dx components pick up the
    chain-rule factor dv, one sum of products per pulled form; every entry
    shares one set of powers of w.  Each
    distinct part object is substituted once and each distinct pair of
    parts pulled back once, so entries that share parts share the result.
    Returns the one-variable framed module."""
    _check_member(v, TruncatedSeries, family.ring, family.prime)
    v0 = _unit_constant_term(v)
    # v is a power series with v(0) a unit, so its window starts at 0.
    w = TruncatedSeries._trusted(v.ring, 0, (v0 - 1,) + v.coeffs[1:],
                                 v.trunc_order, v.prime)
    dv = derive(v).series
    parts = [f.du_part for row in family.entries for f in row]
    powers = _fiber_powers(w, max(b.trunc_x for b in parts) - 1,
                           max(b.trunc_u for b in parts))

    # BiSeries are unhashable, so both tables are keyed by object identity;
    # the family keeps every part alive for the whole call.
    subs, forms = {}, {}

    def sub(b):
        if id(b) not in subs:
            subs[id(b)] = substitute_fiber(b, w, powers=powers)
        return subs[id(b)]

    def pulled(f):
        key = id(f.du_part), id(f.dx_part)
        if key not in forms:
            forms[key] = DifferentialForm(_sum_of_products(
                [(sub(f.dx_part), dv)], sub(f.du_part)))
        return forms[key]

    # A zero part pulls back to zero, so the module is framed as the family.
    rows = tuple(tuple(map(pulled, row)) for row in family.entries)
    return FramedNablaModule._trusted(
        family.signature,
        ConnectionMatrix._trusted(family.ring, rows, family.prime))


def line_integral(family: FramedFamily,
                  v: TruncatedSeries) -> InvariantRepresentative:
    """The invariant of the family restricted to the section of v.

    The truncation is everything the pullback window can prove."""
    module = section_pullback(family, v)
    t = 1 + min(f.series.trunc_order
                for row in module.connection.entries for f in row)
    return invariant(module, max(t, 1))
