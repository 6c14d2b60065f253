"""Two-variable series windows and framed families over them.

A :class:`BiSeries` is a tuple of one-variable columns: column j is the
coefficient of x^j, a power series in the base variable on the window
[0, trunc_u), so the window holds u^i x^j for 0 <= i < trunc_u and
0 <= j < trunc_x.  Its arithmetic and partial derivatives act column by
column through the one-variable code.  One-forms gain a second component
``dx``; the total differential, curvature of a framed family, pullback
along a section x := v - 1, and the resulting line integral live here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat

from .errors import InsufficientWindowError, InvalidInputError
from .nabla import (
    ConnectionMatrix,
    FramedNablaModule,
    InvariantRepresentative,
    Signature,
    _check_framed,
    _check_square,
    invariant,
    series_matrix_product,
)
from .series import (
    DEFAULT_ABS_PREC,
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    _CoeffWindow,
    _check_ring_prime,
    _unit_constant_term,
    derive,
    one_series,
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
            if not (isinstance(col, TruncatedSeries)
                    and col.ring is self.ring and col.prime == self.prime
                    and col.min_degree == 0
                    and col.trunc_order == self.trunc_u):
                raise InvalidInputError(
                    f"column {j} is not a series over {self.ring.value} "
                    f"(p={self.prime}) on [0, {self.trunc_u})"
                )

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

    @property
    def is_zero(self) -> bool:
        return all(col.is_zero for col in self.cols)

    def _with(self, cols, trunc_u=None) -> "BiSeries":
        return BiSeries(self.ring, cols,
                        self.trunc_u if trunc_u is None else trunc_u,
                        self.prime)

    def clipped(self, trunc_u=None, trunc_x=None) -> "BiSeries":
        tu = self.trunc_u if trunc_u is None else max(min(trunc_u,
                                                          self.trunc_u), 0)
        cols = self.cols if trunc_x is None else self.cols[:max(trunc_x, 0)]
        return self._with(tuple(c.clipped(trunc_order=tu) for c in cols), tu)

    def __add__(self, other) -> "BiSeries":
        self._binary_check(other)
        return self._with(tuple(map(operator.add, self.cols, other.cols)),
                          min(self.trunc_u, other.trunc_u))

    def __neg__(self) -> "BiSeries":
        return self._with(tuple(-c for c in self.cols))

    def __mul__(self, other) -> "BiSeries":
        self._binary_check(other)
        a, b = self.cols, other.cols
        cols = (reduce(operator.add, map(operator.mul, a[:k + 1], b[k::-1]))
                for k in range(min(len(a), len(b))))
        return self._with(tuple(cols), min(self.trunc_u, other.trunc_u))

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


def biseries_from_map(ring: RingLabel, mapping, trunc_u: int, trunc_x: int,
                      prime: int | None = None,
                      abs_prec: int = DEFAULT_ABS_PREC) -> BiSeries:
    """Build a window from a sparse {(i, j): value} map; absent means zero."""
    _check_header(ring, prime, trunc_u, trunc_x)
    zero = zero_series(ring, 0, trunc_u, prime, abs_prec).coeffs
    cols = [list(zero) for _ in range(trunc_x)]
    for (i, j), v in mapping.items():
        if not (0 <= i < trunc_u and 0 <= j < trunc_x):
            raise InvalidInputError(
                f"degree ({i}, {j}) outside window ({trunc_u}, {trunc_x})"
            )
        cols[j][i] = v
    return BiSeries(ring, tuple(series_from_coeffs(ring, 0, c, prime,
                                                   abs_prec) for c in cols),
                    trunc_u, prime)


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
class BiForm:
    """A one-form A du + B dx; both components on one shared window."""

    du_part: BiSeries
    dx_part: BiSeries

    def __post_init__(self):
        a, b = self.du_part, self.dx_part
        a._binary_check(b)
        tu = min(a.trunc_u, b.trunc_u)
        tx = min(a.trunc_x, b.trunc_x)
        object.__setattr__(self, "du_part", a.clipped(tu, tx))
        object.__setattr__(self, "dx_part", b.clipped(tu, tx))

    @property
    def ring(self) -> RingLabel:
        return self.du_part.ring

    @property
    def prime(self) -> int | None:
        return self.du_part.prime

    @property
    def is_zero(self) -> bool:
        return self.du_part.is_zero and self.dx_part.is_zero

    def __add__(self, other: "BiForm") -> "BiForm":
        return BiForm(self.du_part + other.du_part,
                      self.dx_part + other.dx_part)

    def __neg__(self) -> "BiForm":
        return BiForm(-self.du_part, -self.dx_part)

    def __sub__(self, other: "BiForm") -> "BiForm":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        return self.du_part == other.du_part and self.dx_part == other.dx_part

    __hash__ = None


def total_d(s: BiSeries) -> BiForm:
    """The differential (d/du) du + (d/dx) dx of a two-variable window."""
    return BiForm(partial_u(s), partial_x(s))


@dataclass(frozen=True, eq=False)
class FramedFamily:
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

    @property
    def size(self) -> int:
        return len(self.entries)


def curvature(family: FramedFamily) -> tuple:
    """The du^dx coefficient of d(C) + C^C, entrywise; zero iff integrable.

    With C = C_u du + C_x dx this is
    partial_u(C_x) - partial_x(C_u) + C_u C_x - C_x C_u."""
    cu = [[f.du_part for f in row] for row in family.entries]
    cx = [[f.dx_part for f in row] for row in family.entries]
    uv = series_matrix_product(cu, cx)
    vu = series_matrix_product(cx, cu)
    return tuple(
        tuple(partial_u(cx[a][b]) - partial_x(cu[a][b]) + uv[a][b] - vu[a][b]
              for b in range(family.size))
        for a in range(family.size))


def _fiber_powers(w: TruncatedSeries, count: int, trunc_u: int) -> list:
    """w, w^2, ..., w^count, each clipped to u-degrees below trunc_u."""
    return list(accumulate(repeat(w.clipped(trunc_order=trunc_u), count),
                           lambda q, _: (q * w).clipped(trunc_order=trunc_u)))


def substitute_fiber(b: BiSeries, w: TruncatedSeries, *,
                     powers=None) -> TruncatedSeries:
    """Evaluate a two-variable window at x := w, a one-variable series.

    A w with no nonvanishing constant term (of order e >= 1, or zero)
    gives the sum of col_j * w^j over every stored j < trunc_x, so powers
    of w that vanish only at a finite precision still bound the result's.
    It needs trunc_x * e >= trunc_u, otherwise unknown x-coefficients
    could reach visible u-degrees.  powers, if given, holds w^1 ..
    w^(trunc_x - 1) clipped to a u-window of at least trunc_u.  Any other
    w is substituted on the stored x-support only, by Horner's rule
    (exact when the x-dependence is polynomial of degree < trunc_x)."""
    if not isinstance(w, TruncatedSeries):
        raise InvalidInputError(f"expected a series, got {w!r}")
    if w.ring is not b.ring or w.prime != b.prime:
        raise InvalidInputError(
            f"cannot substitute a series over {w.ring.value} into a window "
            f"over {b.ring.value}"
        )
    tu, tx, cols = b.trunc_u, b.trunc_x, b.cols
    if tx == 0:
        return zero_series(b.ring, 0, 0, b.prime, b._working_prec())
    e = w.order()
    if e != 0:
        if e is not None and tx * e < tu:
            raise InsufficientWindowError(
                f"x-window {tx} with a section of order {e} only fills "
                f"u-degrees below {tx * e}, u-window needs {tu}"
            )
        if powers is None:
            powers = _fiber_powers(w, tx - 1, tu)
        acc = cols[0]
        for col, power in zip(cols[1:], powers):
            acc = acc + col * power
        return acc.clipped(trunc_order=tu)
    acc = cols[tx - 1]
    for j in range(tx - 2, -1, -1):
        acc = (acc * w).clipped(trunc_order=tu) + cols[j]
    return acc.clipped(trunc_order=tu)


def section_pullback(family: FramedFamily,
                     v: TruncatedSeries) -> FramedNablaModule:
    """Restrict the family to the section sending 1 + x to the unit v.

    Substitutes x := v - 1 everywhere; the dx components pick up the
    chain-rule factor dv; every entry shares one set of powers of v - 1.
    Returns the one-variable framed module."""
    if not isinstance(v, TruncatedSeries):
        raise InvalidInputError(f"expected a series, got {v!r}")
    if v.ring is not family.ring or v.prime != family.prime:
        raise InvalidInputError(
            f"section over {v.ring.value} does not match family over "
            f"{family.ring.value}"
        )
    _unit_constant_term(v)
    prec = v._working_prec()
    w = v - one_series(v.ring, v.trunc_order, v.prime, prec)
    dv = derive(v).series
    parts = [f.du_part for row in family.entries for f in row]
    powers = None if w.order() == 0 else _fiber_powers(
        w, max(b.trunc_x for b in parts) - 1, max(b.trunc_u for b in parts))

    def pulled(f):
        return DifferentialForm(
            substitute_fiber(f.du_part, w, powers=powers)
            + substitute_fiber(f.dx_part, w, powers=powers) * dv)

    rows = tuple(tuple(map(pulled, row)) for row in family.entries)
    conn = ConnectionMatrix(family.ring, rows, family.prime)
    return FramedNablaModule(family.signature, conn)


def line_integral(family: FramedFamily,
                  v: TruncatedSeries) -> InvariantRepresentative:
    """The invariant of the family restricted to the section of v.

    The truncation is everything the pullback window can prove."""
    module = section_pullback(family, v)
    t = 1 + min(f.series.trunc_order
                for row in module.connection.entries for f in row)
    return invariant(module, max(t, 1))
