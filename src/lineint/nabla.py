"""Connections in a fixed frame over one variable.

A framed module is a connection matrix C that is strictly upper triangular
with respect to a block structure (the signature).  Horizontal sections come
from the power-series recurrence (i+1) U_(i+1) = sum_j N_j U_(i-j), which
only makes sense when division by every integer is harmless; the unipotent
trivialization integrates blockwise instead and works over any ring where
one-forms have antiderivatives.  The normalized trivialization, constant
term pinned to the identity, is the representative collecting the iterated
line integrals of the connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvalidInputError, NotFramedError, _named
from .series import (
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    _Checked,
    _check_member,
    _coeff_is_zero,
    _dot,
    _max_abs_prec,
    _sum_of_products,
    antiderive,
    derive,
    one_series,
    zero_series,
)


@dataclass(frozen=True)
class Signature:
    """Block sizes (r_1, ..., r_n) of a framed filtration."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise InvalidInputError("signature needs at least one part")
        if not all(type(p) is int and p >= 1 for p in self.parts):
            raise InvalidInputError(
                "signature parts must be positive integers, "
                + _named("got", self.parts, ends=True))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @cached_property
    def blocks(self) -> tuple:
        """The block of each row (or column) index, in index order."""
        return tuple(i for i, p in enumerate(self.parts) for _ in range(p))

    def block_of(self, index: int) -> int:
        """Block containing the given row (or column) index."""
        if not 0 <= index < self.total:
            raise InvalidInputError(f"index {index} out of range")
        return self.blocks[index]

    def lower_positions(self):
        """Each (a, b) on or below the block diagonal, row by row: where a
        framed connection is zero and a unipotent matrix is the identity."""
        blocks = self.blocks
        return ((a, b) for a, i in enumerate(blocks)
                for b, j in enumerate(blocks) if i >= j)


def _check_square(entries, size, kind, ring, prime) -> tuple:
    """The rows as tuples, once they form a nonempty size x size matrix
    (size None: the row count) of kind entries over one ring and prime."""
    entries = tuple(tuple(row) for row in entries)
    r = len(entries) if size is None else size
    if r == 0 or len(entries) != r or any(len(row) != r for row in entries):
        raise InvalidInputError(
            f"row lengths {[len(row) for row in entries]} do not form a "
            f"nonempty {r} by {r} matrix")
    for row in entries:
        for x in row:
            _check_member(x, kind, ring, prime)
    return entries


def _check_framed(signature: Signature, entries, what: str):
    """Every entry on or below the block diagonal must vanish; each
    distinct entry object, alive in entries, is tested once."""
    zeros = set()
    for a, b in signature.lower_positions():
        x = entries[a][b]
        if id(x) in zeros:
            continue
        if not x.is_zero:
            raise NotFramedError(
                f"block ({signature.block_of(a) + 1}, "
                f"{signature.block_of(b) + 1}) of the {what} is not zero; "
                "the frame requires strict block upper triangularity"
            )
        zeros.add(id(x))


class _SquareMatrix(_Checked):
    """What the square matrices share: entries is a tuple of rows."""

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, a: int, b: int):
        return self.entries[a][b]


@dataclass(frozen=True, eq=False)
class ConnectionMatrix(_SquareMatrix):
    """Square matrix of one-forms: a connection written in a frame."""

    ring: RingLabel
    entries: tuple
    prime: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _check_square(
            self.entries, None, DifferentialForm, self.ring, self.prime))

    def negated(self) -> "ConnectionMatrix":
        return ConnectionMatrix._trusted(
            self.ring,
            tuple(tuple(-f for f in row) for row in self.entries),
            self.prime,
        )

    def relabeled(self, ring: RingLabel) -> "ConnectionMatrix":
        return ConnectionMatrix._trusted(
            ring,
            tuple(tuple(DifferentialForm(f.series.relabeled(ring))
                        for f in row) for row in self.entries),
            self.prime,
        )

    def working_precision(self) -> int:
        return _max_abs_prec(c for row in self.entries for f in row
                             for c in f.series.coeffs)


@dataclass(frozen=True, eq=False)
class FramedNablaModule(_Checked):
    """A connection that is strictly upper triangular in its block frame."""

    signature: Signature
    connection: ConnectionMatrix

    def __post_init__(self):
        sig, conn = self.signature, self.connection
        if conn.size != sig.total:
            raise InvalidInputError(
                f"connection size {conn.size} does not match signature "
                f"total {sig.total}"
            )
        _check_framed(sig, conn.entries, "connection")

    @property
    def ring(self) -> RingLabel:
        return self.connection.ring


def _entry_is_identity(s: TruncatedSeries) -> bool:
    if s.min_degree > 0 or s.trunc_order <= 0:
        return False
    return s.constant_term() == 1 and all(
        _coeff_is_zero(c) for d, c in enumerate(s.coeffs, s.min_degree) if d)


@dataclass(frozen=True, eq=False)
class UnipotentMatrix(_SquareMatrix):
    """Block upper unitriangular matrix of series: identity diagonal blocks."""

    signature: Signature
    ring: RingLabel
    entries: tuple
    prime: int | None = None

    def __post_init__(self):
        sig = self.signature
        object.__setattr__(self, "entries", _check_square(
            self.entries, sig.total, TruncatedSeries, self.ring, self.prime))
        for a, b in sig.lower_positions():
            s = self.entries[a][b]
            if a == b:
                if not _entry_is_identity(s):
                    raise InvalidInputError(
                        f"diagonal entry ({a + 1}, {a + 1}) is not the "
                        "constant 1"
                    )
            elif not s.is_zero:
                raise InvalidInputError(
                    f"entry ({a + 1}, {b + 1}) must vanish: diagonal "
                    "blocks are identity and lower blocks are zero"
                )

    def constant_matrix(self) -> tuple:
        """The matrix of constant terms (the value at the origin)."""
        return tuple(tuple(s.constant_term() for s in row)
                     for row in self.entries)


@dataclass(frozen=True, eq=False)
class InvariantRepresentative(_Checked):
    """Trivializing matrix normalized to the identity at the origin."""

    matrix: UnipotentMatrix

    def __post_init__(self):
        for a, row in enumerate(self.matrix.entries):
            for b, s in enumerate(row):
                c = s.constant_term()
                if not (c == 1 if a == b else _coeff_is_zero(c)):
                    raise InvalidInputError(
                        "representative is not normalized: constant term at "
                        f"({a + 1}, {b + 1}) " + _named("is", c, ends=True))


def fundamental_solution(n_matrix: ConnectionMatrix, trunc_order: int) -> tuple:
    """Solve S' = N*S with S(0) = I by the layer recurrence.

    Writing N = sum N_j t^j and S = sum U_i t^i, the layers satisfy
    (i+1) U_(i+1) = sum_(j<=i) N_j U_(i-j).  The division by i+1 restricts
    this to rational coefficients; p-adic connections must go through the
    unipotent integrator instead.  Returns the r x r matrix of series,
    truncated to what the window of N can prove (at most trunc_order)."""
    if n_matrix.ring is not RingLabel.FORMAL:
        raise InvalidInputError(
            "the layer recurrence divides by every integer and needs "
            f"rational coefficients, got ring {n_matrix.ring.value}"
        )
    if trunc_order < 1:
        raise InvalidInputError("truncation must keep the constant layer")
    r = n_matrix.size
    t_known = 1 + min(f.series.trunc_order
                      for row in n_matrix.entries for f in row)
    t = min(trunc_order, t_known)
    n_coeff = [
        [[n_matrix.entries[a][b].series.coefficient(j) for b in range(r)]
         for a in range(r)]
        for j in range(max(t - 1, 0))
    ]
    layers = [[[Fraction(int(a == b)) for b in range(r)] for a in range(r)]]
    for i in range(t - 1):
        inv = Fraction(1, i + 1)
        layers.append([
            [_dot(((n_coeff[j][a][c], layers[i - j][c][b])
                   for j in range(i + 1) for c in range(r))) * inv
             for b in range(r)]
            for a in range(r)])
    # Every layer entry is a Fraction, so each column is a formal window.
    return tuple(
        tuple(
            TruncatedSeries._trusted(RingLabel.FORMAL, 0, tuple(
                layers[i][a][b] for i in range(t)), t, None)
            for b in range(r)
        )
        for a in range(r)
    )


def horizontal_basis(module: FramedNablaModule, trunc_order: int) -> tuple:
    """Basis of sections killed by the connection, as matrix columns.

    A coordinate vector s is horizontal when ds + C s dt = 0, so the layer
    recurrence runs on N = -C."""
    return fundamental_solution(module.connection.negated(), trunc_order)


def trivialize(module: FramedNablaModule, trunc_order: int) -> UnipotentMatrix:
    """The unipotent V with dV = V*C and V(0) = I, filled row by row, left
    to right.  Where block(a) < block(b), V[a, b] is one antiderivative,

        V[a, b] = antiderive( C[a, b] + sum_c V[a, c] C[c, b] ),

    summed in increasing c over block(a) < block(c) < block(b), one sum of
    products reduced once per coefficient.  Each such c is left of b, so
    V[a, c] is filled already; an obstruction is raised at the first entry
    in this order.  The entries are the iterated line integrals of the
    connection, each vanishing at the origin."""
    conn = module.connection
    ring = conn.ring
    if ring is not ring.antiderive_targets[0]:
        raise InvalidInputError(
            f"cannot integrate one-forms over {ring.value}; "
            "use invariant() to view an integral connection in a ring "
            "with antiderivatives"
        )
    if trunc_order < 1:
        raise InvalidInputError("truncation must show the constant term")
    sig, C = module.signature, conn.entries
    blocks, prime = sig.blocks, conn.prime
    prec = conn.working_precision()
    one = one_series(ring, trunc_order, prime, prec)
    zero = zero_series(ring, 0, trunc_order, prime, prec)
    r = len(blocks)
    V = [[one if a == b else zero for b in range(r)] for a in range(r)]
    for a, row in enumerate(V):
        for b in range(a + 1, r):
            if blocks[a] < blocks[b]:
                row[b] = antiderive(DifferentialForm(_sum_of_products(
                    [(row[c], C[c][b].series) for c in range(a + 1, b)
                     if blocks[a] < blocks[c] < blocks[b]], C[a][b].series)),
                    ring).clipped(trunc_order=trunc_order)
    # One on the diagonal, zero below and antiderivatives above: unipotent.
    return UnipotentMatrix._trusted(sig, ring, tuple(map(tuple, V)), prime)


def matrix_residual(module: FramedNablaModule,
                    v_matrix: UnipotentMatrix) -> bool:
    """Whether dV - V*C vanishes on the window both sides can prove."""
    conn = module.connection
    if v_matrix.size != conn.size:
        raise InvalidInputError(
            f"matrix size {v_matrix.size} does not match connection "
            f"size {conn.size}"
        )
    if conn.ring is not v_matrix.ring:
        conn = conn.relabeled(v_matrix.ring)
    vc = series_matrix_product(v_matrix.entries, tuple(
        tuple(f.series for f in row) for row in conn.entries))
    return all((derive(v).series - s).is_zero
               for row, vc_row in zip(v_matrix.entries, vc)
               for v, s in zip(row, vc_row))


def invariant(module: FramedNablaModule,
              trunc_order: int) -> InvariantRepresentative:
    """The normalized line-integral representative of a framed module.

    The connection is re-read in the big power-series ring, where every
    one-form has an antiderivative, and trivialized there.  Pinning the
    constant term to the identity makes the representative deterministic
    for the given frame and truncation."""
    conn = module.connection
    if conn.ring.laurent:
        raise InvalidInputError(
            f"connections over {conn.ring.value} have no origin to "
            "normalize at; expected a power-series ring"
        )
    ring = conn.ring.antiderive_targets[0]
    if conn.ring is not ring:
        module = FramedNablaModule._trusted(module.signature,
                                            conn.relabeled(ring))
    # Each antiderivative above the diagonal has zero constant term.
    return InvariantRepresentative._trusted(trivialize(module, trunc_order))


def series_matrix_product(a_entries, b_entries) -> tuple:
    """Matrix product of two square series matrices of one size, ring and
    prime; each entry is one sum of products."""
    if len(b_entries) != len(a_entries):
        raise InvalidInputError("matrix sizes differ")
    head = a_entries[0][0] if a_entries and a_entries[0] else None
    a_entries, b_entries = (
        _check_square(m, None, TruncatedSeries, getattr(head, "ring", None),
                      getattr(head, "prime", None))
        for m in (a_entries, b_entries))
    return tuple(
        tuple(_sum_of_products(list(zip(row, col)))
              for col in zip(*b_entries))
        for row in a_entries)


def is_identity_series_matrix(entries) -> bool:
    """Diagonal entries constantly 1, everything else provably zero."""
    return all(_entry_is_identity(s) if a == b else s.is_zero
               for a, row in enumerate(entries) for b, s in enumerate(row))
