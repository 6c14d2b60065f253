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

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import InvalidInputError, NotFramedError
from .series import (
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    _coeff_is_zero,
    _dot,
    _max_abs_prec,
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
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if not self.parts:
            raise InvalidInputError("signature needs at least one part")
        if any(p < 1 for p in self.parts):
            raise InvalidInputError(
                f"signature parts must be positive, got {self.parts}"
            )

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def offsets(self) -> tuple:
        out, acc = [], 0
        for p in self.parts:
            out.append(acc)
            acc += p
        return tuple(out)

    def block_of(self, index: int) -> int:
        """Block containing the given row (or column) index."""
        if not 0 <= index < self.total:
            raise InvalidInputError(f"index {index} out of range")
        for i, off in enumerate(self.offsets):
            if index < off + self.parts[i]:
                return i
        raise AssertionError("unreachable")

    def block_rows(self, i: int) -> range:
        off = self.offsets[i]
        return range(off, off + self.parts[i])

    def lower_positions(self):
        """Each (a, b) on or below the block diagonal, row by row: where a
        framed connection is zero and a unipotent matrix is the identity."""
        blocks = [i for i, p in enumerate(self.parts) for _ in range(p)]
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
            if not isinstance(x, kind):
                raise InvalidInputError(
                    f"expected a {kind.__name__}, got {x!r}")
            if x.ring is not ring or x.prime != prime:
                raise InvalidInputError(
                    "matrix entries must share the matrix ring and prime")
    return entries


def _check_framed(signature: Signature, entries, what: str):
    """Every entry on or below the block diagonal must vanish."""
    for a, b in signature.lower_positions():
        if not entries[a][b].is_zero:
            raise NotFramedError(
                f"block ({signature.block_of(a) + 1}, "
                f"{signature.block_of(b) + 1}) of the {what} is not zero; "
                "the frame requires strict block upper triangularity"
            )


@dataclass(frozen=True, eq=False)
class ConnectionMatrix:
    """Square matrix of one-forms: a connection written in a frame."""

    ring: RingLabel
    entries: tuple
    prime: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _check_square(
            self.entries, None, DifferentialForm, self.ring, self.prime))

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, a: int, b: int) -> DifferentialForm:
        return self.entries[a][b]

    def negated(self) -> "ConnectionMatrix":
        return ConnectionMatrix(
            self.ring,
            tuple(tuple(-f for f in row) for row in self.entries),
            self.prime,
        )

    def relabeled(self, ring: RingLabel) -> "ConnectionMatrix":
        return ConnectionMatrix(
            ring,
            tuple(tuple(DifferentialForm(f.series.relabeled(ring))
                        for f in row) for row in self.entries),
            self.prime,
        )

    def working_precision(self) -> int:
        return _max_abs_prec(c for row in self.entries for f in row
                             for c in f.series.coeffs)


@dataclass(frozen=True, eq=False)
class FramedNablaModule:
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
    return s.constant_term() == 1 and s.without_constant_term().is_zero


@dataclass(frozen=True, eq=False)
class UnipotentMatrix:
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

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, a: int, b: int) -> TruncatedSeries:
        return self.entries[a][b]

    def constant_matrix(self) -> tuple:
        """The matrix of constant terms (the value at the origin)."""
        return tuple(tuple(s.constant_term() for s in row)
                     for row in self.entries)


@dataclass(frozen=True, eq=False)
class InvariantRepresentative:
    """Trivializing matrix normalized to the identity at the origin."""

    matrix: UnipotentMatrix

    def __post_init__(self):
        for a, row in enumerate(self.matrix.entries):
            for b, s in enumerate(row):
                c = s.constant_term()
                if not (c == 1 if a == b else _coeff_is_zero(c)):
                    raise InvalidInputError(
                        "representative is not normalized: constant term at "
                        f"({a + 1}, {b + 1}) is {c}"
                    )


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
                   for j in range(i + 1) for c in range(r)),
                  RingLabel.FORMAL) * inv
             for b in range(r)]
            for a in range(r)])
    return tuple(
        tuple(
            TruncatedSeries(RingLabel.FORMAL, 0,
                            tuple(layers[i][a][b] for i in range(t)), t)
            for b in range(r)
        )
        for a in range(r)
    )


def horizontal_basis(module: FramedNablaModule, trunc_order: int) -> tuple:
    """Basis of sections killed by the connection, as matrix columns.

    A coordinate vector s is horizontal when ds + C s dt = 0, so the layer
    recurrence runs on N = -C."""
    return fundamental_solution(module.connection.negated(), trunc_order)


_TRIVIALIZE_RINGS = (RingLabel.FORMAL, RingLabel.ROBBA_PLUS, RingLabel.ROBBA)


def trivialize(module: FramedNablaModule, trunc_order: int) -> UnipotentMatrix:
    """The unipotent V with dV = V*C and V(0) = I, built by superdiagonals.

    Each block at offset d is one antiderivative:

        V[i, i+d] = antiderive( C[i, i+d] + sum_(0<e<d) V[i, i+e] C[i+e, i+d] )

    so the entries are the iterated line integrals of the connection, each
    normalized to vanish at the origin."""
    conn = module.connection
    ring = conn.ring
    if ring not in _TRIVIALIZE_RINGS:
        raise InvalidInputError(
            f"cannot integrate one-forms over {ring.value}; "
            "use invariant() to view an integral connection in a ring "
            "with antiderivatives"
        )
    if trunc_order < 1:
        raise InvalidInputError("truncation must show the constant term")
    sig = module.signature
    prime = conn.prime
    prec = conn.working_precision()
    one = one_series(ring, trunc_order, prime, prec)
    zero = zero_series(ring, 0, trunc_order, prime, prec)
    r = sig.total
    ents = [[one if a == b else zero for b in range(r)] for a in range(r)]
    n = len(sig.parts)
    for d in range(1, n):
        for i_block in range(n - d):
            j_block = i_block + d
            for a in sig.block_rows(i_block):
                for b in sig.block_rows(j_block):
                    w = conn.entries[a][b]
                    for e in range(1, d):
                        for c in sig.block_rows(i_block + e):
                            w = w + ents[a][c] * conn.entries[c][b]
                    ents[a][b] = antiderive(w, ring).clipped(
                        trunc_order=trunc_order)
    return UnipotentMatrix(sig, ring,
                           tuple(tuple(row) for row in ents), prime)


def matrix_residual(module: FramedNablaModule, v_matrix: UnipotentMatrix,
                    trunc_order: int | None = None) -> bool:
    """Whether dV - V*C vanishes on the window both sides can prove."""
    conn = module.connection
    if v_matrix.size != conn.size:
        raise InvalidInputError(
            f"matrix size {v_matrix.size} does not match connection "
            f"size {conn.size}"
        )
    if conn.ring is not v_matrix.ring:
        conn = conn.relabeled(v_matrix.ring)
    vc = series_matrix_product(v_matrix.entries, conn.entries)
    for a, row in enumerate(v_matrix.entries):
        for b, v in enumerate(row):
            s = (derive(v) - vc[a][b]).series
            if trunc_order is not None:
                s = s.clipped(trunc_order=trunc_order)
            if not s.is_zero:
                return False
    return True


_INVARIANT_SOURCES = (RingLabel.FORMAL, RingLabel.GAMMA_PLUS,
                      RingLabel.E_PLUS, RingLabel.ROBBA_PLUS)


def invariant(module: FramedNablaModule,
              trunc_order: int) -> InvariantRepresentative:
    """The normalized line-integral representative of a framed module.

    The connection is re-read in the big power-series ring, where every
    one-form has an antiderivative, and trivialized there.  Pinning the
    constant term to the identity makes the representative deterministic
    for the given frame and truncation."""
    conn = module.connection
    if conn.ring not in _INVARIANT_SOURCES:
        raise InvalidInputError(
            f"connections over {conn.ring.value} have no origin to "
            "normalize at; expected a power-series ring"
        )
    if conn.ring.padic and conn.ring is not RingLabel.ROBBA_PLUS:
        module = FramedNablaModule(
            module.signature, conn.relabeled(RingLabel.ROBBA_PLUS))
    v = trivialize(module, trunc_order)
    return InvariantRepresentative(v)


def series_matrix_product(a_entries, b_entries) -> tuple:
    """Matrix product of two square series matrices of the same size."""
    if len(b_entries) != len(a_entries):
        raise InvalidInputError("matrix sizes differ")
    return tuple(
        tuple(reduce(operator.add, map(operator.mul, row, col))
              for col in zip(*b_entries))
        for row in a_entries)


def is_identity_series_matrix(entries) -> bool:
    """Diagonal entries constantly 1, everything else provably zero."""
    return all(_entry_is_identity(s) if a == b else s.is_zero
               for a, row in enumerate(entries) for b, s in enumerate(row))
