"""Exact truncated-series calculus over rational and p-adic coefficients.

The package computes with finitely supported Laurent windows over a family
of series rings, differentiates and integrates termwise, takes logarithms of
units, trivializes framed unipotent connections, and evaluates iterated line
integrals of two-variable families along sections.
"""

import types as _types

from .coeff import PAdic, Rational, padic_normalize
from .errors import (
    CalculusError,
    CannotDetermineDegreeError,
    DisjointWindowsError,
    InsufficientWindowError,
    IntegralityError,
    IntegralObstructionError,
    InvalidInputError,
    NonUnitError,
    NotFramedError,
    NotIntegralError,
    ParseError,
)
from .nabla import (
    ConnectionMatrix,
    FramedNablaModule,
    InvariantRepresentative,
    Signature,
    UnipotentMatrix,
    fundamental_solution,
    horizontal_basis,
    invariant,
    is_identity_series_matrix,
    matrix_residual,
    series_matrix_product,
    trivialize,
)
from .parsing import (
    dump_series_matrix,
    load_connection,
    load_connection_matrix,
    load_family,
    parse_biseries,
    parse_series,
    parse_series_matrix,
    print_biseries,
    print_series,
    rational_residue,
    structured_biseries,
    structured_series,
)
from .scheme import (
    BiForm,
    BiSeries,
    FramedFamily,
    biseries_from_map,
    curvature,
    line_integral,
    partial_u,
    partial_x,
    section_pullback,
    substitute_fiber,
    total_d,
    zero_biseries,
)
from .series import (
    DEFAULT_ABS_PREC,
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    antiderive,
    degree_of_unit,
    derive,
    dlog,
    formal_log,
    inverse,
    monomial,
    one_series,
    padic_log_dagger,
    padic_log_one_minus_py,
    residue,
    series_from_coeffs,
    unboundedness_witness,
    unit_decompose,
    valuation_profile,
    zero_series,
)

__version__ = "0.1.0"

# The public API is the import block above: every name it binds that is
# neither private nor a submodule.
__all__ = sorted(n for n, x in globals().items()
                 if not n.startswith("_")
                 and not isinstance(x, _types.ModuleType))
