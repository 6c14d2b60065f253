"""Text grammar for series windows, and every JSON document format.

The grammar, which the scanner's regular expressions implement:

    series ::= marker | ['-'] term (('+' | '-') term)* '+' marker
    term   ::= (coeff | factor) (['*'] factor)*
    coeff  ::= int ['/' int]
    factor ::= var ['^' ['-'] int]
    marker ::= 'O' '(' var '^' ['-'] int [',' var '^' ['-'] int] ')'
    var    ::= 't' | 'u' | 'x'

Whitespace may stand between any two tokens, and a name is a whole run of
letters, so "3 t t" reads as 3t^2 and "tx" is an unknown symbol.  A working
precision must keep abs_prec * log2(p) within coeff.PREC_BITS_LIMIT.  A
number literal may be as long as Python converts text to integers
(sys.get_int_max_str_digits(), 4300 digits by default).

The marker is mandatory: text with no stated window end does not describe a
value of this library.  A bare marker is the all-zero window.  Like terms
merge, so "t + t + O(t^3)" reads as 2t.  Negative exponents need a ring with
poles.  Two-variable windows use the two-exponent marker O(u^A, x^B).

Printing is canonical: terms in increasing degree, vanishing coefficients
skipped, unit coefficients elided next to a variable, rationals as "a/b".
Coefficients known modulo a prime power print as their exact rational
representative, so printed text always re-parses; the precision-qualified
form appears in the structured documents only.  Re-parsed, such a
coefficient claims the abs_prec it is read at, which can exceed what was
known.  A coefficient Python will not write out in decimal, one with more
digits than the literal limit, is refused with invalid-input.
"""

from fractions import Fraction
import re
import sys

from .coeff import PAdic, check_precision, check_prime
from .errors import InsufficientWindowError, InvalidInputError, ParseError
from .nabla import ConnectionMatrix, FramedNablaModule, Signature
from .scheme import BiForm, BiSeries, FramedFamily, biseries_from_map, \
    zero_biseries
from .series import (
    DEFAULT_ABS_PREC,
    DifferentialForm,
    RingLabel,
    TruncatedSeries,
    _check_ring_prime,
    _coeff_is_zero,
    _max_abs_prec,
    series_from_coeffs,
    valuation_profile,
    zero_series,
)

_VARS = ("t", "u", "x")

# A term, factor, marker or marker entry pattern matches as far as the text
# fits the grammar, whitespace after a token included, so where it stops is
# the token a ParseError points at.  A factor is never the bare O that starts
# the marker.
_SPACE = re.compile(r"\s*")
_STRAY = re.compile(r"[^\s\dA-Za-z+\-*/^(),]")
_FACTOR = re.compile(r"\*?\s*(?!O(?![A-Za-z]))(?P<var>[A-Za-z]+)\s*"
                     r"(?:\^\s*(?P<neg>-\s*)?(?P<exp>\d*)\s*)?")
_TERM = re.compile(r"(?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d*)\s*)?)?"
                   rf"(?P<factors>(?:{_FACTOR.pattern})*)(?P<star>\*)?")
_MARKER = re.compile(r"O(?![A-Za-z])\s*(?P<open>\(\s*)?")
_ENTRY = re.compile(r"(?:(?P<var>[A-Za-z]+)\s*(?:(?P<caret>\^)\s*"
                    r"(?P<neg>-\s*)?(?:(?P<end>\d+)\s*(?P<sep>[,)]\s*)?)?)?)?")
_ENTRY_MISSING = {"var": "expected a variable in the O(...) marker",
                  "caret": "expected '^'",
                  "end": "expected an integer window end",
                  "sep": "expected ')'"}


def _term(text: str, i: int, negate: bool):
    """Read the term at i, negated if negate; return the term
    (coefficient, {var: exponent}, i) and where the next token starts."""
    m = _TERM.match(text, i)
    num, den = m.group("num", "den")
    if num is None and not text[i:i + 1].isalpha():
        raise ParseError("expected a term", i)
    if den == "":
        raise ParseError("expected a denominator", m.start("den"))
    if den and int(den) == 0:
        raise ParseError("zero denominator", m.start("den"))
    coeff = Fraction(int(num), int(den or 1)) if num else Fraction(1)
    powers: dict = {}
    for f in _FACTOR.finditer(text, m.start("factors"), m.end("factors")):
        var, neg, exp = f.group("var", "neg", "exp")
        if var not in _VARS:
            raise ParseError(f"unknown symbol {var!r}", f.start("var"))
        if exp == "":
            raise ParseError("expected an integer exponent", f.start("exp"))
        exp = 1 if exp is None else -int(exp) if neg else int(exp)
        powers[var] = powers.get(var, 0) + exp
    if m.group("star") is not None:
        raise ParseError("expected a variable after '*'", m.start("star"))
    return (-coeff if negate else coeff, powers, i), m.end()


def _parse_text(text: str, arity: int, arity_error: str):
    """Scan text whose O(...) marker names arity variables; return
    (terms, marker).

    terms is a list of (coefficient, {var: exponent}, position); marker is a
    list of arity (var, window end, position) entries.
    """
    try:
        return _scan(text, arity, arity_error)
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits().  The
        # scan converts literals left to right and digits occur only in
        # literals, so the refused one is the first run of that many.
        limit = sys.get_int_max_str_digits()
        at = re.search(rf"\d{{{limit + 1}}}", text).start()
        raise ParseError(f"number literal longer than {limit} digits",
                         at) from None


def _scan(text: str, arity: int, arity_error: str):
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray[0]!r}", stray.start())
    i = _SPACE.match(text).end()
    if i == len(text):
        raise ParseError("empty input", 0)
    terms, negate = [], text[i] == "-"
    if negate:
        i = _SPACE.match(text, i + 1).end()
    while (m := _MARKER.match(text, i)) is None:
        term, j = _term(text, i, negate)
        terms.append(term)
        if j == len(text):
            raise ParseError("missing O(...) marker", j)
        if text[j] not in "+-":
            raise ParseError("expected '+', '-' or the O(...) marker", j)
        negate, i = text[j] == "-", _SPACE.match(text, j + 1).end()
    if negate:
        raise ParseError("the O(...) marker follows '+', not '-'", i)
    if m.group("open") is None:
        raise ParseError("expected '('", m.end())
    marker, j, sep = [], m.end(), ","
    while sep[0] == ",":
        e = _ENTRY.match(text, j)
        var, neg, end, sep = e.group("var", "neg", "end", "sep")
        j = e.end()
        if var is not None and var not in _VARS:
            raise ParseError(f"unknown symbol {var!r}", e.start("var"))
        for group, message in _ENTRY_MISSING.items():
            if e.group(group) is None:
                raise ParseError(message, j)
        marker.append((var, -int(end) if neg else int(end), e.start("var")))
    if len(marker) > 2:
        raise ParseError("the O(...) marker takes at most two variables",
                         m.start())
    if j < len(text):
        raise ParseError("unexpected input after the O(...) marker", j)
    if len(marker) != arity:
        raise ParseError(arity_error, marker[0][2])
    return terms, marker


def _merge_terms(terms, marker) -> dict:
    """Like terms merged: {exponents: coefficient}, the exponents a tuple in
    marker order.  A term may use only the marker's variables, each below
    its window end; ring semantics are the caller's.
    """
    names = [v for v, _, _ in marker]
    ends = tuple(e for _, e, _ in marker)
    one = len(ends) == 1
    acc: dict = {}
    for coeff, powers, pos in terms:
        for v in powers:
            if v not in names:
                raise ParseError(
                    f"variable {v!r} does not belong in a series in "
                    + " and ".join(map(repr, names)), pos)
        exps = tuple(powers.get(v, 0) for v in names)
        if any(d >= e for d, e in zip(exps, ends)):
            raise ParseError(
                f"term degree {exps[0] if one else exps} is not below the "
                f"window end {ends[0] if one else ends}", pos)
        acc[exps] = acc[exps] + coeff if exps in acc else coeff
    return acc


# -- one-variable series -------------------------------------------------------


def parse_rational_terms(text: str):
    """Parse one-variable text to ({degree: coefficient}, var, window end).

    Like terms are merged.  No ring semantics are applied: any degree below
    the window end is legal here.
    """
    terms, marker = _parse_text(
        text, 1, "a one-variable series takes a one-variable marker")
    var, trunc, _ = marker[0]
    acc = _merge_terms(terms, marker)
    return {d: c for (d,), c in acc.items()}, var, trunc


def rational_residue(text: str) -> Fraction:
    """Read the degree -1 coefficient straight off one-variable text."""
    acc, _, trunc = parse_rational_terms(text)
    if trunc <= -1:
        raise InsufficientWindowError(
            f"the window ends at {trunc}, so the degree -1 coefficient "
            "is not visible")
    return acc.get(-1, Fraction(0))


def parse_series(text: str, ring: RingLabel = RingLabel.FORMAL,
                 prime: int | None = None,
                 abs_prec: int = DEFAULT_ABS_PREC) -> TruncatedSeries:
    """Parse text into a series window over the given ring.

    Unwritten degrees below the window end are zero, so the window floor is
    min(0, lowest written degree).
    """
    acc, var, trunc = parse_rational_terms(text)
    if var != ring.variable:
        raise ParseError(
            f"ring {ring.value} uses the variable {ring.variable!r}, "
            f"not {var!r}")
    _check_ring_prime(ring, prime)
    check_precision(prime, abs_prec)
    lo = min([0] + list(acc))
    if lo < 0 and not ring.laurent:
        raise ParseError(
            f"degree {lo} is below the window floor of ring {ring.value}")
    if trunc <= lo:
        if not ring.laurent and trunc < 0:
            raise ParseError(
                f"window end {trunc} is below the floor of ring {ring.value}")
        return zero_series(ring, trunc, trunc, prime, abs_prec)
    coeffs = [acc.get(d, Fraction(0)) for d in range(lo, trunc)]
    return series_from_coeffs(ring, lo, coeffs, prime, abs_prec)


def _coeff_fraction(c) -> Fraction:
    return c.to_fraction() if isinstance(c, PAdic) else c


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


def _term_chunk(mag: str, factors) -> str:
    names = [v if e == 1 else f"{v}^{e}" for v, e in factors]
    if not names:
        return mag
    if mag == "1":
        return "*".join(names)
    return "*".join([mag] + names)


def _join_terms(items) -> str:
    if not items:
        return "0"
    chunks = []
    for k, (q, degree, factors) in enumerate(items):
        body = _term_chunk(coeff_text(abs(q), degree), factors)
        if k == 0:
            chunks.append(f"-{body}" if q < 0 else body)
        else:
            chunks.append(f" - {body}" if q < 0 else f" + {body}")
    return "".join(chunks)


def _print_window(terms, ends) -> str:
    """The text of a one- or two-variable window: the nonvanishing
    (exponents, coefficient) terms in the order given, then the O(...)
    marker of the (var, end) pairs; the bare marker if there is no term
    and 0 would lie outside the window."""
    items = [(_coeff_fraction(c), exps[0] if len(exps) == 1 else exps,
              [(v, e) for (v, _), e in zip(ends, exps) if e != 0])
             for exps, c in terms if not _coeff_is_zero(c)]
    marker = "O(" + ", ".join(f"{v}^{e}" for v, e in ends) + ")"
    if not items and min(e for _, e in ends) <= 0:
        return marker
    return f"{_join_terms(items)} + {marker}"


def print_series(s: TruncatedSeries) -> str:
    """Canonical text for a series window; print-parse-print is stable."""
    terms = (((d,), c) for d, c in enumerate(s.coeffs, s.min_degree))
    return _print_window(terms, [(s.ring.variable, s.trunc_order)])


def structured_series(s: TruncatedSeries) -> dict:
    """The machine-readable document for one series window."""
    doc = {
        "window": [s.min_degree, s.trunc_order],
        "coeffs": [coeff_text(c, d)
                   for d, c in enumerate(s.coeffs, s.min_degree)],
        "ring": s.ring.value,
        "p": s.prime,
    }
    if s.ring.padic:
        doc["profile"] = [[d, v] for d, v in valuation_profile(s)]
    return doc


# -- two-variable series -------------------------------------------------------


def parse_biseries(text: str, ring: RingLabel, prime: int | None = None,
                   abs_prec: int = DEFAULT_ABS_PREC,
                   fiber_var: str = "x") -> BiSeries:
    """Parse two-variable text; the marker is O(base^A, fiber^B)."""
    base = ring.variable
    if fiber_var not in _VARS or fiber_var == base:
        raise InvalidInputError(
            f"fiber variable must be one of {_VARS} and differ from "
            f"{base!r}, got {fiber_var!r}")
    _check_ring_prime(ring, prime)
    check_precision(prime, abs_prec)
    terms, marker = _parse_text(
        text, 2, f"a two-variable window takes O({base}^A, {fiber_var}^B)")
    (bv, tu, p1), (fv, tx, p2) = marker
    if bv != base:
        raise ParseError(
            f"ring {ring.value} uses the base variable {base!r}, not {bv!r}",
            p1)
    if fv != fiber_var:
        raise ParseError(
            f"expected the fiber variable {fiber_var!r}, not {fv!r}", p2)
    if tu < 0 or tx < 0:
        raise ParseError("two-variable window ends must not be negative", p1)
    mapping = _merge_terms(terms, marker)
    if any(min(exps) < 0 for exps in mapping):
        raise ParseError("two-variable windows take no negative degrees")
    return biseries_from_map(ring, mapping, tu, tx, prime, abs_prec)


def _rows(b: BiSeries):
    """The coefficients row by row: row i holds those of u^i, by x-degree."""
    return [[col.coeffs[i] for col in b.cols] for i in range(b.trunc_u)]


def print_biseries(b: BiSeries, fiber_var: str = "x") -> str:
    """Canonical text, terms ordered by base then fiber degree."""
    return _print_window(
        (((i, j), c) for i, row in enumerate(_rows(b))
         for j, c in enumerate(row)),
        [(b.ring.variable, b.trunc_u), (fiber_var, b.trunc_x)])


def structured_biseries(b: BiSeries, fiber_var: str = "x") -> dict:
    """The machine-readable document for one two-variable window."""
    return {
        "trunc": [b.trunc_u, b.trunc_x],
        "coeffs": [[coeff_text(c, (i, j)) for j, c in enumerate(row)]
                   for i, row in enumerate(_rows(b))],
        "ring": b.ring.value,
        "p": b.prime,
        "fiber_var": fiber_var,
    }


# -- document formats ----------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _field(doc: dict, key: str, kinds, what: str, required: bool = True,
           default=None):
    val = doc.get(key)
    if val is None:
        _require(not required, f"the {what} is missing the field {key!r}")
        return default
    if kinds is int:
        _require(isinstance(val, int) and not isinstance(val, bool),
                 f"field {key!r} must be an integer")
    else:
        _require(isinstance(val, kinds), f"field {key!r} has the wrong type")
    return val


def _ring_from_label(label) -> RingLabel:
    _require(isinstance(label, str), "field 'ring' must be a ring label")
    try:
        return RingLabel(label)
    except ValueError:
        raise ParseError(f"unknown ring label {label!r}") from None


def document_precision(doc: dict) -> int:
    """The working precision a document asks for (its abs_prec field)."""
    _require(isinstance(doc, dict), "a document is a JSON object")
    prec = _field(doc, "abs_prec", int, "document", required=False,
                  default=DEFAULT_ABS_PREC)
    _require(prec >= 1, "field 'abs_prec' must be at least 1")
    return prec


def _doc_mode(doc: dict, what: str):
    """Read the shared header fields: ring, prime, working precision."""
    ring = _ring_from_label(_field(doc, "ring", str, what))
    if ring.padic:
        prime = check_prime(_field(doc, "p", int, what))
        prec = check_precision(prime, document_precision(doc))
    else:
        _require(doc.get("p") is None, f"ring {ring.value} takes no prime")
        _require(doc.get("abs_prec") is None,
                 f"ring {ring.value} takes no abs_prec")
        prime = None
        prec = DEFAULT_ABS_PREC
    return ring, prime, prec


def _signature_from(val) -> Signature:
    _require(isinstance(val, list) and val
             and all(isinstance(n, int) and not isinstance(n, bool)
                     for n in val),
             "field 'signature' must be a list of integers")
    return Signature(tuple(val))


def _string_rows(doc: dict, key: str, what: str, size: int | None = None):
    rows = _field(doc, key, list, what)
    _require(bool(rows) and all(isinstance(r, list) for r in rows),
             f"field {key!r} must be a matrix")
    r = size if size is not None else len(rows)
    _require(len(rows) == r and all(len(row) == r for row in rows),
             f"field {key!r} must be a {r} by {r} matrix")
    return rows


def load_connection_matrix(doc: dict):
    """Read a connection document; return (matrix, signature, window end).

    Fields: ring, connection (square matrix of series text, "0" allowed),
    trunc, p plus optional abs_prec when the ring needs them, and an
    optional signature.  No framing is checked here.
    """
    _require(isinstance(doc, dict), "a connection document is a JSON object")
    what = "connection document"
    sig_val = doc.get("signature")
    sig = _signature_from(sig_val) if sig_val is not None else None
    ring, prime, prec = _doc_mode(doc, what)
    trunc = _field(doc, "trunc", int, what)
    _require(trunc >= 1, "field 'trunc' must be at least 1")
    rows = _string_rows(doc, "connection", what,
                        sig.total if sig is not None else None)
    entries = []
    for row in rows:
        out = []
        for cell in row:
            _require(isinstance(cell, str),
                     "connection entries are series text")
            if cell.strip() == "0":
                s = zero_series(ring, 0, trunc, prime, prec)
            else:
                s = parse_series(cell, ring, prime, prec)
            out.append(DifferentialForm(s))
        entries.append(tuple(out))
    matrix = ConnectionMatrix(ring, tuple(entries), prime)
    return matrix, sig, trunc


def load_connection(doc: dict):
    """Read a connection document into a framed module; return it and trunc."""
    matrix, sig, trunc = load_connection_matrix(doc)
    _require(sig is not None,
             "the connection document is missing the field 'signature'")
    return FramedNablaModule(sig, matrix), trunc


def load_family(doc: dict):
    """Read a family document; return (family, trunc, trunc_x, fiber_var).

    Entries are {"du": text, "dx": text} objects in the two-variable
    grammar; "0" stands for a zero part, and a bare "0" cell for a zero
    entry.  trunc_x falls back to trunc, fiber_var to "x".
    """
    _require(isinstance(doc, dict), "a family document is a JSON object")
    what = "family document"
    sig = _signature_from(_field(doc, "signature", list, what))
    ring, prime, prec = _doc_mode(doc, what)
    trunc = _field(doc, "trunc", int, what)
    _require(trunc >= 1, "field 'trunc' must be at least 1")
    trunc_x = _field(doc, "trunc_x", int, what, required=False,
                     default=trunc)
    _require(trunc_x >= 1, "field 'trunc_x' must be at least 1")
    fiber_var = _field(doc, "fiber_var", str, what, required=False,
                       default="x")
    _require(fiber_var in _VARS and fiber_var != ring.variable,
             f"field 'fiber_var' must name a variable other than "
             f"{ring.variable!r}")
    rows = _string_rows(doc, "connection", what, sig.total)

    def part(text) -> BiSeries:
        if text is None or (isinstance(text, str) and text.strip() == "0"):
            return zero_biseries(ring, trunc, trunc_x, prime, prec)
        _require(isinstance(text, str), "family entry parts are series text")
        return parse_biseries(text, ring, prime, prec, fiber_var)

    entries = []
    for row in rows:
        out = []
        for cell in row:
            if isinstance(cell, str) and cell.strip() == "0":
                cell = {}
            _require(isinstance(cell, dict),
                     'family entries are {"du": ..., "dx": ...} objects '
                     'or "0"')
            extra = set(cell) - {"du", "dx"}
            _require(not extra, f"unknown entry field {sorted(extra)!r}")
            out.append(BiForm(part(cell.get("du")), part(cell.get("dx"))))
        entries.append(tuple(out))
    family = FramedFamily(sig, ring, tuple(entries), prime)
    return family, trunc, trunc_x, fiber_var


def matrix_document(signature: Signature | None, ring: RingLabel,
                    prime: int | None, rows, render, key: str = "entries",
                    **fields) -> dict:
    """The document for a square matrix: every matrix result and echo.

    The header is the signature (None for a plain matrix), the ring label
    and p; fields adds document fields such as abs_prec, flat, trunc,
    trunc_x and fiber_var; key ("entries" or "connection") holds the rows
    with each entry rendered by render.
    """
    return {
        "signature": list(signature.parts) if signature is not None
        else None,
        "ring": ring.value,
        "p": prime,
        **fields,
        key: [[render(x) for x in row] for row in rows],
    }


def dump_series_matrix(entries, signature: Signature | None = None,
                       render=print_series, **fields) -> dict:
    """The text document for a square matrix of windows.

    Entries print with render: print_series by default, or a two-variable
    printer.  The stated abs_prec is the largest in the matrix (None over
    the rationals).  Dumping what parse_series_matrix reads back gives the
    same bytes, but the re-read claims that abs_prec for every coefficient,
    also for those the matrix knew to fewer digits (ROADMAP item 3).
    """
    first = entries[0][0]
    prec = _max_abs_prec(c for row in entries for s in row
                         for c in s._flat_coeffs()) \
        if first.ring.padic else None
    return matrix_document(signature, first.ring, first.prime, entries,
                           render, abs_prec=prec, **fields)


def parse_series_matrix(doc: dict):
    """Read a matrix document back: (entries, ring, prime, signature)."""
    _require(isinstance(doc, dict), "a matrix document is a JSON object")
    what = "matrix document"
    ring, prime, prec = _doc_mode(doc, what)
    rows = _string_rows(doc, "entries", what)
    entries = []
    for row in rows:
        out = []
        for cell in row:
            _require(isinstance(cell, str), "matrix entries are series text")
            out.append(parse_series(cell, ring, prime, prec))
        entries.append(tuple(out))
    sig_val = doc.get("signature")
    sig = _signature_from(sig_val) if sig_val is not None else None
    return tuple(entries), ring, prime, sig


def echo_connection(doc: dict) -> dict:
    """A connection document in normal form: read, then written back with
    every entry printed canonically.  abs_prec is the document's own."""
    matrix, sig, trunc = load_connection_matrix(doc)
    return matrix_document(
        sig, matrix.ring, matrix.prime, matrix.entries,
        lambda f: print_series(f.series), "connection",
        abs_prec=document_precision(doc) if matrix.ring.padic else None,
        trunc=trunc)


def echo_family(doc: dict) -> dict:
    """A family document in normal form, as echo_connection."""
    family, trunc, trunc_x, fiber_var = load_family(doc)
    return matrix_document(
        family.signature, family.ring, family.prime, family.entries,
        lambda f: {"du": print_biseries(f.du_part, fiber_var),
                   "dx": print_biseries(f.dx_part, fiber_var)},
        "connection",
        abs_prec=document_precision(doc) if family.ring.padic else None,
        trunc=trunc, trunc_x=trunc_x, fiber_var=fiber_var)
