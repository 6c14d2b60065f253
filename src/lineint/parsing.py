"""Text grammar for series windows, and every JSON document format.

The grammar:

    series ::= marker | ['-'] term (('+' | '-') term)* '+' marker
    term   ::= (coeff | factor) (['*'] factor)*
    coeff  ::= int ['/' int]
    factor ::= var ['^' ['-'] int]
    marker ::= 'O' '(' var '^' ['-'] int [',' var '^' ['-'] int] ')'
    var    ::= 't' | 'u' | 'x'

Whitespace may stand between any two tokens, and a name is a whole run of
letters, so "3 t t" reads as 3t^2 and "tx" is an unknown symbol.  A working
precision must keep abs_prec * log2(p) within coeff.PREC_BITS_LIMIT.  Every
degree and window end, a document's trunc and trunc_x too, must lie within
coeff.DEGREE_LIMIT in absolute value.  A number literal may be as long as
Python converts text to integers (sys.get_int_max_str_digits(), 4300 digits
by default).  A matrix document may have at most coeff.MATRIX_SIZE_LIMIT
rows.

The marker is mandatory: text with no stated window end does not describe a
value of this library.  A bare marker is the all-zero window.  Like terms
merge, so "t + t + O(t^3)" reads as 2t.  Negative exponents need a ring with
poles.  Two-variable windows use the two-exponent marker O(u^A, x^B).

Text is read by one reader, _read: one findall reads it as far as it fits
the grammar and merges like terms as it goes, and the first refusal comes
from the same matches.

Like terms merge as exact integers; a Fraction is made only for a literal
with a '/'.  The merged values become coefficients through the library's
one builder, series.series_from_coeffs (per column, for two variables,
through scheme.biseries_from_map): over the p-adics an integer n goes
straight to p^0 * n modulo p^abs_prec, the working precision, and
integrality is checked only where a '/' stands or abs_prec is negative.
The reader checks the grammar, the prime and the precision once per text
and each degree and window end once.

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
import itertools
import re
import sys

from .coeff import DEGREE_LIMIT, MATRIX_SIZE_LIMIT, PAdic, check_degree, \
    check_precision, check_prime
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
    coeff_text,
    series_from_coeffs,
    valuation_profile,
    zero_series,
)

_VARS = ("t", "u", "x")

# Series text is read by one findall of _PIECE, one piece per match, with
# the groups _read_pieces unpacks: a term's sign, literal, '/', denominator
# and first factor (name, '^' with its '-', exponent); a further factor of
# the term; the marker, from its sign to the end of the text; or, where no
# piece fits, the character there.  A piece matches as far as the text fits
# the grammar, whitespace after a token included, so the piece holding a
# fault names the token a ParseError points at.  No match repeats a group,
# so a long term keeps no backtracking state.
_NAME = r"(?!O(?![A-Za-z]))[A-Za-z]"  # not the O that starts the marker
_PIECE = re.compile(
    r"(?:(\A\s*(?:-\s*)?|[+-]\s*)"
    r"(?:(O(?![A-Za-z])[\s\S]*)"
    rf"|(\d+)\s*(?:(/\s*)(\d*)\s*)?(?:\*\s*(?={_NAME}))?)?"
    rf"|(?:\*\s*)?(?={_NAME}))"
    rf"(?:({_NAME}[A-Za-z]*)\s*(?:(\^\s*(?:-\s*)?)(\d*)\s*)?)?"
    r"|([\s\S])[\s\S]*")
_STRAY = re.compile(r"[^\s\dA-Za-z+\-*/^(),]")
_MARKER = re.compile(r"O(?![A-Za-z])\s*(?P<open>\(\s*)?")
_ENTRY = re.compile(r"(?:(?P<var>[A-Za-z]+)\s*(?:(?P<caret>\^)\s*"
                    r"(?P<neg>-\s*)?(?:(?P<end>\d+)\s*(?P<sep>[,)]\s*)?)?)?)?")
_ENTRY_MISSING = {"var": "expected a variable in the O(...) marker",
                  "caret": "expected '^'",
                  "end": "expected an integer window end",
                  "sep": "expected ')'"}


def _piece(text: str, k: int):
    """The match of the k-th piece, read again for a refusal's column."""
    return next(itertools.islice(_PIECE.finditer(text), k, None))


def _marker(text: str, at: int, negate: bool, arity: int, arity_error: str):
    """The entries [(var, window end, column)] of the O(...) marker at
    column at, negate if a '-' stands before it."""
    if negate:
        raise ParseError("the O(...) marker follows '+', not '-'", at)
    m = _MARKER.match(text, at)
    if m["open"] is None:
        raise ParseError("expected '('", m.end())
    marker, j, sep = [], m.end(), ","
    while sep[0] == ",":
        e = _ENTRY.match(text, j)
        var, neg, end, sep = e.group("var", "neg", "end", "sep")
        j = e.end()
        if sep is None or var not in _VARS:
            if var is not None and var not in _VARS:
                raise ParseError(f"unknown symbol {var!r}", e.start("var"))
            group = next(g for g in _ENTRY_MISSING if e.group(g) is None)
            raise ParseError(_ENTRY_MISSING[group], j)
        marker.append((var, -int(end) if neg else int(end), e.start("var")))
    if len(marker) > 2:
        raise ParseError("the O(...) marker takes at most two variables", at)
    if j < len(text):
        raise ParseError("unexpected input after the O(...) marker", j)
    if len(marker) != arity:
        raise ParseError(arity_error, marker[0][2])
    return marker


def _read(text: str, arity: int, arity_error: str, check=None):
    """Read text whose O(...) marker names arity variables; return the
    merged terms {exponents: value} and the marker [(var, window end,
    column)].

    The exponents are the degree for one variable and a pair in marker
    order for two; a value is an int, or a Fraction where a '/' stands.
    check(marker), when given, refuses a marker or returns None or the
    refusal of a negative degree (a format string for it).  The first
    refusal is raised, in this order: a stray character, the tokens left
    to right, the marker, check(marker), then the window ends and the terms
    against the marker (each variable in it, each degree below its window
    end, within coeff.DEGREE_LIMIT and not negative if check refuses that).
    """
    try:
        return _read_pieces(text, arity, arity_error, check)
    except (ParseError, ValueError) as e:
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray[0]!r}",
                             stray.start()) from None
        if isinstance(e, ParseError):
            raise
        # int() refuses more digits than sys.get_int_max_str_digits().  The
        # reader converts literals left to right and digits occur only in
        # literals, so the refused one is the first run of that many.
        limit = sys.get_int_max_str_digits()
        at = re.search(rf"\d{{{limit + 1}}}", text).start()
        raise ParseError(f"number literal longer than {limit} digits",
                         at) from None


def _read_pieces(text: str, arity: int, arity_error: str, check):
    """_read without its stray check; an over-long literal is a ValueError."""
    pieces = _PIECE.findall(text)
    sign, rest = pieces[-1][:2]
    marker = fault = floor = None
    if rest:
        # The marker ends the text; its refusal waits for those of the terms,
        # which are read meanwhile against a marker that admits none.
        try:
            marker = _marker(text, len(text) - len(rest), "-" in sign,
                             arity, arity_error)
            floor = check and check(marker)
        except (ParseError, ValueError) as e:
            fault = e
    names, ends, _ = zip(*marker or [(None, 0, 0)] * arity)
    # exps[slot[v]] sums the exponents of v in a term, and exps[arity]
    # those of a variable the marker lacks.  A marker naming one variable
    # twice reads that sum for both entries.
    slot = {v: k for k, v in enumerate(names)}
    first, last = slot[names[0]], slot[names[-1]]
    lo = -DEGREE_LIMIT if floor is None else 0
    end0, end1, one = ends[0], ends[-1], arity == 1
    acc: dict = {}
    exps = bad = None
    for k, (sign, rest, num, slash, den, name, power, exp, stop) \
            in enumerate(pieces):
        if sign or exps is None:
            # A term or the marker starts: the term before it is merged,
            # and the first to break the marker's bounds is kept.
            if exps is not None:
                a, b = exps[first], exps[last]
                key = a if one else (a, b)
                if not (lo <= a < end0 and lo <= b < end1) and bad is None:
                    bad = head, None, key
                acc[key] = acc[key] + coeff if key in acc else coeff
            if rest:
                break
            head = k
            if slash:
                coeff = int(den) if den else None
                if not coeff:
                    raise ParseError("zero denominator" if den else
                                     "expected a denominator",
                                     _piece(text, k).start(5))
                coeff = Fraction(int(num), coeff)
            elif num or name:
                coeff = int(num) if num else 1
            elif text.strip():
                raise ParseError("expected a term", _piece(text, k).end(1))
            else:
                raise ParseError("empty input", 0)
            if "-" in sign:
                coeff = -coeff
            exps = [0] * (arity + 1)
        elif stop:
            raise ParseError("expected a variable after '*'" if stop == "*"
                             else "expected '+', '-' or the O(...) marker",
                             _piece(text, k).start())
        if name:
            try:
                s = slot[name]
            except KeyError:
                if name not in _VARS:
                    raise ParseError(f"unknown symbol {name!r}",
                                     _piece(text, k).start(6)) from None
                s = arity
                if bad is None:
                    bad = head, name, None
            if not power:
                exps[s] += 1
            elif exp:
                exps[s] += -int(exp) if "-" in power else int(exp)
            else:
                raise ParseError("expected an integer exponent",
                                 _piece(text, k).start(8))
    else:
        raise ParseError("missing O(...) marker", len(text))
    if fault is not None:
        raise fault
    for end in ends:
        check_degree(end)
    if bad is not None:
        head, var, degree = bad
        at = _piece(text, head).end(1)
        if var is not None:
            raise ParseError(
                f"variable {var!r} does not belong in a series in "
                + " and ".join(map(repr, names)), at)
        degrees = (degree,) if one else degree
        for d in degrees:
            check_degree(d)
        if all(d < end for d, end in zip(degrees, ends)):
            raise ParseError(floor.format(degree), at)
        raise ParseError(f"term degree {degree} is not below the window end "
                         f"{end0 if one else ends}", at)
    return acc, marker


# -- one-variable series -------------------------------------------------------

_ONE_VARIABLE = "a one-variable series takes a one-variable marker"


def parse_rational_terms(text: str):
    """Parse one-variable text to ({degree: Fraction}, var, window end).

    Like terms are merged.  No ring semantics are applied: any degree below
    the window end is legal here.
    """
    acc, ((var, trunc, _),) = _read(text, 1, _ONE_VARIABLE)
    return {d: Fraction(c) for d, c in acc.items()}, var, trunc


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
    check = None if ring.laurent else lambda _: (
        f"degree {{}} is below the window floor of ring {ring.value}")
    acc, ((var, trunc, at),) = _read(text, 1, _ONE_VARIABLE, check)
    if var != ring.variable:
        raise ParseError(
            f"ring {ring.value} uses the variable {ring.variable!r}, "
            f"not {var!r}", at)
    _check_ring_prime(ring, prime)
    check_precision(prime, abs_prec)
    if trunc < 0 and not ring.laurent:
        raise ParseError(
            f"window end {trunc} is below the floor of ring {ring.value}", at)
    # An end at or below 0 and every written degree gives [trunc, trunc).
    lo = min([0, *acc, trunc])
    values = [acc.get(d, 0) for d in range(lo, trunc)]
    return series_from_coeffs(ring, lo, values, prime, abs_prec)


def _print_window(terms, ends) -> str:
    """The text of a one- or two-variable window: the nonvanishing
    (exponents, coefficient) terms in the order given, then the O(...)
    marker of the (var, end) pairs; the bare marker if there is no term
    and 0 would lie outside the window."""
    chunks = []
    for exps, c in terms:
        if _coeff_is_zero(c):
            continue
        q = c.to_fraction() if isinstance(c, PAdic) else c
        factors = [v if e == 1 else f"{v}^{e}"
                   for (v, _), e in zip(ends, exps) if e != 0]
        mag = coeff_text(abs(q), exps[0] if len(exps) == 1 else exps)
        if mag != "1" or not factors:
            factors.insert(0, mag)
        chunks += (" - " if q < 0 else " + ", "*".join(factors))
    marker = "O(" + ", ".join(f"{v}^{e}" for v, e in ends) + ")"
    if not chunks:
        return marker if min(e for _, e in ends) <= 0 else f"0 + {marker}"
    chunks[0] = "-" if chunks[0] == " - " else ""
    return "".join(chunks) + " + " + marker


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
    """Parse two-variable text; the marker is O(base^A, fiber^B).  The
    merged terms become a window through biseries_from_map."""
    if fiber_var not in _VARS or fiber_var == ring.variable:
        raise InvalidInputError(
            f"fiber variable must be one of {_VARS} and differ from "
            f"{ring.variable!r}, got {fiber_var!r}")
    _check_ring_prime(ring, prime)
    check_precision(prime, abs_prec)
    base = ring.variable

    def check(marker):
        (bv, tu, p1), (fv, tx, p2) = marker
        if bv != base:
            raise ParseError(f"ring {ring.value} uses the base variable "
                             f"{base!r}, not {bv!r}", p1)
        if fv != fiber_var:
            raise ParseError(
                f"expected the fiber variable {fiber_var!r}, not {fv!r}", p2)
        if tu < 0 or tx < 0:
            raise ParseError("two-variable window ends must not be negative",
                             p1)
        return "two-variable windows take no negative degrees"

    mapping, ((_, tu, _), (_, tx, _)) = _read(
        text, 2, f"a two-variable window takes O({base}^A, {fiber_var}^B)",
        check)
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


def _field(doc: dict, key: str, kinds, what: str, default=None):
    """Field key of kinds, or default if absent; required if no default."""
    val = doc.get(key)
    if val is None:
        _require(default is not None,
                 f"the {what} is missing the field {key!r}")
        return default
    if kinds is int:
        _require(isinstance(val, int) and not isinstance(val, bool),
                 f"field {key!r} must be an integer")
    else:
        _require(isinstance(val, kinds), f"field {key!r} has the wrong type")
    return val


def _window_end(doc: dict, key: str, what: str, default=None) -> int:
    """Field key (default if absent) as an int in [1, DEGREE_LIMIT]."""
    end = _field(doc, key, int, what, default)
    _require(end >= 1, f"field {key!r} must be at least 1")
    return check_degree(end)


def document_precision(doc: dict) -> int:
    """The working precision a document asks for (its abs_prec field)."""
    _require(isinstance(doc, dict), "a document is a JSON object")
    prec = _field(doc, "abs_prec", int, "document", DEFAULT_ABS_PREC)
    _require(prec >= 1, "field 'abs_prec' must be at least 1")
    return prec


def _doc_mode(doc: dict, what: str):
    """Read the shared header fields: ring, prime, working precision."""
    label = _field(doc, "ring", str, what)
    try:
        ring = RingLabel(label)
    except ValueError:
        raise ParseError(f"unknown ring label {label!r}") from None
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
    if len(rows) > MATRIX_SIZE_LIMIT:
        raise InvalidInputError(
            f"field {key!r} has {len(rows)} rows, more than the bound "
            f"{MATRIX_SIZE_LIMIT}")
    r = size if size is not None else len(rows)
    _require(len(rows) == r and all(len(row) == r for row in rows),
             f"field {key!r} must be a {r} by {r} matrix")
    return rows


def _text_cells(rows, what: str, read):
    """The matrix of rows with each cell, which must be series text, read
    by read, row by row."""
    def cell(text):
        _require(isinstance(text, str), f"{what} entries are series text")
        return read(text)
    return tuple(tuple(map(cell, row)) for row in rows)


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
    trunc = _window_end(doc, "trunc", what)
    rows = _string_rows(doc, "connection", what,
                        sig.total if sig is not None else None)
    zero = DifferentialForm(zero_series(ring, 0, trunc, prime, prec))
    entries = _text_cells(rows, "connection", lambda cell: zero
                          if cell.strip() == "0" else DifferentialForm(
                              parse_series(cell, ring, prime, prec)))
    matrix = ConnectionMatrix(ring, entries, prime)
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
    entry.  trunc_x falls back to trunc, fiber_var to "x".  Each distinct
    part text is read once: equal texts give one shared window, and every
    "0" cell is one shared zero entry.
    """
    _require(isinstance(doc, dict), "a family document is a JSON object")
    what = "family document"
    sig = _signature_from(_field(doc, "signature", list, what))
    ring, prime, prec = _doc_mode(doc, what)
    trunc = _window_end(doc, "trunc", what)
    trunc_x = _window_end(doc, "trunc_x", what, trunc)
    fiber_var = _field(doc, "fiber_var", str, what, "x")
    _require(fiber_var in _VARS and fiber_var != ring.variable,
             f"field 'fiber_var' must name a variable other than "
             f"{ring.variable!r}")
    rows = _string_rows(doc, "connection", what, sig.total)
    # One window per distinct part text, the zero part's "0" among them.
    parsed = {"0": zero_biseries(ring, trunc, trunc_x, prime, prec)}
    zero = BiForm(parsed["0"], parsed["0"])

    def part(text) -> BiSeries:
        if text is None or (isinstance(text, str) and text.strip() == "0"):
            text = "0"
        _require(isinstance(text, str), "family entry parts are series text")
        if text not in parsed:
            parsed[text] = parse_biseries(text, ring, prime, prec, fiber_var)
        return parsed[text]

    def entry(cell) -> BiForm:
        if isinstance(cell, str) and cell.strip() == "0":
            return zero
        _require(isinstance(cell, dict),
                 'family entries are {"du": ..., "dx": ...} objects or "0"')
        extra = set(cell) - {"du", "dx"}
        _require(not extra, f"unknown entry field {sorted(extra)!r}")
        return BiForm(part(cell.get("du")), part(cell.get("dx")))

    entries = tuple(tuple(map(entry, row)) for row in rows)
    family = FramedFamily(sig, ring, entries, prime)
    return family, trunc, trunc_x, fiber_var


def matrix_document(signature: Signature | None, ring: RingLabel,
                    prime: int | None, rows, render, key: str = "entries",
                    **fields) -> dict:
    """The document for a square matrix: every matrix result and echo.

    The header is the signature (None for a plain matrix), the ring label
    and p; fields adds document fields such as abs_prec, flat, trunc,
    trunc_x and fiber_var; key ("entries" or "connection") holds the rows
    with each entry rendered by render, once per distinct entry object
    (a matrix such as trivialize's shares its zero and one windows).
    """
    texts = {}

    def rendered(x):
        if id(x) not in texts:
            texts[id(x)] = render(x)
        return texts[id(x)]

    return {
        "signature": list(signature.parts) if signature is not None
        else None,
        "ring": ring.value,
        "p": prime,
        **fields,
        key: [[rendered(x) for x in row] for row in rows],
    }


def dump_series_matrix(entries, signature: Signature | None = None,
                       render=print_series, **fields) -> dict:
    """The text document for a square matrix of windows.

    Entries print with render: print_series by default, or a two-variable
    printer.  The stated abs_prec is the largest in the matrix (None over
    the rationals).  Dumping what parse_series_matrix reads back gives the
    same bytes, but the re-read claims that abs_prec for every coefficient,
    also for those the matrix knew to fewer digits.
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
    sig_val = doc.get("signature")
    sig = _signature_from(sig_val) if sig_val is not None else None
    rows = _string_rows(doc, "entries", what,
                        sig.total if sig is not None else None)
    entries = _text_cells(rows, "matrix",
                          lambda cell: parse_series(cell, ring, prime, prec))
    return entries, ring, prime, sig


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
