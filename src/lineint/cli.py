"""Command line front end.

One subcommand per calculus operation, text in and text out.  Series come in
through the shared grammar; connections and families come in as JSON
documents.  parsing reads and builds every text and document; this module
handles the arguments, picks the format and encodes the JSON.  Output is
deterministic: the same invocation prints the same bytes.

Exit codes: 0 on success, 1 when the mathematics refuses (non-unit input, a
pole obstructing integration, a window too narrow to decide), 2 when the
input text or the flags cannot be read at all, 141 (128 + SIGPIPE, as a
shell reports a process that signal ends) when the reader closes stdout
before the output is written, with nothing on stderr.  Domain failures print
a machine-readable JSON object on stderr.
"""

import argparse
import json
import os
import sys

from . import nabla, parsing, scheme, series
from .coeff import PAdic, check_degree, check_prime
from .errors import CalculusError, InsufficientWindowError, InvalidInputError, \
    ParseError
from .series import DEFAULT_ABS_PREC, DifferentialForm, RingLabel

_RING_CHOICES = [label.value for label in RingLabel]


class _Usage(Exception):
    """A flag combination the command cannot act on."""


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") \
            from None


def _positive_int(text: str) -> int:
    n = _int_arg(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _prime_arg(text: str) -> int:
    try:
        return check_prime(_int_arg(text))
    except InvalidInputError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


# -- input and output ----------------------------------------------------------


def _read_expr(value: str) -> str:
    """The series text, from stdin for "-"; columns count from its first
    character, since the grammar itself skips whitespace."""
    return sys.stdin.read() if value == "-" else value


def _read_doc(value: str) -> dict:
    try:
        if value == "-":
            text = sys.stdin.read()
        else:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise _Usage(f"cannot read {value!r}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # the only other: int() of too many digits
        raise ParseError("invalid JSON: a number has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def _compact(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _pretty(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _series_out(s, fmt: str) -> str:
    if fmt == "structured":
        return _compact(parsing.structured_series(s))
    return parsing.print_series(s)


def _matrix_out(entries, sig, fmt: str, text=None, structured=None,
                **fields) -> str:
    """A matrix of windows as a document: entries render with structured
    or text by fmt, by default the one-variable writers of parsing as they
    are when called, and fields adds document fields."""
    if fmt == "structured":
        first = entries[0][0]
        return _compact(parsing.matrix_document(
            sig, first.ring, first.prime, entries,
            structured or parsing.structured_series, **fields))
    return _pretty(parsing.dump_series_matrix(
        entries, sig, text or parsing.print_series, **fields))


# -- mode handling -------------------------------------------------------------


def _series_arg(args, ring: RingLabel, text=None):
    """Read the series text (args.expr unless given) over ring at --p and
    --abs-prec, which must appear exactly when the ring needs them."""
    p, prec = getattr(args, "p", None), getattr(args, "abs_prec", None)
    if ring.padic and p is None:
        raise _Usage(f"ring {ring.value} needs --p")
    if not ring.padic and p is not None:
        raise _Usage(f"ring {ring.value} takes no --p")
    if not ring.padic and prec is not None:
        raise _Usage(f"ring {ring.value} takes no --abs-prec")
    text = _read_expr(args.expr if text is None else text)
    return parsing.parse_series(text, ring, p,
                                DEFAULT_ABS_PREC if prec is None else prec)


def _trunc_arg(args, default=None):
    """--trunc, bounded like every window end, or default without it."""
    return default if args.trunc is None else check_degree(args.trunc)


def _clip_end(s, trunc):
    if trunc is None or trunc == s.trunc_order:
        return s
    if trunc > s.trunc_order:
        raise InsufficientWindowError(
            f"input known to O({s.ring.variable}^{s.trunc_order}) cannot "
            f"provide --trunc {trunc}")
    return s.clipped(trunc_order=trunc)


# -- subcommands ---------------------------------------------------------------


def _cmd_log(args) -> str:
    s = _clip_end(_series_arg(args, RingLabel.FORMAL), _trunc_arg(args))
    return _series_out(series.formal_log(s), args.format)


def _cmd_plog(args) -> str:
    s = _clip_end(_series_arg(args, RingLabel.GAMMA_PLUS), _trunc_arg(args))
    return _series_out(series.padic_log_dagger(s), args.format)


def _cmd_dlog(args) -> str:
    s = _series_arg(args, RingLabel(args.ring))
    return _series_out(series.dlog(s).series, args.format)


def _cmd_residue(args) -> str:
    if args.ring is None and args.p is None:
        if args.abs_prec is not None:
            raise _Usage("--abs-prec needs --p and a p-adic --ring")
        value = parsing.rational_residue(_read_expr(args.expr))
        ring_label = None
        prime = None
    else:
        ring = RingLabel(args.ring) if args.ring is not None else RingLabel.E
        value = series.residue(DifferentialForm(_series_arg(args, ring)))
        ring_label = ring.value
        prime = args.p
    if args.format == "structured":
        return _compact({"residue": parsing.coeff_text(value, -1),
                         "ring": ring_label, "p": prime})
    if isinstance(value, PAdic):
        value = value.to_fraction()
    return parsing.coeff_text(value, -1)


def _cmd_fundsol(args) -> str:
    matrix, sig, trunc = parsing.load_connection_matrix(_read_doc(args.file))
    entries = nabla.fundamental_solution(matrix, _trunc_arg(args, trunc))
    return _matrix_out(entries, sig, args.format)


def _cmd_trivialize(args) -> str:
    module, trunc = parsing.load_connection(_read_doc(args.file))
    v = nabla.trivialize(module, _trunc_arg(args, trunc))
    return _matrix_out(v.entries, v.signature, args.format)


def _cmd_invariant(args) -> str:
    module, trunc = parsing.load_connection(_read_doc(args.file))
    rep = nabla.invariant(module, _trunc_arg(args, trunc))
    return _matrix_out(rep.matrix.entries, rep.matrix.signature, args.format)


def _cmd_curvature(args) -> str:
    family, _, _, fiber_var = parsing.load_family(_read_doc(args.family))
    forms = scheme.curvature(family)
    return _matrix_out(
        forms, family.signature, args.format,
        lambda b: parsing.print_biseries(b, fiber_var),
        lambda b: parsing.structured_biseries(b, fiber_var),
        fiber_var=fiber_var,
        flat=all(b.is_zero for row in forms for b in row))


def _cmd_integrate(args) -> str:
    doc = _read_doc(args.family)
    family, _, _, _ = parsing.load_family(doc)
    if family.ring.padic:
        # The document supplies what --p and --abs-prec leave out.
        if args.p is not None and args.p != family.prime:
            raise _Usage(f"--p {args.p} disagrees with the family document "
                         f"(p = {family.prime})")
        args.p = family.prime
        if args.abs_prec is None:
            args.abs_prec = parsing.document_precision(doc)
    section = _series_arg(args, family.ring, args.section)
    rep = scheme.line_integral(family, section)
    return _matrix_out(rep.matrix.entries, rep.matrix.signature, args.format)


def _cmd_parse_check(args) -> str:
    given = [x for x in (args.expr, args.file, args.family) if x is not None]
    if len(given) != 1:
        raise _Usage(
            "parse-check takes exactly one input: an expression, --file, "
            "or --family")
    if args.expr is not None:
        return _series_out(_series_arg(args, RingLabel(args.ring)),
                           args.format)
    style = _compact if args.format == "structured" else _pretty
    if args.file is not None:
        return style(parsing.echo_connection(_read_doc(args.file)))
    return style(parsing.echo_family(_read_doc(args.family)))


# -- wiring --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lineint",
        description="Truncated series calculus: logarithms, residues, and "
                    "iterated integrals of framed connections.")
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="command")

    omit = object()

    def command(name, func, help_text, expr=False, optional_expr=False,
                file_opt=False, family_opt=False, section=False, ring=omit,
                padic=False, trunc=False):
        required = not optional_expr
        p = sub.add_parser(name, help=help_text, description=help_text)
        if expr:
            p.add_argument("expr", help="series text, or - for stdin")
        elif optional_expr:
            p.add_argument("expr", nargs="?", default=None,
                           help="series text, or - for stdin")
        if file_opt:
            p.add_argument("--file", required=required, default=None,
                           help="connection document (JSON path, or -)")
        if family_opt:
            p.add_argument("--family", required=required, default=None,
                           help="family document (JSON path, or -)")
        if section:
            p.add_argument("--section", required=True,
                           help="section series text, or - for stdin")
        if ring is not omit:
            p.add_argument("--ring", choices=_RING_CHOICES, default=ring,
                           help="coefficient ring label")
        if padic:
            p.add_argument("--p", type=_prime_arg, default=None,
                           help="prime of the coefficient field, below 2^64")
            p.add_argument("--abs-prec", type=_positive_int, default=None,
                           help="working precision, digits of p")
        if trunc:
            p.add_argument("--trunc", type=_positive_int, default=None,
                           help="window end to work at")
        p.add_argument("--format", choices=["text", "structured"],
                       default="text", help="output style")
        p.set_defaults(func=func)
        return p

    command("log", _cmd_log,
            "logarithm of a rational series unit", expr=True, trunc=True)
    command("plog", _cmd_plog,
            "overconvergent logarithm of an integral p-adic unit",
            expr=True, padic=True, trunc=True)
    command("dlog", _cmd_dlog,
            "logarithmic derivative of a series unit",
            expr=True, ring="formal", padic=True)
    command("residue", _cmd_residue,
            "degree -1 coefficient of a one-form",
            expr=True, ring=None, padic=True)
    command("fundsol", _cmd_fundsol,
            "fundamental solution of dU = N U over the rationals",
            file_opt=True, trunc=True)
    command("trivialize", _cmd_trivialize,
            "unipotent gauge taking a framed connection to zero",
            file_opt=True, trunc=True)
    command("invariant", _cmd_invariant,
            "normalized horizontal invariant of a framed connection",
            file_opt=True, trunc=True)
    command("curvature", _cmd_curvature,
            "curvature of a two-variable family of connections",
            family_opt=True)
    command("integrate", _cmd_integrate,
            "pull a family back along a section and take its invariant",
            family_opt=True, section=True, padic=True)
    command("parse-check", _cmd_parse_check,
            "parse input and echo its normal form",
            optional_expr=True, file_opt=True, family_opt=True,
            ring="formal", padic=True)
    return top


# Built once, at import: parse_args keeps no state between calls, so every
# main call in a process shares this parser.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        print(args.func(args))
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except _Usage as e:
        print(f"lineint: error: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(_compact(e.payload()), file=sys.stderr)
        return 2
    except CalculusError as e:
        print(_compact(e.payload()), file=sys.stderr)
        return 1
    except SystemExit as e:
        code = e.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
