"""Seeded inputs for the benchmark's four workloads.

Within a workload every job has one shape: one subcommand, one prime, one
window length, one matrix size.  Only the seeded coefficients vary, so the
per-job timings of a run sample one distribution rather than a mix of sizes.
Every job asks for ``--format structured``, the only output form that carries
each coefficient's claimed precision.

Each workload also names a small job of the same kind, which the benchmark
answers from a fresh interpreter to time set-up.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

P = 3            # the prime of the p-adic workloads
ABS_PREC = 20    # their working precision, digits of p


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the oracle that checks its standard output."""

    argv: tuple
    stdin: str | None
    check: Callable[[str], None]   # raises oracles.Rejected


def series_text(var, coeffs):
    """Series text for the coefficients of degrees 0..len-1."""
    terms = []
    for d, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        mag = str(abs(c)) + (f"*{var}^{d}" if d else "")
        terms.append(("- " if c < 0 else "+ ") + mag)
    body = " ".join(terms)
    if body.startswith("+ "):
        body = body[2:]
    elif body.startswith("- "):
        body = "-" + body[2:]
    return f"{body} + O({var}^{len(coeffs)})" if body \
        else f"O({var}^{len(coeffs)})"


def _residue(rng):
    return rng.randrange(P ** ABS_PREC)


def _unit(rng):
    while True:
        c = rng.randrange(1, P ** ABS_PREC)
        if c % P:
            return c


def plog_job(rng, trunc):
    """An integral unit over gamma+: a unit constant term, then residues."""
    v = [_unit(rng)] + [_residue(rng) for _ in range(trunc - 1)]
    argv = ("plog", "--p", str(P), "--abs-prec", str(ABS_PREC),
            "--format", "structured", series_text("u", v))
    return Job(argv, None, lambda out: oracles.check_plog(out, v, P, ABS_PREC))


def log_job(rng, trunc):
    """A rational unit: constant term +-2, then nonzero integers in [-9, 9].

    A zero coefficient of low degree makes the power sum much cheaper, and
    the constant term's size sets how fast its denominators grow, so both
    are held fixed to keep the jobs' costs alike."""
    a = [Fraction(rng.choice((2, -2)))]
    a += [Fraction(rng.choice(_NONZERO_DIGITS)) for _ in range(trunc - 1)]
    argv = ("log", "--format", "structured", series_text("t", a))
    return Job(argv, None, lambda out: oracles.check_log(out, a))


_NONZERO_DIGITS = [c for c in range(-9, 10) if c]


def invariant_job(rng, size, trunc):
    """A dense, strictly upper triangular connection over gamma+."""
    conn = [[[_residue(rng) for _ in range(trunc)] if b > a else None
             for b in range(size)] for a in range(size)]
    parts = [1] * size
    doc = {
        "signature": parts, "ring": "gamma+", "p": P, "abs_prec": ABS_PREC,
        "trunc": trunc,
        "connection": [["0" if c is None else series_text("u", c)
                        for c in row] for row in conn],
    }
    argv = ("invariant", "--file", "-", "--format", "structured")
    return Job(argv, json.dumps(doc),
               lambda out: oracles.check_invariant(out, conn, parts, trunc,
                                                   P, ABS_PREC))


def chain_family(size, trunc):
    """The chain family whose superdiagonal entries are dx/(1+x).

    It generalises demos/data/geometric_family.json to size x size; the
    geometric series is cut at x^trunc, which a section of order one cannot
    see below u^trunc.
    """
    geometric = series_text("x", [(-1) ** j for j in range(trunc)])
    dx = geometric.replace(f"O(x^{trunc})", f"O(u^{trunc}, x^{trunc})")
    return {
        "signature": [1] * size, "ring": "gamma+", "p": P,
        "abs_prec": ABS_PREC, "trunc": trunc, "trunc_x": trunc,
        "connection": [[{"du": "0", "dx": dx} if b == a + 1 else "0"
                        for b in range(size)] for a in range(size)],
    }


def integrate_job(rng, size, trunc):
    """A section v = 1 + (residues of positive degree) along the chain."""
    v = [1] + [_residue(rng) for _ in range(trunc - 1)]
    argv = ("integrate", "--family", "-", "--section", series_text("u", v),
            "--p", str(P), "--format", "structured")
    return Job(argv, json.dumps(chain_family(size, trunc)),
               lambda out: oracles.check_integrate(out, v, size, P,
                                                   ABS_PREC))


@dataclass(frozen=True)
class Workload:
    """A job maker at the timed size and at the small set-up size."""

    make: Callable          # rng -> Job
    make_small: Callable    # rng -> Job


WORKLOADS = {
    "plog": Workload(lambda rng: plog_job(rng, 48),
                     lambda rng: plog_job(rng, 8)),
    "log": Workload(lambda rng: log_job(rng, 40),
                    lambda rng: log_job(rng, 8)),
    "invariant": Workload(lambda rng: invariant_job(rng, 6, 20),
                          lambda rng: invariant_job(rng, 3, 6)),
    "integrate": Workload(lambda rng: integrate_job(rng, 3, 7),
                          lambda rng: integrate_job(rng, 2, 4)),
}
