"""Independent oracles for the benchmark's workloads.

Each oracle recomputes the exact answer to one job with fractions.Fraction
and plain integers, without importing lineint, and compares it with the
command's ``--format structured`` output.  Rational coefficients must match
exactly.  A p-adic coefficient prints as "p^v*unit (mod p^N)" or
"0 (mod p^N)": it passes when it agrees with the exact value modulo p^N and
N is at least the floor the workload documents.  Every output window must
end where the command promises, and degrees below a window must be exactly
zero in the exact answer.
"""

import json
import re
from fractions import Fraction
from math import factorial


class Rejected(Exception):
    """The command's output disagrees with the exact answer."""


# -- exact truncated power series: lists of Fractions, index = degree --------


def poly_mul(a, b, n):
    """The product of two series, degrees below n."""
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] += x * y
    return out


def integral(f, n):
    """The antiderivative with zero constant term, degrees below n."""
    return [Fraction(0)] + [f[d - 1] / d for d in range(1, n)]


def exact_log(a, n):
    """log(a / a[0]) below degree n, from the recurrence a * L' = a'."""
    a = [Fraction(c) for c in a]
    da = [(k + 1) * a[k + 1] for k in range(n - 1)]
    dl = []
    for k in range(n - 1):
        s = da[k] - sum(a[j] * dl[k - j] for j in range(1, k + 1) if a[j])
        dl.append(s / a[0])
    return integral(dl, n)


def block_index(parts):
    """The block of each row of a frame with the given block sizes."""
    return [i for i, size in enumerate(parts) for _ in range(size)]


def iterated_integrals(conn, parts, n):
    """The unipotent V with dV = V*C, V(0) = I, below degree n.

    Above the diagonal blocks V[a][b] = integral(C[a][b] + sum V[a][c]*C[c][b])
    over the rows c whose block lies strictly between those of a and b; the
    diagonal blocks are the identity and everything below them is zero.
    ``conn[a][b]`` is a list of exact coefficients, or None for zero.
    """
    r = len(conn)
    block = block_index(parts)
    one = [Fraction(1)] + [Fraction(0)] * (n - 1)
    v = [[one if a == b else [Fraction(0)] * n for b in range(r)]
         for a in range(r)]
    for b in range(r):
        for a in range(r):
            if block[a] >= block[b]:
                continue
            w = _padded(conn[a][b], n - 1)
            for c in range(r):
                if block[a] < block[c] < block[b] and conn[c][b] is not None:
                    w = [x + y for x, y in
                         zip(w, poly_mul(v[a][c], conn[c][b], n - 1))]
            v[a][b] = integral(w, n)
    return v


def _padded(coeffs, n):
    coeffs = [Fraction(c) for c in coeffs or ()][:n]
    return coeffs + [Fraction(0)] * (n - len(coeffs))


# -- reading the structured output -----------------------------------------


_PADIC = re.compile(r"(?:(\d+)\^(-?\d+)\*(\d+)|0) \(mod (\d+)\^(-?\d+)\)")
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def floor_log(d, p):
    """floor(log_p d) for d >= 1, and 0 for d = 0."""
    k, q = 0, p
    while q <= d:
        k, q = k + 1, q * p
    return k


def valuation(q, p):
    """The p-adic valuation of a nonzero rational."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def padic_coeff(text, p):
    """(value, claimed precision) of one printed p-adic coefficient."""
    m = _PADIC.fullmatch(text) if isinstance(text, str) else None
    if m is None or int(m[4]) != p:
        raise Rejected(f"{text!r} is not a coefficient over p = {p}")
    prec = int(m[5])
    if m[1] is None:
        return Fraction(0), prec
    v, unit = int(m[2]), int(m[3])
    if int(m[1]) != p or unit % p == 0 or v >= prec:
        raise Rejected(f"{text!r} is not a normalized p-adic coefficient")
    return Fraction(p) ** v * unit, prec


def load(out):
    """The JSON document on the last line of a command's output."""
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise Rejected(f"output is not a JSON document: {e}") from None


def check_series(doc, exact, n, p=None, floor=None, what="series"):
    """Compare one structured series against exact coefficients 0..n-1.

    Rational output (p None) must match exactly; p-adic output must agree
    modulo each claimed precision, which must be at least floor(degree).
    """
    try:
        lo, hi = doc["window"]
        coeffs = doc["coeffs"]
        prime = doc["p"]
        shape_ok = hi == n and 0 <= lo <= hi and len(coeffs) == hi - lo
    except (KeyError, TypeError, ValueError):
        raise Rejected(f"{what}: not a structured series") from None
    if prime != p:
        raise Rejected(f"{what}: prime {prime}, expected {p}")
    if not shape_ok:
        raise Rejected(f"{what}: window [{lo}, {hi}) with {len(coeffs)} "
                       f"coefficients, expected a window ending at {n}")
    for d in range(lo):
        if exact[d] != 0:
            raise Rejected(f"{what}: degree {d} lies below the window, but "
                           f"the exact coefficient is {exact[d]}")
    for d, text in zip(range(lo, hi), coeffs):
        if p is None:
            if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
                raise Rejected(f"{what}: {text!r} is not a rational")
            if Fraction(text) != exact[d]:
                raise Rejected(f"{what}: degree {d} is {text}, "
                               f"exact {exact[d]}")
            continue
        value, prec = padic_coeff(text, p)
        if prec < floor(d):
            raise Rejected(f"{what}: degree {d} claims mod {p}^{prec}, "
                           f"below the floor {p}^{floor(d)}")
        diff = value - exact[d]
        if diff != 0 and valuation(diff, p) < prec:
            raise Rejected(f"{what}: degree {d} is {text}, exact {exact[d]} "
                           f"differs modulo {p}^{prec}")


def check_matrix(out, v, parts, n, p=None, abs_prec=None):
    """Compare a structured matrix with the exact unipotent matrix v.

    The floor on the claimed precision at degree d of an entry k blocks
    above the diagonal is abs_prec - k*floor(log_p d): each of the k
    antiderivatives in its recurrence divides by a degree below n.
    """
    doc = load(out)
    r = len(v)
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if (not isinstance(entries, list) or len(entries) != r
            or any(not isinstance(row, list) or len(row) != r
                   for row in entries)):
        raise Rejected(f"output is not a {r} by {r} matrix document")
    if doc.get("signature") != list(parts) or doc.get("p") != p:
        raise Rejected("output signature or prime differs from the input")
    block = block_index(parts)
    for a in range(r):
        for b in range(r):
            k = max(block[b] - block[a], 0)
            check_series(entries[a][b], v[a][b], n, p,
                         lambda d: abs_prec - k * floor_log(d, p),
                         f"entry ({a + 1}, {b + 1})")


# -- one oracle per workload --------------------------------------------------


def check_log(out, a):
    """`lineint log`: the exact logarithm of the rational unit a."""
    check_series(load(out), exact_log(a, len(a)), len(a))


def check_plog(out, v, p, abs_prec):
    """`lineint plog`: the exact logarithm of the integral unit v.

    The claimed precision at degree d must be at least
    abs_prec - floor(log_p d), the loss that dividing by d forces.
    """
    check_series(load(out), exact_log(v, len(v)), len(v), p,
                 lambda d: abs_prec - floor_log(d, p))


def check_invariant(out, conn, parts, n, p=None, abs_prec=None):
    """`lineint invariant`: the exact iterated integrals of conn."""
    check_matrix(out, iterated_integrals(conn, parts, n), parts, n, p,
                 abs_prec)


def chain_power_matrix(log_v, r, n):
    """V[a][b] = (log v)^(b-a) / (b-a)! above the diagonal of an r-chain."""
    powers = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    for k in range(1, r):
        powers.append(poly_mul(powers[-1], log_v, n))
    zero = [Fraction(0)] * n
    return [[[c / factorial(b - a) for c in powers[b - a]] if b >= a
             else zero for b in range(r)] for a in range(r)]


def check_integrate(out, v, r, p, abs_prec):
    """`lineint integrate` along a chain family with entries dx/(1+x).

    Pulled back along x := v - 1 every superdiagonal entry is dv/v, so the
    line integral V[a][a+k] is (log v)^k / k!, the property the paper
    proves for iterated integrals of one logarithmic form.
    """
    n = len(v)
    check_matrix(out, chain_power_matrix(exact_log(v, n), r, n),
                 [1] * r, n, p, abs_prec)
