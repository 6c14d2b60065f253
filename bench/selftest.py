"""Self-test of the benchmark: oracles, corruptions, tracing, BENCHMARK.json.

    python3 bench/selftest.py

Runs in a few seconds.  Every oracle must accept the program's real output
and reject a corrupted copy of it: a p-adic coefficient shifted by
p^(claimed - 1), a claimed precision lowered below the floor, a rational
coefficient shifted by 1.  The oracles also run on the documents in
demos/data/ whose answers have a closed form, and those closed forms are
compared with the oracles' own exact answers.  Exits 1 on the first failure.
"""

import json
import random
import re
import sys
from fractions import Fraction
from math import factorial

import run
import oracles
import tracing
import workloads
from oracles import Rejected, padic_coeff, valuation

DEMOS = run.ROOT / "demos" / "data"


def padic_text(q, p, prec):
    """The printed form of the rational q known modulo p^prec."""
    if q == 0 or valuation(q, p) >= prec:
        return f"0 (mod {p}^{prec})"
    v = valuation(q, p)
    u = q / Fraction(p) ** v
    m = p ** (prec - v)
    unit = u.numerator * pow(u.denominator, -1, m) % m
    return f"{p}^{v}*{unit} (mod {p}^{prec})"


def series_coeffs(text):
    """Exact coefficients of one-variable series text such as demos use."""
    body, trunc = re.fullmatch(r"(.*?)\s*\+?\s*O\([tux]\^(\d+)\)",
                               text.strip()).groups()
    coeffs = [Fraction(0)] * int(trunc)
    for sign, num, var, exp in re.findall(
            r"([+-]?)\s*(\d+(?:/\d+)?)?\*?([tux])?(?:\^(\d+))?", body):
        if not (num or var):
            continue
        d = (int(exp) if exp else 1) if var else 0
        coeffs[d] += (-1 if sign == "-" else 1) * Fraction(num or 1)
    return coeffs


def connection(doc):
    return [[None if cell == "0" else series_coeffs(cell) for cell in row]
            for row in doc["connection"]]


class SelfTest:
    def __init__(self):
        self.lineint = run.import_program()
        self.passed = 0

    def answer(self, job):
        code, out = run.run_job(self.lineint.cli.main, job)
        if code != 0:
            self.fail(f"{job.argv[0]} exited {code}")
        return out

    def fail(self, message):
        print(f"selftest FAIL: {message}")
        sys.exit(1)

    def accepts(self, what, check, out):
        try:
            check(out)
        except Rejected as e:
            self.fail(f"{what}: the oracle rejected a correct output: {e}")
        self.passed += 1
        print(f"ok  {what}: accepted")

    def rejects(self, what, check, out):
        try:
            check(out)
        except Rejected as e:
            self.passed += 1
            print(f"ok  {what}: rejected ({e})")
            return
        self.fail(f"{what}: the oracle accepted a corrupted output")

    def equal(self, what, got, want):
        if got != want:
            self.fail(f"{what}: {got} != {want}")
        self.passed += 1
        print(f"ok  {what}")


def corrupted(out, edit):
    """out with edit(series document) applied to its first off-diagonal
    series, or to the whole document when it is a single series."""
    doc = json.loads(out)
    series = doc["entries"][0][1] if "entries" in doc else doc
    edit(series)
    return json.dumps(doc)


def shift_padic(series):
    """Shift the middle coefficient by p^(claimed - 1)."""
    k = len(series["coeffs"]) // 2
    p = series["p"]
    value, prec = padic_coeff(series["coeffs"][k], p)
    series["coeffs"][k] = padic_text(value + Fraction(p) ** (prec - 1), p,
                                     prec)


def lower_precision(series):
    """Claim the last coefficient only modulo p^1, below every floor used."""
    p = series["p"]
    value, _ = padic_coeff(series["coeffs"][-1], p)
    series["coeffs"][-1] = padic_text(value, p, 1)


def shift_rational(series):
    k = len(series["coeffs"]) // 2
    series["coeffs"][k] = str(Fraction(series["coeffs"][k]) + 1)


def workload_oracles(t):
    rng = random.Random("selftest")
    for name, workload in workloads.WORKLOADS.items():
        for size, make in (("small", workload.make_small),
                           ("full", workload.make)):
            job = make(rng)
            out = t.answer(job)
            t.accepts(f"{name} {size}", job.check, out)
            if name == "log":
                t.rejects(f"{name} {size}, coefficient + 1", job.check,
                          corrupted(out, shift_rational))
                continue
            t.rejects(f"{name} {size}, coefficient + p^(claimed-1)",
                      job.check, corrupted(out, shift_padic))
            t.rejects(f"{name} {size}, precision below the floor",
                      job.check, corrupted(out, lower_precision))


def demo_oracles(t):
    def cli(*argv):
        return t.answer(workloads.Job(argv, None, None))

    chain = json.loads((DEMOS / "chain_du.json").read_text())
    n = chain["trunc"]
    v = oracles.iterated_integrals(connection(chain), chain["signature"], n)
    for k in (1, 2):
        want = [Fraction(0)] * n
        want[k] = Fraction(1, factorial(k))
        t.equal(f"chain_du.json exact V[0][{k}] = u^{k}/{k}!", v[0][k], want)
    out = cli("invariant", "--file", str(DEMOS / "chain_du.json"),
              "--format", "structured")
    t.accepts("chain_du.json invariant",
              lambda o: oracles.check_invariant(
                  o, connection(chain), chain["signature"], n,
                  chain["p"], chain["abs_prec"]), out)

    logc = json.loads((DEMOS / "log_connection.json").read_text())
    n = logc["trunc"]
    v = oracles.iterated_integrals(connection(logc), logc["signature"], n)
    t.equal("log_connection.json exact V[0][1] = log(1 - t)", v[0][1],
            [Fraction(0)] + [Fraction(-1, d) for d in range(1, n)])
    out = cli("invariant", "--file", str(DEMOS / "log_connection.json"),
              "--format", "structured")
    check = lambda o: oracles.check_invariant(  # noqa: E731
        o, connection(logc), logc["signature"], n)
    t.accepts("log_connection.json invariant", check, out)
    t.rejects("log_connection.json, coefficient + 1", check,
              corrupted(out, shift_rational))

    geo = json.loads((DEMOS / "geometric_family.json").read_text())
    n, p, prec = geo["trunc"], geo["p"], geo["abs_prec"]
    section = f"1 - u + O(u^{n})"
    v = series_coeffs(section)
    t.equal("geometric_family.json exact log v = log(1 - u)",
            oracles.exact_log(v, n),
            [Fraction(0)] + [Fraction(-1, d) for d in range(1, n)])
    out = cli("integrate", "--family", str(DEMOS / "geometric_family.json"),
              "--section", section, "--p", str(p), "--format", "structured")
    check = lambda o: oracles.check_integrate(o, v, 2, p, prec)  # noqa: E731
    t.accepts("geometric_family.json integrate", check, out)
    t.rejects("geometric_family.json, coefficient + p^(claimed-1)", check,
              corrupted(out, shift_padic))


def traced_layers(t):
    """One small traced job per workload: the layers it must not touch."""
    lineint = t.lineint
    original = lineint.series.TruncatedSeries.__mul__
    rng = random.Random("selftest-trace")
    for name, workload in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        tracing.install(tracer, lineint)
        try:
            main = tracer.wrap("cli", lineint.cli.main)
            code, out = run.run_job(main, workload.make_small(rng))
        finally:
            tracer.restore()
        m = {k: v["value"] for k, v in
             tracing.per_layer(tracer, tracer.self_s, 1, 1.0,
                                   len(out)).items()}
        padic = sum(m[k] for k in m if k.startswith("coeff.padic_"))
        scheme = sum(m[k] for k in m if k.startswith("scheme."))
        t.equal(f"{name} traced: exit 0, output written",
                (code, m["parsing.out_bytes"] > 0), (0, True))
        t.equal(f"{name} traced: coefficient operations "
                f"{'absent' if name == 'log' else 'present'}",
                padic == 0, name == "log")
        t.equal(f"{name} traced: scheme layer "
                f"{'used' if name == 'integrate' else 'unused'}",
                scheme > 0, name == "integrate")
    t.equal("tracer restores the patched functions",
            lineint.series.TruncatedSeries.__mul__ is original, True)


def benchmark_json(t):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    t.equal("BENCHMARK.json workloads",
            sorted(w["name"] for w in spec["workloads"]),
            sorted(workloads.WORKLOADS))
    t.equal("BENCHMARK.json end-to-end metrics",
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END_UNITS)
    t.equal("BENCHMARK.json per-layer metrics",
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {k: unit for k, (unit, _) in tracing.PER_LAYER.items()})


def main():
    t = SelfTest()
    workload_oracles(t)
    demo_oracles(t)
    traced_layers(t)
    benchmark_json(t)
    print(f"selftest: {t.passed} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
