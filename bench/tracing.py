"""Per-layer tracing from outside the program.

The tracer patches a wrapper over each traced function at the name where
lineint looks it up: a module attribute for calls such as ``nabla.invariant``
or a global imported by name, a class attribute for operators such as
``TruncatedSeries.__mul__``.  Each wrapper counts calls and adds its span's
self time, the span minus the time its traced children took, to a total per
span name.  The wrapper's own bookkeeping is charged to no span.  Totals,
not individual spans, are kept in memory, because a job makes tens of
thousands of coefficient operations.
"""

import time
from collections import defaultdict


class Tracer:
    """Span totals by name: calls, self seconds and useful calls.

    The benchmark clears self_s before each job and copies it after, to
    scale each job's self times by that job's speed factor.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.useful = defaultdict(int)
        self._open = [0.0]       # traced-child seconds of each open span
        self._patches = []

    def wrap(self, name, fn, useful=None, select=None):
        """fn inside a span called name.

        useful(*args) marks the calls that count towards name's useful
        ratio; calls for which select(*args) is false pass through untraced.
        """
        calls, self_s, good = self.calls, self.self_s, self.useful
        stack, now = self._open, time.perf_counter

        def traced(*args, **kwargs):
            if select is not None and not select(*args):
                return fn(*args, **kwargs)
            enter = now()
            if useful is not None and useful(*args):
                good[name] += 1
            stack.append(0.0)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                children = stack.pop()
                calls[name] += 1
                self_s[name] += end - start - children
                stack[-1] += now() - enter

        return traced

    def patch(self, owner, attr, name, useful=None, select=None):
        """Replace owner.attr by its traced wrapper until restore()."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, useful, select))
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _nonzero_product(a, b):
    return not a.is_zero and not b.is_zero


def install(tracer, lineint):
    """Patch the traced functions of every lineint layer but the CLI.

    The CLI layer is the root span the benchmark opens around each job.
    """
    coeff, series, nabla, scheme, parsing = (
        lineint.coeff, lineint.series, lineint.nabla, lineint.scheme,
        lineint.parsing)
    ts, padic = series.TruncatedSeries, coeff.PAdic
    for attr in ("parse_series", "parse_biseries", "load_connection",
                 "load_connection_matrix", "load_family",
                 "document_precision"):
        tracer.patch(parsing, attr, "parsing.read")
    tracer.patch(parsing, "structured_series", "parsing.write")
    # A series times a one-form re-enters __mul__ with the form's series;
    # only the inner series-by-series product is a span.
    tracer.patch(ts, "__mul__", "series.mul", useful=_nonzero_product,
                 select=lambda a, b: isinstance(b, ts))
    tracer.patch(ts, "__add__", "series.add")
    tracer.patch(series, "inverse", "series.inverse")
    tracer.patch(series, "antiderive", "series.antiderive")
    tracer.patch(nabla, "antiderive", "series.antiderive")
    tracer.patch(series, "derive", "series.derive")
    tracer.patch(scheme, "derive", "series.derive")
    tracer.patch(series, "dlog", "series.dlog")
    tracer.patch(series, "padic_log_dagger", "series.padic_log_dagger")
    tracer.patch(series, "formal_log", "series.formal_log")
    for attr in ("__mul__", "__rmul__"):
        tracer.patch(padic, attr, "coeff.padic_mul")
    for attr in ("__add__", "__radd__"):
        tracer.patch(padic, attr, "coeff.padic_add")
    tracer.patch(padic, "__truediv__", "coeff.padic_div")
    tracer.patch(coeff, "padic_normalize", "coeff.padic_normalize")
    for attr in ("__neg__", "__sub__", "__rsub__", "__eq__", "inverse",
                 "truncated"):
        tracer.patch(padic, attr, "coeff.padic_other")
    tracer.patch(nabla, "trivialize", "nabla.trivialize")
    tracer.patch(nabla, "invariant", "nabla.invariant")
    tracer.patch(scheme, "invariant", "nabla.invariant")
    tracer.patch(scheme, "substitute_fiber", "scheme.substitute_fiber",
                 useful=lambda b, w: not b.is_zero)
    tracer.patch(scheme, "section_pullback", "scheme.section_pullback")
    tracer.patch(scheme, "line_integral", "scheme.line_integral")


PADIC_SPANS = ("coeff.padic_mul", "coeff.padic_add", "coeff.padic_div",
               "coeff.padic_normalize", "coeff.padic_other")

# name -> (unit, how to read it off the totals), every value per job.
PER_LAYER = {
    "cli.self_ms": ("ms", ("self_ms", "cli")),
    "parsing.read_ms": ("ms", ("self_ms", "parsing.read")),
    "parsing.write_ms": ("ms", ("self_ms", "parsing.write")),
    "parsing.out_bytes": ("bytes", ("out_bytes",)),
    "series.mul.calls": ("count", ("calls", "series.mul")),
    "series.mul.self_ms": ("ms", ("self_ms", "series.mul")),
    "series.mul.useful_ratio": ("ratio", ("useful_ratio", "series.mul")),
    "series.inverse.self_ms": ("ms", ("self_ms", "series.inverse")),
    "series.antiderive.self_ms": ("ms", ("self_ms", "series.antiderive")),
    "series.formal_log.self_ms": ("ms", ("self_ms", "series.formal_log")),
    "coeff.padic_mul.calls": ("count", ("calls", "coeff.padic_mul")),
    "coeff.padic_add.calls": ("count", ("calls", "coeff.padic_add")),
    "coeff.padic_div.calls": ("count", ("calls", "coeff.padic_div")),
    "coeff.padic_normalize.calls": ("count",
                                    ("calls", "coeff.padic_normalize")),
    "coeff.padic.self_ms": ("ms", ("self_ms",) + PADIC_SPANS),
    "nabla.trivialize.self_ms": ("ms", ("self_ms", "nabla.trivialize")),
    "nabla.invariant.self_ms": ("ms", ("self_ms", "nabla.invariant")),
    "scheme.substitute_fiber.calls": ("count",
                                      ("calls", "scheme.substitute_fiber")),
    "scheme.substitute_fiber.self_ms": ("ms",
                                        ("self_ms",
                                         "scheme.substitute_fiber")),
    "scheme.substitute_fiber.useful_ratio": ("ratio",
                                             ("useful_ratio",
                                              "scheme.substitute_fiber")),
    "scheme.section_pullback.self_ms": ("ms",
                                        ("self_ms",
                                         "scheme.section_pullback")),
    "trace.jobs_per_s": ("jobs/s", ("jobs_per_s",)),
}


def per_layer(tracer, self_s, jobs, jobs_per_s, out_bytes):
    """The per-layer metrics, each per job, from a traced run's totals.

    self_s holds each span's self seconds over the run; a useful ratio with
    no calls reads 0.
    """
    def value(kind, *names):
        if kind == "self_ms":
            return sum(self_s.get(n, 0.0) for n in names) * 1000 / jobs
        if kind == "calls":
            return tracer.calls[names[0]] / jobs
        if kind == "useful_ratio":
            calls = tracer.calls[names[0]]
            return tracer.useful[names[0]] / calls if calls else 0.0
        if kind == "out_bytes":
            return out_bytes / jobs
        return jobs_per_s

    return {name: {"value": value(*how), "unit": unit}
            for name, (unit, how) in PER_LAYER.items()}


def totals(tracer, self_s, jobs):
    """Every span's calls, self time and useful calls per job."""
    return {name: {"calls": tracer.calls[name] / jobs,
                   "self_ms": self_s.get(name, 0.0) * 1000 / jobs,
                   "useful": tracer.useful[name] / jobs}
            for name in sorted(tracer.calls)}
