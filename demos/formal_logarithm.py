"""Windowed power series and the formal logarithm.

Every series here carries an explicit window [min_degree, trunc_order):
coefficients below the window are exactly zero, everything at or above
the truncation is unknown.  Operations only ever claim what the windows
can prove.
"""

from fractions import Fraction

from lineint import (
    RingLabel,
    derive,
    dlog,
    formal_log,
    parse_series,
    print_series,
    residue,
    series_from_coeffs,
)

F = RingLabel.FORMAL


def show(label, s):
    print(f"  {label:<28} {print_series(s)}")


print("== the logarithm of 1 - t ==")
one_minus_t = parse_series("1 - t + O(t^8)")
log = formal_log(one_minus_t)
show("log(1 - t)", log)
print("  coefficients are -1/n:", all(
    log.coefficient(n) == Fraction(-1, n) for n in range(1, 8)))
print()

print("== log turns products into sums ==")
a = parse_series("2 + t + 3*t^2 + O(t^8)")
b = parse_series("1 - 4*t + t^3 + O(t^8)")
lhs = formal_log(a * b)
rhs = formal_log(a) + formal_log(b)
show("log(a*b)", lhs)
show("log(a) + log(b)", rhs)
print("  equal on the window:", lhs.coeffs == rhs.coeffs)
print()

print("== dlog sees only the unit part ==")
# dlog(c*x) = dlog(x): the constant dies under d/dt
x = parse_series("1 + t + O(t^6)")
scaled = series_from_coeffs(F, 0, [Fraction(7, 2)] + [0] * 5) * x
show("dlog(x)", dlog(x).series)
show("dlog(7/2 * x)", dlog(scaled).series)
print()

print("== derivatives have no residue ==")
s = parse_series("3 - t + 5*t^2 - t^4 + O(t^7)")
form = derive(s)
show("ds", form.series)
print("  residue of an exact form:", residue(form))
