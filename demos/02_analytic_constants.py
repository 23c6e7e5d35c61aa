"""The analytic constants of the log-count asymptotics.

alpha is the dyadic sawtooth integral of f(v)/(v(v-1)) from 2 on; c
adds the closed form (pi^2 + ln^2 2)/(12 ln 2); H adds the tail
integral over (0, infinity) divided by ln 2, which is exact:
I = pi^2/12 - gamma^2/2 - gamma_1.  Two identities from the
derivation are checked numerically along the way.
"""

import math

from spartitions import (
    H_constant,
    alpha_constant,
    c_constant,
    integrate_adaptive,
    sawtooth_f,
    tail_integral_I,
)

TOL = 1e-9

alpha = alpha_constant(TOL)
c = c_constant(TOL)
tail = tail_integral_I(TOL)
H = H_constant(TOL)

print(f"alpha = {alpha:.12f}   (dyadic sawtooth integral)")
print(f"c     = {c:.12f}   (= (pi^2+ln^2 2)/(12 ln2) + alpha)")
print(f"I     = {tail:.12f}   (tail integral, = pi^2/12 - gamma^2/2 - gamma_1)")
print(f"H     = {H:.12f}   (= c + I/ln2)")

print("\nidentity checks:")
res = integrate_adaptive(lambda t: math.log1p(t) / t if t else 1.0,
                         0.0, 1.0, tol=1e-11)
print(f"  int_0^1 ln(1+t)/t dt - pi^2/12 = {res.value - math.pi**2/12:+.2e}")

res = integrate_adaptive(lambda v: sawtooth_f(v) / v, 1.0, 2.0, tol=1e-11)
print(f"  int_1^2 f(v)/v dv              = {res.value:+.2e}  (middle integral)")

for u in (10.0, 100.0, 1000.0):
    res = integrate_adaptive(lambda v: sawtooth_f(v) / (v - 1.0),
                             u, u + 1.0, tol=1e-11)
    print(f"  int_{{{u:g}}}^{{{u:g}+1}} f/(v-1) dv        = {res.value:+.2e}"
          f"  (bound {1/(2*(u-1)):.1e})")
