"""The periodic pieces: the Fourier form of the sawtooth integral and
the Gamma/zeta oscillation W that enters the final estimate.

W is ln2-periodic with amplitude ~2e-6: visible in the table, invisible
in the leading terms.
"""

import math

from spartitions import sawtooth_log_integral_series, sawtooth_log_integral, w_oscillation

LN2 = math.log(2.0)

print("Fourier form vs closed form ln2*y(1-y)/2 of int_1^u f(v)/v dv:")
for u in (2.0, 3.0, 5.0, 8.0, 10.0):
    series = sawtooth_log_integral_series(u, 10 ** 4)
    closed = sawtooth_log_integral(u, tol=1e-10)
    print(f"  u={u:>4g}: series={series:+.8f} closed form={closed:+.8f} "
          f"diff={series - closed:+.1e}")

print("\nW(z) over one period (64 samples condensed to 8):")
for j in range(8):
    z = j * LN2 / 8.0
    print(f"  z={z:.4f}: W={w_oscillation(z):+.6e}")

peak = max(abs(w_oscillation(j * LN2 / 64.0)) for j in range(64))
print(f"\nmax |W| on the 64-point grid: {peak:.3e}")
print(f"periodicity drift |W(z+ln2)-W(z)| at z=0.1: "
      f"{abs(w_oscillation(0.1 + LN2) - w_oscillation(0.1)):.1e}")
